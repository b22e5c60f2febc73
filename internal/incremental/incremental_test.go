package incremental

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"pincer/internal/checkpoint"
	"pincer/internal/core"
	"pincer/internal/dataset"
	"pincer/internal/faultinject"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/quest"
)

func must[R any](r R, err error) R {
	if err != nil {
		panic(err)
	}
	return r
}

type workload struct {
	params  quest.Params
	support float64
}

// corpus mirrors the 12-workload quest corpus of the parallel conformance
// suite: five concentrated shapes (the Figure-4 regime), five scattered
// shapes (Figure-3), and two small dense edge shapes.
func corpus() []workload {
	var workloads []workload
	for seed := int64(1); seed <= 5; seed++ {
		workloads = append(workloads, workload{quest.Params{
			NumTransactions: 300 + 40*int(seed), AvgTxLen: 14, AvgPatternLen: 7,
			NumPatterns: 15, NumItems: 60, Seed: seed,
		}, 0.10})
	}
	for seed := int64(6); seed <= 10; seed++ {
		workloads = append(workloads, workload{quest.Params{
			NumTransactions: 300 + 40*int(seed), AvgTxLen: 8, AvgPatternLen: 3,
			NumPatterns: 80, NumItems: 100, Seed: seed,
		}, 0.03})
	}
	workloads = append(workloads,
		workload{quest.Params{NumTransactions: 120, AvgTxLen: 6, AvgPatternLen: 4,
			NumPatterns: 5, NumItems: 12, Seed: 11}, 0.25},
		workload{quest.Params{NumTransactions: 200, AvgTxLen: 10, AvgPatternLen: 5,
			NumPatterns: 10, NumItems: 30, Seed: 12}, 0.08},
	)
	return workloads
}

// reference mines the maintainer's materialized window from scratch and
// derives the expected MFS, supports, and border — the ground truth every
// delta is checked against.
type refState struct {
	mfs            []itemset.Itemset
	mfsSupports    []int64
	border         []itemset.Itemset
	borderSupports []int64
	minCount       int64
}

func reference(t *testing.T, m *Maintainer) refState {
	t.Helper()
	d := m.Dataset()
	minCount := dataset.MinCountFor(d.Len(), m.opt.MinSupport)
	res := must(core.MineCount(dataset.NewScanner(d), minCount, core.DefaultOptions()))
	universe := itemset.Range(0, itemset.Item(d.NumItems()))
	border := mfi.NegativeBorder(universe, mfi.Expand(res.MFS, 0))
	borderSupports := make([]int64, len(border))
	for i, b := range border {
		borderSupports[i] = d.Support(b)
	}
	return refState{res.MFS, res.MFSSupports, border, borderSupports, minCount}
}

// checkAgainstReference asserts the maintained state is byte-identical to a
// from-scratch mine of the materialized window.
func checkAgainstReference(t *testing.T, m *Maintainer, tag string) {
	t.Helper()
	ref := reference(t, m)
	if m.MinCount() != ref.minCount {
		t.Fatalf("%s: minCount = %d, want %d", tag, m.MinCount(), ref.minCount)
	}
	if err := mfi.VerifyAgainst(m.MFS(), ref.mfs); err != nil {
		t.Fatalf("%s: MFS diverged: %v", tag, err)
	}
	for i := range ref.mfs {
		if m.MFSSupports()[i] != ref.mfsSupports[i] {
			t.Fatalf("%s: support(%v) = %d, want %d",
				tag, ref.mfs[i], m.MFSSupports()[i], ref.mfsSupports[i])
		}
	}
	if err := mfi.VerifyAgainst(m.Border(), ref.border); err != nil {
		t.Fatalf("%s: border diverged: %v", tag, err)
	}
	for i := range ref.border {
		if m.BorderSupports()[i] != ref.borderSupports[i] {
			t.Fatalf("%s: border support(%v) = %d, want %d",
				tag, ref.border[i], m.BorderSupports()[i], ref.borderSupports[i])
		}
	}
}

type maintainerConfig struct {
	name    string
	counter string
	workers int
	window  bool
}

// TestMaintainerEquivalence is the headline property test: across the
// 12-workload corpus, two minsups, scan and tid-list counters, and worker
// counts {1, 4}, a randomized append/evict schedule must leave the
// maintained MFS, supports, and border byte-identical to a from-scratch
// mine of the materialized window after EVERY delta — including the deltas
// the maintainer absorbed on the re-mine-avoided fast path, which the test
// proves actually occur.
func TestMaintainerEquivalence(t *testing.T) {
	configs := []maintainerConfig{
		{"scan-w1", CounterScan, 1, false},
		{"scan-w4", CounterScan, 4, true},
		{"tidlist-w1", CounterTidList, 1, true},
		{"tidlist-w4", CounterTidList, 4, false},
	}
	var totalFast, totalRemines int64
	for wi, wl := range corpus() {
		if testing.Short() && wi%4 != 0 {
			continue
		}
		supports := []float64{wl.support, wl.support * 1.5}
		if testing.Short() || wi%3 != 0 {
			supports = supports[:1]
		}
		d := quest.Generate(wl.params)
		txs := d.Transactions()
		for si, sup := range supports {
			// Rotate two of the four configs per workload (every config runs
			// against every workload shape across the corpus) and re-prove
			// the second minsup on the first of them only: after-every-delta
			// reference mines are expensive, and the property is per-delta,
			// not per-combination.
			for ci, cfg := range []maintainerConfig{configs[wi%4], configs[(wi+1)%4]} {
				if si > 0 && ci > 0 {
					continue
				}
				opt := Options{MinSupport: sup, Counter: cfg.counter, Workers: cfg.workers}
				if cfg.window {
					opt.Window = len(txs) * 4 / 5
				}
				m := must(New(opt))
				rng := rand.New(rand.NewSource(int64(7919*wi + 101*si + ci)))
				st := schedule(rng, txs)
				for bi, batch := range st {
					if _, err := m.Append(batch); err != nil {
						t.Fatalf("workload %d sup %v cfg %s batch %d: %v", wi, sup, cfg.name, bi, err)
					}
					checkAgainstReference(t, m,
						fmt.Sprintf("workload %d sup %v cfg %s batch %d", wi, sup, cfg.name, bi))
				}
				if cfg.window && m.Len() != opt.Window {
					t.Fatalf("workload %d cfg %s: window length %d, want %d", wi, cfg.name, m.Len(), opt.Window)
				}
				totalFast += m.Stats().FastPath
				totalRemines += m.Stats().Remines
			}
		}
	}
	// Both decision outcomes must actually be exercised, or the test says
	// nothing about the fast path (or about warm-started re-mines).
	if totalFast == 0 {
		t.Fatal("no delta ever took the fast path — the border argument was never exercised")
	}
	if totalRemines == 0 {
		t.Fatal("no delta ever re-mined")
	}
	t.Logf("fast-path deltas: %d, re-mines: %d", totalFast, totalRemines)
}

// schedule splits txs into a randomized batch schedule: one bulk batch to
// establish the stream, two single-transaction deltas (the fast path's
// natural habitat), then three random cuts over the remainder.
func schedule(rng *rand.Rand, txs []dataset.Transaction) [][]dataset.Transaction {
	bulk := len(txs) * 3 / 5
	batches := [][]dataset.Transaction{txs[:bulk], txs[bulk : bulk+1], txs[bulk+1 : bulk+2]}
	at := bulk + 2
	rest := len(txs) - at
	cuts := []int{at + rng.Intn(rest), at + rng.Intn(rest), len(txs)}
	sortInts(cuts)
	for _, c := range cuts {
		if c > at {
			batches = append(batches, txs[at:c])
			at = c
		}
	}
	return batches
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestMaintainerWindowSmallerThanBatch covers the window-boundary edge
// where a single batch overflows the whole window: its own head is evicted
// immediately and the arithmetic must net out exactly.
func TestMaintainerWindowSmallerThanBatch(t *testing.T) {
	d := quest.Generate(quest.Params{NumTransactions: 200, AvgTxLen: 8,
		AvgPatternLen: 4, NumPatterns: 10, NumItems: 30, Seed: 3})
	txs := d.Transactions()
	m := must(New(Options{MinSupport: 0.1, Window: 50}))
	if _, err := m.Append(txs[:120]); err != nil { // 70 of its own evicted
		t.Fatal(err)
	}
	if m.Len() != 50 {
		t.Fatalf("window length %d, want 50", m.Len())
	}
	checkAgainstReference(t, m, "oversized first batch")
	delta := must(m.Append(txs[120:200])) // full turnover
	if delta.Evicted != 80 {
		t.Fatalf("evicted %d, want 80", delta.Evicted)
	}
	checkAgainstReference(t, m, "full-turnover batch")
}

// TestMaintainerNewItems covers universe growth mid-stream: transactions
// introducing item ids past the declared universe must extend the border
// with exactly the new infrequent singletons (fast path) or trigger a
// re-mine when a new item arrives frequent.
func TestMaintainerNewItems(t *testing.T) {
	m := must(New(Options{MinSupport: 0.5}))
	base := make([]dataset.Transaction, 0, 8)
	for i := 0; i < 8; i++ {
		base = append(base, itemset.New(0, 1))
	}
	must(m.Append(base))
	checkAgainstReference(t, m, "initial")

	// One transaction with a brand-new item: infrequent, so the border just
	// gains the singleton {2} — no mine.
	delta := must(m.Append([]dataset.Transaction{itemset.New(0, 1, 2)}))
	if delta.Remined {
		t.Fatalf("infrequent new item forced a re-mine (reason %q)", delta.Reason)
	}
	checkAgainstReference(t, m, "new infrequent item")

	// Flood of a newer item riding the existing pattern: the old MFS stays
	// frequent, so the new item itself is what forces the re-mine.
	flood := make([]dataset.Transaction, 0, 12)
	for i := 0; i < 12; i++ {
		flood = append(flood, itemset.New(0, 1, 3))
	}
	delta = must(m.Append(flood))
	if !delta.Remined || delta.Reason != ReasonNewItemFrequent {
		t.Fatalf("frequent new item: remined=%v reason=%q, want re-mine with %q",
			delta.Remined, delta.Reason, ReasonNewItemFrequent)
	}
	checkAgainstReference(t, m, "new frequent item")
}

// TestMaintainerStateRoundTrip proves Snapshot → Encode → Decode → Restore
// reproduces a maintainer that continues the stream identically to the
// original.
func TestMaintainerStateRoundTrip(t *testing.T) {
	d := quest.Generate(quest.Params{NumTransactions: 300, AvgTxLen: 10,
		AvgPatternLen: 5, NumPatterns: 12, NumItems: 40, Seed: 9})
	txs := d.Transactions()
	opt := Options{MinSupport: 0.08, Window: 220}
	orig := must(New(opt))
	must(orig.Append(txs[:180]))
	must(orig.Append(txs[180:220]))

	raw := must(EncodeState(orig.Snapshot()))
	st := must(DecodeState(raw))
	restored := must(New(opt))
	if err := restored.Restore(st, orig.Window()); err != nil {
		t.Fatal(err)
	}
	if restored.Seq() != orig.Seq() || restored.MinCount() != orig.MinCount() {
		t.Fatalf("restored seq/minCount %d/%d, want %d/%d",
			restored.Seq(), restored.MinCount(), orig.Seq(), orig.MinCount())
	}

	for at := 220; at < len(txs); at += 30 {
		end := at + 30
		if end > len(txs) {
			end = len(txs)
		}
		do := must(orig.Append(txs[at:end]))
		dr := must(restored.Append(txs[at:end]))
		if do.Remined != dr.Remined || do.Reason != dr.Reason {
			t.Fatalf("batch at %d: original delta %+v, restored delta %+v", at, do, dr)
		}
		checkAgainstReference(t, restored, "restored continuation")
	}
	if err := mfi.VerifyAgainst(restored.MFS(), orig.MFS()); err != nil {
		t.Fatalf("restored MFS diverged from original: %v", err)
	}

	// A window that disagrees with the snapshot must be rejected.
	fresh := must(New(opt))
	if err := fresh.Restore(st, orig.Window()[1:]); err == nil {
		t.Fatal("Restore accepted a window shorter than the snapshot records")
	}
}

// TestDecodeStateErrors pins the typed-error contract: garbage, version
// skew, and inconsistent parallel slices all surface *checkpoint.CorruptError.
func TestDecodeStateErrors(t *testing.T) {
	var ce *checkpoint.CorruptError
	if _, err := DecodeState([]byte("not a gob stream")); !errors.As(err, &ce) {
		t.Fatalf("garbage: got %v, want *checkpoint.CorruptError", err)
	}
	bad := &State{Version: StateVersion + 1}
	if _, err := DecodeState(must(EncodeState(bad))); !errors.As(err, &ce) {
		t.Fatalf("version skew: got %v, want *checkpoint.CorruptError", err)
	}
	bad = &State{Version: StateVersion, MFS: []itemset.Itemset{itemset.New(1)}}
	if _, err := DecodeState(must(EncodeState(bad))); !errors.As(err, &ce) {
		t.Fatalf("mismatched slices: got %v, want *checkpoint.CorruptError", err)
	}
}

// TestMaintainerRemineFaultResume kills a re-mine mid-scan and proves the
// transactionality contract: the failed Append leaves the maintainer
// unchanged, and replaying the same batch — resuming from the mine
// checkpoint the crash left behind — converges to the exact reference.
func TestMaintainerRemineFaultResume(t *testing.T) {
	d := quest.Generate(quest.Params{NumTransactions: 240, AvgTxLen: 10,
		AvgPatternLen: 5, NumPatterns: 10, NumItems: 30, Seed: 5})
	txs := d.Transactions()

	armed := true
	opt := Options{
		MinSupport:       0.08,
		MineCheckpointer: &checkpoint.MemCheckpointer{},
		WrapScanner: func(sc dataset.Scanner) dataset.Scanner {
			if !armed {
				return sc
			}
			return &faultinject.Scanner{Scanner: sc, TripAtScan: 2, AfterTx: 20}
		},
	}
	m := must(New(opt))

	if _, err := m.Append(txs); err == nil {
		t.Fatal("killed re-mine reported success")
	}
	if m.Seq() != 0 || m.Len() != 0 || len(m.MFS()) != 0 {
		t.Fatalf("failed Append mutated the maintainer: seq %d, len %d, |MFS| %d",
			m.Seq(), m.Len(), len(m.MFS()))
	}
	// The crash must have left a resumable checkpoint behind.
	if st := must(opt.MineCheckpointer.Load()); st == nil {
		t.Fatal("no mine checkpoint survived the simulated crash")
	}

	armed = false
	delta := must(m.Append(txs))
	if !delta.Remined {
		t.Fatal("replayed first batch did not mine")
	}
	checkAgainstReference(t, m, "post-crash replay")

	// Success must clear the checkpoint so the next re-mine starts fresh.
	if st := must(opt.MineCheckpointer.Load()); st != nil {
		t.Fatal("successful mine left its checkpoint behind")
	}
}

// TestJournalReplayIgnoresOtherBatchCheckpoint replays a whole journal over
// the checkpoint an interrupted later re-mine left behind. Consecutive full
// windows (window = batch = 50 transactions) share every identity field a
// checkpoint carries except the batch, so replayed batch 1 must not resume
// batch 24's barrier: every replayed batch must still equal a from-scratch
// mine of its window.
func TestJournalReplayIgnoresOtherBatchCheckpoint(t *testing.T) {
	const batch, batches = 50, 24
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d := quest.Generate(quest.Params{NumTransactions: batch * batches, AvgTxLen: 8,
				AvgPatternLen: 4, NumPatterns: 20, NumItems: 60, Seed: seed})
			txs := d.Transactions()
			path := filepath.Join(t.TempDir(), "mine.ckpt")

			// Generation 1: batch 24's re-mine is killed at its second scan.
			armed := false
			m := must(New(Options{
				MinSupport: 0.15, Window: batch,
				MineCheckpointer: checkpoint.NewFileCheckpointer(path),
				WrapScanner: func(sc dataset.Scanner) dataset.Scanner {
					if !armed {
						return sc
					}
					return &faultinject.Scanner{Scanner: sc, TripAtScan: 2}
				},
			}))
			for b := 0; b < batches; b++ {
				armed = b == batches-1
				_, err := m.Append(txs[b*batch : (b+1)*batch])
				if armed && err == nil {
					t.Fatalf("batch %d did not re-mine, so nothing was killed", b+1)
				}
				if !armed && err != nil {
					t.Fatalf("batch %d: %v", b+1, err)
				}
			}
			if st := must(checkpoint.NewFileCheckpointer(path).Load()); st == nil {
				t.Fatal("the killed re-mine left no checkpoint")
			}

			// Generation 2 replays the journal from batch 1 on the same file.
			m = must(New(Options{MinSupport: 0.15, Window: batch,
				MineCheckpointer: checkpoint.NewFileCheckpointer(path)}))
			for b := 0; b < batches; b++ {
				must(m.Append(txs[b*batch : (b+1)*batch]))
				checkAgainstReference(t, m, fmt.Sprintf("replayed batch %d", b+1))
			}
		})
	}
}

// TestMaintainerCorruptMineCheckpoint proves a stale or corrupt warm-start
// checkpoint cannot wedge the stream: the maintainer clears it and mines
// fresh.
func TestMaintainerCorruptMineCheckpoint(t *testing.T) {
	d := quest.Generate(quest.Params{NumTransactions: 150, AvgTxLen: 8,
		AvgPatternLen: 4, NumPatterns: 8, NumItems: 20, Seed: 4})
	ck := &checkpoint.MemCheckpointer{}
	// A checkpoint from some other run: wrong database size, wrong minCount.
	if err := ck.Save(&checkpoint.State{Version: checkpoint.Version,
		Algorithm: "pincer", MinCount: 999, NumTransactions: 7, NumItems: 3}); err != nil {
		t.Fatal(err)
	}
	m := must(New(Options{MinSupport: 0.1, MineCheckpointer: ck}))
	must(m.Append(d.Transactions()))
	checkAgainstReference(t, m, "after clearing foreign checkpoint")
}

// TestNewValidation pins the option validation errors.
func TestNewValidation(t *testing.T) {
	cases := []Options{
		{MinSupport: 0},
		{MinSupport: 1.5},
		{MinSupport: 0.1, Window: -1},
		{MinSupport: 0.1, Counter: "bitmap"},
	}
	for i, opt := range cases {
		if _, err := New(opt); err == nil {
			t.Fatalf("case %d: New(%+v) accepted invalid options", i, opt)
		}
	}
}
