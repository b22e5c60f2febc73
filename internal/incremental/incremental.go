// Package incremental maintains the maximum frequent set of a live
// transaction stream — the scenario the paper motivates with stock
// movements and event episodes (§6), where the database is never frozen but
// usually arrives *almost* unchanged.
//
// The maintainer holds the current window of transactions, the MFS with
// exact supports, and the Mannila–Toivonen negative border (the minimal
// infrequent itemsets) with exact supports. Each appended batch (and, in
// window mode, the transactions it evicts) is counted against only
// MFS ∪ border through the core.PassCounter seam — one list, one counting
// call per delta side — and the border argument decides the rest:
//
//   - If every MFS element stays frequent, every border element stays
//     infrequent, and no brand-new item reaches the threshold, then the
//     frequent collection is unchanged — any itemset that changed side
//     would have a minimal witness in the border — so the MFS and border
//     are byte-identical to a from-scratch mine and only the maintained
//     supports move. No mining happens.
//
//   - Otherwise the border moved and the maintainer re-mines the
//     materialized window, warm-started two ways: the surviving old MFS
//     elements (still frequent at the new threshold, supports already
//     updated) seed the miner's MFS view (core.Options.SeedMFS), and when a
//     Checkpointer is configured an interrupted re-mine resumes at its last
//     pass barrier instead of pass 1.
//
// The maintainer is not safe for concurrent use; the serving layer
// (internal/server's stream resource) serializes batches per stream.
package incremental

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pincer/internal/checkpoint"
	"pincer/internal/core"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
	"pincer/internal/parallel"
)

// Counter kinds for Options.Counter.
const (
	// CounterScan counts deltas and re-mines by sequential database scans
	// (the default).
	CounterScan = "scan"
	// CounterTidList counts by vertical tid-list intersection.
	CounterTidList = "tidlist"
)

// Delta sides passed to Options.DeltaCounter: which part of a batch the
// maintained sets are being counted over.
const (
	SideAppend = "append" // the appended transactions
	SideEvict  = "evict"  // the evicted transactions
	SideBorder = "border" // the full window, recounting a re-mined border
)

// Delta reasons. A fast-path delta has Reason ""; a re-mine records which
// border condition failed (ReasonInitial for the first batch, which has no
// border to verify).
const (
	ReasonInitial         = "initial"           // first batch: nothing to verify against
	ReasonMFSInfrequent   = "mfs-infrequent"    // a maximal set fell below the threshold
	ReasonBorderFrequent  = "border-frequent"   // a border set reached the threshold
	ReasonNewItemFrequent = "new-item-frequent" // an unseen item arrived frequent
)

// Options configures a Maintainer.
type Options struct {
	// MinSupport is the fractional minimum support in (0, 1]. The absolute
	// threshold is re-derived from the window length after every delta.
	MinSupport float64
	// Window, when positive, keeps only the last Window transactions: each
	// batch evicts from the front whatever overflows. Zero means append-only.
	Window int
	// Counter selects the delta-verification and re-mine counting strategy:
	// CounterScan (default) or CounterTidList.
	Counter string
	// Workers is the counting-goroutine count for tid-list verification and
	// for re-mines (> 1 re-mines with the count-distribution parallel
	// miner); ≤ 1 is sequential.
	Workers int
	// Tracer receives the re-mines' per-pass events (nil disables).
	Tracer obsv.Tracer
	// Context cancels in-flight re-mines (nil: uncancellable).
	Context context.Context
	// MineCheckpointer, when set, persists re-mine pass-barrier state: a
	// maintainer restarted on the same checkpointer resumes an interrupted
	// re-mine at the barrier instead of pass 1. A checkpoint resumes only
	// the re-mine of the batch that wrote it (checkpoint.ForBatch); any
	// other batch's re-mine clears it and mines from pass 1.
	MineCheckpointer checkpoint.Checkpointer
	// WrapScanner wraps every scan-counting dataset scanner — the
	// fault-injection seam; nil in production.
	WrapScanner func(sc dataset.Scanner) dataset.Scanner
	// DeltaCounter, when set, replaces local delta-verification counting:
	// it returns the support of each set over d, for the batch seq and
	// Side* constant given. The sets are the maintained MFS followed by the
	// border — a list that is no antichain — or a re-mined border alone.
	// Supports are additive over horizontal partitions, so a distributed
	// implementation (cluster.StreamCoordinator) yields byte-identical
	// maintenance. Counter and Workers then shape only re-mines.
	DeltaCounter func(seq int64, side string, d *dataset.Dataset, sets []itemset.Itemset) []int64
	// MineCounter, when set, supplies the core.PassCounter a re-mine's
	// passes fan out over (e.g. a cluster.Coordinator built per re-mine);
	// it takes precedence over Counter and Workers, which only shape local
	// counting. A nil return falls back to local mining.
	MineCounter func(seq int64, d *dataset.Dataset) core.PassCounter
}

// Delta reports what one Append did.
type Delta struct {
	// Seq is the 1-based batch sequence number.
	Seq int64
	// Appended and Evicted count the transactions entering and leaving the
	// window (Evicted includes batch transactions that overflow immediately).
	Appended int
	Evicted  int
	// Transactions is the window length after the delta; MinCount the
	// absolute threshold derived from it.
	Transactions int
	MinCount     int64
	// BorderMoved reports whether the delta could have changed the frequent
	// collection; Remined whether a mine actually ran (they differ only on
	// the first batch, which re-mines without a border to move).
	BorderMoved bool
	Remined     bool
	// Reason explains a re-mine (Reason* constants); "" on the fast path.
	Reason string
	// Checked is the number of maintained itemsets counted against the
	// delta (MFS + border, appended + evicted sides).
	Checked int
	// VerifyDuration is the wall clock of the delta verification;
	// MineDuration of the re-mine (0 on the fast path).
	VerifyDuration time.Duration
	MineDuration   time.Duration
}

// Stats aggregates a maintainer's lifetime.
type Stats struct {
	Batches    int64         // batches applied
	FastPath   int64         // deltas absorbed without mining
	Remines    int64         // full mines (including the initial one)
	Checked    int64         // itemsets counted against deltas
	VerifyTime time.Duration // total delta-verification wall clock
	MineTime   time.Duration // total re-mine wall clock
}

// Maintainer holds a live dataset and its incrementally maintained MFS and
// negative border. Create one with New, feed it with Append.
type Maintainer struct {
	opt Options

	window   []dataset.Transaction
	numItems int
	minCount int64
	seq      int64

	mfs            []itemset.Itemset
	mfsSupports    []int64
	border         []itemset.Itemset
	borderSupports []int64

	stats Stats
}

// New validates the options and returns an empty maintainer. The first
// Append establishes the initial MFS and border by a full mine.
func New(opt Options) (*Maintainer, error) {
	if opt.MinSupport <= 0 || opt.MinSupport > 1 {
		return nil, fmt.Errorf("incremental: min support must be in (0, 1], got %v", opt.MinSupport)
	}
	if opt.Window < 0 {
		return nil, fmt.Errorf("incremental: window must be ≥ 0, got %d", opt.Window)
	}
	switch opt.Counter {
	case "", CounterScan:
		opt.Counter = CounterScan
	case CounterTidList:
	default:
		return nil, fmt.Errorf("incremental: unknown counter %q (want scan or tidlist)", opt.Counter)
	}
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	return &Maintainer{opt: opt}, nil
}

// Accessors. The returned slices are the maintainer's own state — callers
// must not modify them.

// MFS returns the current maximum frequent set, lexicographically sorted.
func (m *Maintainer) MFS() []itemset.Itemset { return m.mfs }

// MFSSupports returns the exact support counts parallel to MFS.
func (m *Maintainer) MFSSupports() []int64 { return m.mfsSupports }

// Border returns the negative border over the declared universe,
// lexicographically sorted.
func (m *Maintainer) Border() []itemset.Itemset { return m.border }

// BorderSupports returns the exact support counts parallel to Border.
func (m *Maintainer) BorderSupports() []int64 { return m.borderSupports }

// Len returns the current window length.
func (m *Maintainer) Len() int { return len(m.window) }

// NumItems returns the declared item universe (monotone over the stream).
func (m *Maintainer) NumItems() int { return m.numItems }

// MinCount returns the current absolute support threshold.
func (m *Maintainer) MinCount() int64 { return m.minCount }

// Seq returns the number of batches applied.
func (m *Maintainer) Seq() int64 { return m.seq }

// Stats returns the lifetime counters.
func (m *Maintainer) Stats() Stats { return m.stats }

// Window returns the live transactions (read-only).
func (m *Maintainer) Window() []dataset.Transaction { return m.window }

// Dataset materializes the current window as a dataset with the declared
// universe.
func (m *Maintainer) Dataset() *dataset.Dataset {
	d := dataset.Empty(m.numItems)
	for _, t := range m.window {
		d.Append(t)
	}
	return d
}

// Append applies one batch of transactions. On success the maintainer's
// MFS, border, and supports describe the post-delta window exactly; on
// error (a cancelled or killed re-mine) the maintainer is unchanged, so the
// same batch can be replayed.
func (m *Maintainer) Append(batch []dataset.Transaction) (Delta, error) {
	verifyStart := time.Now()

	// Normalize the batch and extend the declared universe.
	norm := make([]dataset.Transaction, len(batch))
	newNumItems := m.numItems
	for i, t := range batch {
		n := itemset.New(t...)
		norm[i] = n
		if len(n) > 0 && int(n.Last())+1 > newNumItems {
			newNumItems = int(n.Last()) + 1
		}
	}

	// Window arithmetic over the conceptual concatenation window ++ batch:
	// everything past the last Window entries falls off the front. Evicted
	// batch transactions (a batch longer than the window) are added and
	// subtracted below, which nets out exactly.
	full := make([]dataset.Transaction, 0, len(m.window)+len(norm))
	full = append(full, m.window...)
	full = append(full, norm...)
	evictN := 0
	if m.opt.Window > 0 && len(full) > m.opt.Window {
		evictN = len(full) - m.opt.Window
	}
	evicted := full[:evictN]
	newWindow := full[evictN:]
	newMinCount := dataset.MinCountFor(len(newWindow), m.opt.MinSupport)

	d := Delta{
		Seq:          m.seq + 1,
		Appended:     len(norm),
		Evicted:      evictN,
		Transactions: len(newWindow),
		MinCount:     newMinCount,
	}

	if m.seq == 0 {
		// First batch: no maintained state to verify against.
		d.Remined = true
		d.Reason = ReasonInitial
		d.VerifyDuration = time.Since(verifyStart)
		if err := m.remine(&d, newWindow, newNumItems, newMinCount, nil, nil); err != nil {
			return d, err
		}
		m.commitCounters(&d)
		return d, nil
	}

	// Delta verification: count the maintained sets, MFS then border, over
	// the appended and evicted transactions.
	db := deltaDataset(norm, newNumItems)
	de := deltaDataset(evicted, newNumItems)
	sets := make([]itemset.Itemset, 0, len(m.mfs)+len(m.border))
	sets = append(append(sets, m.mfs...), m.border...)
	add := m.countOver(d.Seq, SideAppend, db, sets)
	sub := m.countOver(d.Seq, SideEvict, de, sets)
	addMFS, addBorder := add[:len(m.mfs)], add[len(m.mfs):]
	subMFS, subBorder := sub[:len(m.mfs)], sub[len(m.mfs):]
	d.Checked = 2 * len(sets)

	newMFSSupports := make([]int64, len(m.mfsSupports))
	for i, s := range m.mfsSupports {
		newMFSSupports[i] = s + addMFS[i] - subMFS[i]
	}
	newBorderSupports := make([]int64, len(m.borderSupports))
	for i, s := range m.borderSupports {
		newBorderSupports[i] = s + addBorder[i] - subBorder[i]
	}

	// The border argument, three conditions. Brand-new items (ids past the
	// old universe) have no border witness yet: an infrequent one extends
	// the border by exactly its singleton (minimal, and contained in no
	// other minimal infrequent set), a frequent one moves it for real.
	reason := ""
	for _, s := range newMFSSupports {
		if s < newMinCount {
			reason = ReasonMFSInfrequent
			break
		}
	}
	if reason == "" {
		for _, s := range newBorderSupports {
			if s >= newMinCount {
				reason = ReasonBorderFrequent
				break
			}
		}
	}
	var newItems []itemset.Item
	var newItemCounts []int64
	if newNumItems > m.numItems {
		ic := db.ItemCounts()
		for i := m.numItems; i < newNumItems; i++ {
			newItems = append(newItems, itemset.Item(i))
			newItemCounts = append(newItemCounts, ic[i])
		}
		if reason == "" {
			for _, c := range newItemCounts {
				if c >= newMinCount {
					reason = ReasonNewItemFrequent
					break
				}
			}
		}
	}
	d.VerifyDuration = time.Since(verifyStart)

	if reason == "" {
		// Fast path: the frequent collection is unchanged; commit the
		// updated supports and extend the border with the new singletons.
		m.window = newWindow
		m.numItems = newNumItems
		m.minCount = newMinCount
		m.mfsSupports = newMFSSupports
		m.borderSupports = newBorderSupports
		for i, it := range newItems {
			m.border = append(m.border, itemset.Itemset{it})
			m.borderSupports = append(m.borderSupports, newItemCounts[i])
		}
		if len(newItems) > 0 {
			sortBorder(m.border, m.borderSupports)
		}
		m.seq++
		m.stats.FastPath++
		m.commitCounters(&d)
		return d, nil
	}

	// Border moved: re-mine the materialized window, seeded with the old
	// maximal sets that survive the new threshold (their updated supports
	// are exact, so they are genuinely frequent seeds).
	d.BorderMoved = true
	d.Remined = true
	d.Reason = reason
	var seeds []itemset.Itemset
	var seedSupports []int64
	for i, s := range m.mfs {
		if newMFSSupports[i] >= newMinCount {
			seeds = append(seeds, s)
			seedSupports = append(seedSupports, newMFSSupports[i])
		}
	}
	if err := m.remine(&d, newWindow, newNumItems, newMinCount, seeds, seedSupports); err != nil {
		return d, err
	}
	m.commitCounters(&d)
	return d, nil
}

// commitCounters folds a committed delta into the lifetime stats.
func (m *Maintainer) commitCounters(d *Delta) {
	m.stats.Batches++
	m.stats.Checked += int64(d.Checked)
	m.stats.VerifyTime += d.VerifyDuration
	m.stats.MineTime += d.MineDuration
}

// remine mines the materialized window from scratch (warm-started by seeds
// and, via the checkpointer, by any interrupted re-mine's pass barrier) and
// commits the new window, MFS, and border. On error nothing is committed.
func (m *Maintainer) remine(d *Delta, window []dataset.Transaction, numItems int, minCount int64, seeds []itemset.Itemset, seedSupports []int64) error {
	mineStart := time.Now()
	dnew := deltaDataset(window, numItems)

	res, err := m.mineDataset(d.Seq, dnew, minCount, seeds, seedSupports)
	if err != nil {
		return err
	}

	universe := itemset.Range(0, itemset.Item(numItems))
	border := mfi.NegativeBorder(universe, mfi.Expand(res.MFS, 0))
	borderSupports := m.countOver(d.Seq, SideBorder, dnew, border)

	m.window = window
	m.numItems = numItems
	m.minCount = minCount
	m.mfs = res.MFS
	m.mfsSupports = res.MFSSupports
	m.border = border
	m.borderSupports = borderSupports
	m.seq++
	m.stats.Remines++
	d.MineDuration = time.Since(mineStart)
	return nil
}

// mineDataset runs the configured miner over d. With a checkpointer it
// resumes from any barrier recorded for batch seq; a checkpoint that turns
// out corrupt or recorded for a different run or batch is cleared and the
// mine restarts fresh rather than failing the stream.
func (m *Maintainer) mineDataset(seq int64, d *dataset.Dataset, minCount int64, seeds []itemset.Itemset, seedSupports []int64) (*mfi.Result, error) {
	run := func(resume bool) (*mfi.Result, error) {
		copt := core.DefaultOptions()
		copt.KeepFrequent = false
		copt.Tracer = m.opt.Tracer
		copt.Context = m.opt.Context
		if m.opt.MineCheckpointer != nil {
			copt.Checkpointer = checkpoint.ForBatch(m.opt.MineCheckpointer, seq)
		}
		copt.SeedMFS = seeds
		copt.SeedSupports = seedSupports
		// Counting strategy: an injected counter (a distributed re-mine fans
		// each pass out itself), else tid-lists, else count distribution
		// over Workers goroutines, else a sequential scan.
		if m.opt.MineCounter != nil {
			copt.Counter = m.opt.MineCounter(seq, d)
		}
		if copt.Counter == nil {
			switch {
			case m.opt.Counter == CounterTidList:
				copt.Counter = counting.NewTidListCounter(d, counting.TidListOptions{Workers: m.opt.Workers})
			case m.opt.Workers > 1:
				copt.Counter = parallel.NewPassCounter(d, m.opt.Workers)
			}
			if m.opt.Workers > 1 {
				copt.Algorithm = "pincer-parallel"
			}
		}
		sc := m.scanner(d)
		if resume {
			return core.MineResume(sc, minCount, copt)
		}
		return core.MineCount(sc, minCount, copt)
	}

	resume := m.opt.MineCheckpointer != nil
	res, err := run(resume)
	if err != nil && resume {
		var ce *checkpoint.CorruptError
		var me *checkpoint.MismatchError
		if errors.As(err, &ce) || errors.As(err, &me) {
			// A stale or unreadable warm-start checkpoint must not wedge the
			// stream: drop it and mine fresh.
			if cerr := m.opt.MineCheckpointer.Clear(); cerr != nil {
				return nil, cerr
			}
			res, err = run(false)
		}
	}
	return res, err
}

// scanner builds the (possibly fault-wrapped) scanner for scan counting.
func (m *Maintainer) scanner(d *dataset.Dataset) dataset.Scanner {
	var sc dataset.Scanner = dataset.NewScanner(d)
	if m.opt.WrapScanner != nil {
		sc = m.opt.WrapScanner(sc)
	}
	return sc
}

// countOver counts each of sets over d through the configured PassCounter
// (or the injected DeltaCounter), as the elements of one pass: any list,
// such as MFS ∪ border, which is no antichain.
func (m *Maintainer) countOver(seq int64, side string, d *dataset.Dataset, sets []itemset.Itemset) []int64 {
	if len(sets) == 0 {
		return nil
	}
	if d.Len() == 0 {
		return make([]int64, len(sets))
	}
	if m.opt.DeltaCounter != nil {
		return m.opt.DeltaCounter(seq, side, d, sets)
	}
	var pc core.PassCounter
	if m.opt.Counter == CounterTidList {
		pc = counting.NewTidListCounter(d, counting.TidListOptions{Workers: m.opt.Workers})
	} else {
		pc = core.NewScanCounter(m.scanner(d))
	}
	_, counts := pc.CountCandidates(counting.EngineHashTree, nil, sets, counting.DirectBits(d.NumItems(), sets))
	return counts
}

// deltaDataset materializes transactions into a dataset with an explicit
// universe, so element bitsets and tid-lists agree on their width.
func deltaDataset(txs []dataset.Transaction, numItems int) *dataset.Dataset {
	d := dataset.Empty(numItems)
	for _, t := range txs {
		d.Append(t)
	}
	return d
}

// sortBorder sorts the border and its supports in parallel into the
// lexicographic order mfi.NegativeBorder produces.
func sortBorder(border []itemset.Itemset, supports []int64) {
	order := make([]int, len(border))
	for i := range order {
		order[i] = i
	}
	sortOrder(order, func(a, b int) bool { return border[a].Compare(border[b]) < 0 })
	bs := make([]itemset.Itemset, len(border))
	ss := make([]int64, len(supports))
	for to, from := range order {
		bs[to] = border[from]
		ss[to] = supports[from]
	}
	copy(border, bs)
	copy(supports, ss)
}

// sortOrder is sort.Slice without dragging package sort into the hot file's
// import graph twice; kept trivial.
func sortOrder(order []int, less func(a, b int) bool) {
	// insertion sort: border extensions are tiny (the new singletons land
	// near the end of an already sorted list).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}
