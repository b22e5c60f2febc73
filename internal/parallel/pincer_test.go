package parallel

import (
	"strconv"
	"testing"

	"pincer/internal/core"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/quest"
)

// comparePincerResults asserts the full observable equivalence the
// count-distribution argument promises: identical MFS (order and supports),
// identical frequent set, and identical per-pass candidate accounting.
func comparePincerResults(t *testing.T, label string, par, seq *mfi.Result) {
	t.Helper()
	if len(par.MFS) != len(seq.MFS) {
		t.Fatalf("%s: |MFS| = %d, want %d", label, len(par.MFS), len(seq.MFS))
	}
	for i := range seq.MFS {
		if !par.MFS[i].Equal(seq.MFS[i]) {
			t.Fatalf("%s: MFS[%d] = %v, want %v", label, i, par.MFS[i], seq.MFS[i])
		}
		if par.MFSSupports[i] != seq.MFSSupports[i] {
			t.Fatalf("%s: support(%v) = %d, want %d", label, seq.MFS[i], par.MFSSupports[i], seq.MFSSupports[i])
		}
	}
	if (par.Frequent == nil) != (seq.Frequent == nil) {
		t.Fatalf("%s: frequent-set presence differs", label)
	}
	if seq.Frequent != nil {
		if par.Frequent.Len() != seq.Frequent.Len() {
			t.Fatalf("%s: |frequent| = %d, want %d", label, par.Frequent.Len(), seq.Frequent.Len())
		}
		seq.Frequent.Each(func(x itemset.Itemset, c int64) {
			if got, ok := par.Frequent.Count(x); !ok || got != c {
				t.Fatalf("%s: frequent support(%v) = %d,%v want %d", label, x, got, ok, c)
			}
		})
	}
	ps, ss := par.Stats, seq.Stats
	if ps.Passes != ss.Passes || ps.Candidates != ss.Candidates ||
		ps.MFCSCandidates != ss.MFCSCandidates || ps.TailPasses != ss.TailPasses ||
		ps.FrequentCount != ss.FrequentCount || ps.AdaptiveOff != ss.AdaptiveOff {
		t.Fatalf("%s: stats differ: parallel %+v, sequential %+v", label, ps, ss)
	}
	for i, pp := range ps.PassDetails {
		sp := ss.PassDetails[i]
		if pp != sp {
			t.Fatalf("%s: pass %d stats = %+v, want %+v", label, i+1, pp, sp)
		}
	}
}

// pincerWorkload is one quest-generated property-test case.
type pincerWorkload struct {
	params  quest.Params
	support float64
}

// pincerWorkloads builds the 12-workload matrix shared by the parallel
// count-distribution property test and the tid-list counter property test.
func pincerWorkloads() []pincerWorkload {
	var workloads []pincerWorkload
	// concentrated shapes (few patterns, long maximal itemsets) — the
	// paper's Figure-4 regime where the MFCS does the work
	for seed := int64(1); seed <= 5; seed++ {
		workloads = append(workloads, pincerWorkload{quest.Params{
			NumTransactions: 300 + 40*int(seed), AvgTxLen: 14, AvgPatternLen: 7,
			NumPatterns: 15, NumItems: 60, Seed: seed,
		}, 0.10})
	}
	// scattered shapes (many patterns, short maximal itemsets) — the
	// Figure-3 regime dominated by bottom-up counting
	for seed := int64(6); seed <= 10; seed++ {
		workloads = append(workloads, pincerWorkload{quest.Params{
			NumTransactions: 300 + 40*int(seed), AvgTxLen: 8, AvgPatternLen: 3,
			NumPatterns: 80, NumItems: 100, Seed: seed,
		}, 0.03})
	}
	// small dense edge shape: high support, tiny universe
	workloads = append(workloads,
		pincerWorkload{quest.Params{NumTransactions: 120, AvgTxLen: 6, AvgPatternLen: 4,
			NumPatterns: 5, NumItems: 12, Seed: 11}, 0.25},
		pincerWorkload{quest.Params{NumTransactions: 200, AvgTxLen: 10, AvgPatternLen: 5,
			NumPatterns: 10, NumItems: 30, Seed: 12}, 0.08},
	)
	return workloads
}

// TestMinePincerMatchesSequential is the count-distribution property test:
// across quest-generated workloads of both distribution shapes and across
// worker counts, parallel Pincer-Search reports results byte-identical to
// the sequential miner.
func TestMinePincerMatchesSequential(t *testing.T) {
	for _, wl := range pincerWorkloads() {
		d := quest.Generate(wl.params)
		copt := core.DefaultOptions()
		seq := must(core.Mine(dataset.NewScanner(d), wl.support, copt))
		for _, workers := range []int{1, 2, 4, 7} {
			par := minePincer(d, wl.support, copt, workers)
			label := wl.params.Name()
			comparePincerResults(t, label+"/workers="+strconv.Itoa(workers), par, seq)
			if par.Stats.Algorithm != "pincer-parallel" {
				t.Errorf("algorithm = %q", par.Stats.Algorithm)
			}
		}
	}
}

func TestMinePincerKeepFrequentOff(t *testing.T) {
	d := quest.Generate(quest.Params{
		NumTransactions: 200, AvgTxLen: 10, AvgPatternLen: 5,
		NumPatterns: 10, NumItems: 40, Seed: 3,
	})
	copt := core.DefaultOptions()
	copt.KeepFrequent = false
	par := minePincer(d, 0.08, copt, 3)
	if par.Frequent != nil {
		t.Error("Frequent retained with KeepFrequent=false")
	}
	seq := must(core.Mine(dataset.NewScanner(d), 0.08, copt))
	comparePincerResults(t, "keepfrequent-off", par, seq)
}

func TestMinePincerPure(t *testing.T) {
	// The pure (non-adaptive) variant exercises unlimited MFCS maintenance
	// through the same seam.
	d := quest.Generate(quest.Params{
		NumTransactions: 250, AvgTxLen: 12, AvgPatternLen: 6,
		NumPatterns: 12, NumItems: 50, Seed: 9,
	})
	copt := core.DefaultOptions()
	copt.Pure = true
	seq := must(core.Mine(dataset.NewScanner(d), 0.10, copt))
	par := minePincer(d, 0.10, copt, 4)
	comparePincerResults(t, "pure", par, seq)
}

func TestMinePincerEdgeCases(t *testing.T) {
	// empty database
	res := minePincer(dataset.Empty(5), 0.5, core.DefaultOptions(), 0)
	if len(res.MFS) != 0 {
		t.Errorf("empty MFS = %v", res.MFS)
	}
	// fewer transactions than workers
	d := dataset.New([]dataset.Transaction{itemset.New(1, 2), itemset.New(1, 2)})
	res = minePincer(d, 1.0, core.DefaultOptions(), 16)
	if err := mfi.VerifyAgainst(res.MFS, []itemset.Itemset{itemset.New(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if res.MFSSupports[0] != 2 {
		t.Errorf("support = %d", res.MFSSupports[0])
	}
	// explicit count threshold
	copt := core.DefaultOptions()
	copt.Counter = NewPassCounter(d, 16)
	res = must(core.MineCount(dataset.NewScanner(d), 2, copt))
	if err := mfi.VerifyAgainst(res.MFS, []itemset.Itemset{itemset.New(1, 2)}); err != nil {
		t.Fatal(err)
	}
}

// TestTidListCounterMatchesScan is the representation-agreement property
// test: across the same 12-workload matrix, the pincer miner counted by
// tid-structure intersection — in every representation mode, serial and
// parallel — reports results byte-identical to the scan-counted miner,
// including per-pass candidate accounting. It also covers the injected
// Counter path of the parallel driver.
func TestTidListCounterMatchesScan(t *testing.T) {
	modes := []struct {
		name string
		opt  counting.TidListOptions
	}{
		{"auto-w1", counting.TidListOptions{Workers: 1}},
		{"auto-w4", counting.TidListOptions{Workers: 4}},
		{"bitset", counting.TidListOptions{Workers: 1, Rep: counting.RepBitset}},
		{"list", counting.TidListOptions{Workers: 1, Rep: counting.RepList}},
		{"diffset", counting.TidListOptions{Workers: 1, Rep: counting.RepDiffset}},
	}
	for _, wl := range pincerWorkloads() {
		d := quest.Generate(wl.params)
		minCount := dataset.MinCountFor(d.Len(), wl.support)
		seq := must(core.MineCount(dataset.NewScanner(d), minCount, core.DefaultOptions()))
		label := wl.params.Name()
		for _, m := range modes {
			copt := core.DefaultOptions()
			copt.Counter = counting.NewTidListCounter(d, m.opt)
			got := must(core.MineCount(dataset.NewScanner(d), minCount, copt))
			comparePincerResults(t, label+"/tidlist-"+m.name, got, seq)
		}
		// Same counter at two workers under the parallel label, as pincerd's
		// parallel miner runs it when tid-list counting is asked for.
		copt := core.DefaultOptions()
		copt.Algorithm = "pincer-parallel"
		copt.Counter = counting.NewTidListCounter(d, counting.TidListOptions{Workers: 2})
		par := must(core.MineCount(dataset.NewScanner(d), minCount, copt))
		comparePincerResults(t, label+"/tidlist-parallel-w2", par, seq)
	}
}
