// Benchmarks mirroring the paper's evaluation. Each BenchmarkFig* family
// corresponds to one row of Figure 3 (scattered) or Figure 4 (concentrated),
// with sub-benchmarks per minimum support and algorithm; the Ablation*
// families quantify the design choices DESIGN.md calls out. The full
// figure regeneration at paper scale is cmd/benchrun; these run at |D|=1000
// so `go test -bench=. -benchmem` finishes on a laptop.
package pincer

import (
	"fmt"
	"sync"
	"testing"

	"pincer/internal/apriori"
	"pincer/internal/bench"
	"pincer/internal/core"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/parallel"
	"pincer/internal/quest"
	"pincer/internal/rules"
	"pincer/internal/topdown"
)

const benchTransactions = 1000

// must unwraps the (result, error) mining returns; in-memory benchmark
// scans cannot fail.
func must[R any](res R, err error) R {
	if err != nil {
		panic(err)
	}
	return res
}

var (
	benchDBMu sync.Mutex
	benchDBs  = map[string]*dataset.Dataset{}
)

// benchDB caches generated databases across benchmark runs.
func benchDB(b *testing.B, p quest.Params) *dataset.Dataset {
	b.Helper()
	key := fmt.Sprintf("%+v", p)
	benchDBMu.Lock()
	defer benchDBMu.Unlock()
	if d, ok := benchDBs[key]; ok {
		return d
	}
	d := quest.Generate(p)
	benchDBs[key] = d
	return d
}

// benchFigureRow benchmarks both algorithms on one figure row at the given
// supports (a subset of the full sweep keeps `go test -bench=.` tractable;
// cmd/benchrun runs the complete sweeps).
func benchFigureRow(b *testing.B, specID string, supports []float64) {
	spec, ok := bench.SpecByID(specID, benchTransactions)
	if !ok {
		b.Fatalf("unknown spec %s", specID)
	}
	d := benchDB(b, spec.Quest)
	for _, sup := range supports {
		sup := sup
		b.Run(fmt.Sprintf("sup=%g/apriori", sup), func(b *testing.B) {
			opt := apriori.DefaultOptions()
			opt.KeepFrequent = false
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := must(apriori.Mine(dataset.NewScanner(d), sup, opt))
				b.ReportMetric(float64(res.Stats.Passes), "passes")
				b.ReportMetric(float64(res.Stats.Candidates), "candidates")
			}
		})
		b.Run(fmt.Sprintf("sup=%g/pincer", sup), func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.KeepFrequent = false
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := must(core.Mine(dataset.NewScanner(d), sup, opt))
				b.ReportMetric(float64(res.Stats.Passes), "passes")
				b.ReportMetric(float64(res.Stats.Candidates), "candidates")
			}
		})
	}
}

// --- Figure 3: scattered distributions (|L| = 2000) ---

func BenchmarkFig3_T5I2(b *testing.B)  { benchFigureRow(b, "F3-T5I2", []float64{0.0075, 0.0025}) }
func BenchmarkFig3_T10I4(b *testing.B) { benchFigureRow(b, "F3-T10I4", []float64{0.02, 0.005}) }
func BenchmarkFig3_T20I6(b *testing.B) { benchFigureRow(b, "F3-T20I6", []float64{0.02, 0.01}) }

// --- Figure 4: concentrated distributions (|L| = 50) ---

func BenchmarkFig4_T20I6(b *testing.B)  { benchFigureRow(b, "F4-T20I6", []float64{0.18, 0.11}) }
func BenchmarkFig4_T20I10(b *testing.B) { benchFigureRow(b, "F4-T20I10", []float64{0.10, 0.06}) }
func BenchmarkFig4_T20I15(b *testing.B) { benchFigureRow(b, "F4-T20I15", []float64{0.10, 0.08}) }

// --- Ablations ---

// concentratedDB is the shared workload for the ablation benches: long
// maximal itemsets, the regime the paper targets.
func concentratedDB(b *testing.B) *dataset.Dataset {
	return benchDB(b, quest.Params{
		NumTransactions: benchTransactions, AvgTxLen: 20, AvgPatternLen: 10,
		NumPatterns: 50, NumItems: 1000, Seed: 1998,
	})
}

// BenchmarkAblationEngine compares the counting engines (paper §4.1.1 used
// the list; the hash tree and trie are the modern alternatives) on the same
// Apriori run.
func BenchmarkAblationEngine(b *testing.B) {
	d := concentratedDB(b)
	for _, e := range []counting.Engine{counting.EngineList, counting.EngineHashTree, counting.EngineTrie} {
		e := e
		b.Run(e.String(), func(b *testing.B) {
			opt := apriori.DefaultOptions()
			opt.Engine = e
			opt.KeepFrequent = false
			for i := 0; i < b.N; i++ {
				must(apriori.Mine(dataset.NewScanner(d), 0.10, opt))
			}
		})
	}
}

// BenchmarkAblationAdaptive compares pure and adaptive Pincer-Search.
func BenchmarkAblationAdaptive(b *testing.B) {
	d := concentratedDB(b)
	for _, pure := range []bool{false, true} {
		pure := pure
		name := "adaptive"
		if pure {
			name = "pure"
		}
		b.Run(name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.Pure = pure
			opt.KeepFrequent = false
			for i := 0; i < b.N; i++ {
				must(core.Mine(dataset.NewScanner(d), 0.08, opt))
			}
		})
	}
}

// BenchmarkAblationRecovery measures the recovery procedure's value: with
// it disabled the MFCS tail phase must finish the job.
func BenchmarkAblationRecovery(b *testing.B) {
	d := concentratedDB(b)
	for _, disabled := range []bool{false, true} {
		disabled := disabled
		name := "recovery-on"
		if disabled {
			name = "recovery-off"
		}
		b.Run(name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.DisableRecovery = disabled
			opt.KeepFrequent = false
			for i := 0; i < b.N; i++ {
				res := must(core.Mine(dataset.NewScanner(d), 0.08, opt))
				b.ReportMetric(float64(res.Stats.TailPasses), "tailpasses")
			}
		})
	}
}

// BenchmarkAblationMFCSSplitStrategy compares the paper's incremental
// MFCS-gen against the batch (maximal-clique) rebuild on pass 2.
func BenchmarkAblationMFCSSplitStrategy(b *testing.B) {
	d := concentratedDB(b)
	for _, incMax := range []int{0, 1 << 30} {
		name := "clique-rebuild"
		if incMax > 0 {
			name = "incremental"
		}
		incMax := incMax
		b.Run(name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.IncrementalSplitMax = incMax
			opt.KeepFrequent = false
			for i := 0; i < b.N; i++ {
				must(core.Mine(dataset.NewScanner(d), 0.10, opt))
			}
		})
	}
}

// BenchmarkTopDownVsPincer quantifies why the pure top-down direction alone
// is not viable (paper §3.1): even on concentrated data it must creep down
// from the 1000-item universe.
func BenchmarkTopDownVsPincer(b *testing.B) {
	// tiny universe: pure top-down explodes beyond it
	d := benchDB(b, quest.Params{
		NumTransactions: 500, AvgTxLen: 10, AvgPatternLen: 6,
		NumPatterns: 5, NumItems: 24, Seed: 3,
	})
	b.Run("topdown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(topdown.Mine(dataset.NewScanner(d), 0.10, topdown.DefaultOptions()))
		}
	})
	b.Run("pincer", func(b *testing.B) {
		opt := core.DefaultOptions()
		opt.KeepFrequent = false
		for i := 0; i < b.N; i++ {
			core.Mine(dataset.NewScanner(d), 0.10, opt)
		}
	})
}

// BenchmarkParallelPincer sweeps worker counts for count-distribution
// parallel Pincer-Search on the concentrated workload (the regime where
// candidate-heavy passes dominate and parallel counting pays off). The
// first iteration of every setting verifies the parallel result against
// the sequential miner.
func BenchmarkParallelPincer(b *testing.B) {
	d := concentratedDB(b)
	copt := core.DefaultOptions()
	copt.KeepFrequent = false
	seq := must(core.Mine(dataset.NewScanner(d), 0.08, copt))
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(core.Mine(dataset.NewScanner(d), 0.08, copt))
		}
	})
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := copt
			opt.Algorithm = "pincer-parallel"
			for i := 0; i < b.N; i++ {
				opt.Counter = parallel.NewPassCounter(d, workers)
				res := must(core.Mine(dataset.NewScanner(d), 0.08, opt))
				if i == 0 {
					if err := mfi.VerifyAgainst(res.MFS, seq.MFS); err != nil {
						b.Fatalf("workers=%d: %v", workers, err)
					}
					for j := range res.MFSSupports {
						if res.MFSSupports[j] != seq.MFSSupports[j] {
							b.Fatalf("workers=%d: support(%v) = %d, want %d",
								workers, res.MFS[j], res.MFSSupports[j], seq.MFSSupports[j])
						}
					}
					if res.Stats.Passes != seq.Stats.Passes || res.Stats.Candidates != seq.Stats.Candidates {
						b.Fatalf("workers=%d: pass/candidate stats differ: %d/%d vs %d/%d",
							workers, res.Stats.Passes, res.Stats.Candidates,
							seq.Stats.Passes, seq.Stats.Candidates)
					}
				}
			}
		})
	}
}

// BenchmarkQuestGenerate measures the workload generator itself.
func BenchmarkQuestGenerate(b *testing.B) {
	p := quest.Params{NumTransactions: benchTransactions, AvgTxLen: 10, AvgPatternLen: 4, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		quest.Generate(p)
	}
}

// BenchmarkRulesFromMFS measures stage 2 (paper §2.1): subset expansion,
// one counting pass, ap-genrules.
func BenchmarkRulesFromMFS(b *testing.B) {
	d := concentratedDB(b)
	opt := core.DefaultOptions()
	opt.KeepFrequent = false
	res := must(core.Mine(dataset.NewScanner(d), 0.10, opt))
	sc := dataset.NewScanner(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rules.FromMFS(sc, res.MFS, 10, rules.Params{MinConfidence: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountingEngines isolates the per-transaction counting cost. The
// border case counts the shape an incremental maintainer recounts after
// every re-mine: the negative border of the MFS at 20% support on the same
// 1,000-item database, nearly all infrequent singletons, so the trie's root
// holds a key for almost every item and is far wider than any transaction.
// The keys-per-item ratio at which the trie starts galloping through such a
// node is set by internal/counting's BenchmarkTrieWalk, which can force
// either walk.
func BenchmarkCountingEngines(b *testing.B) {
	d := concentratedDB(b)
	res := must(apriori.Mine(dataset.NewScanner(d), 0.10, apriori.DefaultOptions()))
	var cands []Itemset
	res.Frequent.Each(func(x Itemset, _ int64) {
		if len(x) == 3 {
			cands = append(cands, x)
		}
	})
	if len(cands) == 0 {
		b.Skip("no 3-itemsets at this support")
	}
	for _, e := range []counting.Engine{counting.EngineList, counting.EngineHashTree, counting.EngineTrie} {
		e := e
		b.Run(fmt.Sprintf("%s/cands=%d", e, len(cands)), func(b *testing.B) {
			ctr := counting.NewCounter(e, cands)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, tx := range d.Transactions() {
					ctr.Add(tx)
				}
			}
		})
	}
	mfs := must(core.Mine(dataset.NewScanner(d), 0.20, core.DefaultOptions())).MFS
	border := mfi.NegativeBorder(itemset.Range(0, itemset.Item(d.NumItems())), mfi.Expand(mfs, 0))
	b.Run(fmt.Sprintf("trie/border=%d", len(border)), func(b *testing.B) {
		ctr := counting.NewTrie(border)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, tx := range d.Transactions() {
				ctr.Add(tx)
			}
		}
	})
}

// BenchmarkPassCounters compares the two support-counting strategies on a
// whole concentrated-mine: horizontal scanning vs vertical tid-list
// intersection in each representation mode. The tid-list counter is rebuilt
// every iteration so its index construction is charged honestly.
func BenchmarkPassCounters(b *testing.B) {
	d := concentratedDB(b)
	run := func(b *testing.B, mk func() *counting.TidListCounter) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opt := core.DefaultOptions()
			opt.KeepFrequent = false
			if mk != nil {
				opt.Counter = mk()
			}
			res := must(core.Mine(dataset.NewScanner(d), 0.10, opt))
			b.ReportMetric(float64(res.Stats.Candidates), "candidates")
		}
	}
	b.Run("scan", func(b *testing.B) { run(b, nil) })
	for _, m := range []struct {
		name string
		rep  counting.RepMode
	}{{"tidlist-auto", counting.RepAuto}, {"tidlist-bitset", counting.RepBitset},
		{"tidlist-list", counting.RepList}, {"tidlist-diffset", counting.RepDiffset}} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			run(b, func() *counting.TidListCounter {
				return counting.NewTidListCounter(d, counting.TidListOptions{Rep: m.rep})
			})
		})
	}
}
