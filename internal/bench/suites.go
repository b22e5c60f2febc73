package bench

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"time"

	"pincer/internal/ais"
	"pincer/internal/apriori"
	"pincer/internal/cluster"
	"pincer/internal/core"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/fpmax"
	"pincer/internal/incremental"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/parallel"
	"pincer/internal/partition"
	"pincer/internal/quest"
	"pincer/internal/randmax"
	"pincer/internal/sampling"
	"pincer/internal/topdown"
	"pincer/internal/vertical"
)

// Suite is one comparison the harness runs: its databases and supports,
// how it measures a reference against its variants, and the gates it adds
// to agree.
type Suite struct {
	Name  string
	Title string
	// Ratio names what each cell's ratio divides: reference seconds over
	// variant seconds.
	Ratio string
	// Specs are the suite's databases. Supports, when non-nil, replace
	// each spec's own support sweep.
	Specs    []Spec
	Supports []float64
	// Repeats is the suite's default number of replays.
	Repeats int
	run     func(e *env, emit func(Cell))
	gates   []func([]Cell) Gate
}

// The suites' workload constants.
const (
	// streamBatchTx is the stream suites' batch size in transactions.
	streamBatchTx = 500
	// engineDatasets is the length of the engines suite's density ladder.
	engineDatasets = 6
)

// sweepWorkers are the worker counts of the parallel, cluster and
// stream-cluster suites.
var sweepWorkers = []int{1, 2, 4}

// Suites returns the suite table with numTx transactions per database
// (0: each suite's own size).
func Suites(numTx int) []Suite {
	size := func(own int) int {
		if numTx > 0 {
			return numTx
		}
		return own
	}
	f4 := func(own int) []Spec {
		s, _ := SpecByID("F4-T20I10", size(own))
		return []Spec{s}
	}
	return []Suite{
		{
			Name: "figures", Title: "Apriori vs Pincer-Search on the paper's databases (Figures 3 and 4)",
			Ratio: "apriori_over_pincer_time", Specs: AllSpecs(size(10_000)), Repeats: 1,
			run: runFigures,
		},
		{
			Name: "baselines", Title: "every other miner vs Apriori (§5's baselines)",
			Ratio: "apriori_over_variant_time", Specs: f4(10_000), Supports: []float64{0.06}, Repeats: 1,
			run: runBaselines,
		},
		{
			Name: "parallel", Title: "sequential vs count-distribution Pincer-Search",
			Ratio: parallelRatio(runtime.NumCPU()), Specs: f4(10_000), Supports: []float64{0.06}, Repeats: 3,
			run: runWorkers(parallelVariant),
		},
		{
			Name: "vertical", Title: "scan vs tid-list counting of Pincer-Search",
			Ratio: "scan_over_tidlist_time", Specs: f4(10_000), Repeats: 3,
			run: runVertical,
		},
		{
			Name: "cluster", Title: "sequential vs distributed Pincer-Search over loopback workers",
			Ratio: "sequential_over_cluster_time", Specs: f4(2000), Supports: []float64{0.06}, Repeats: 3,
			run: runWorkers(clusterVariant), gates: []func([]Cell) Gate{notDegraded},
		},
		{
			Name: "engines", Title: "every fixed engine plan vs the adaptive engine=auto choice on a rising-density ladder",
			Ratio: "fixed_over_auto_time", Specs: engineSpecs(size(1000)), Supports: []float64{0.05, 0.15}, Repeats: 3,
			run: runEngines, gates: []func([]Cell) Gate{autoNeverWorst, autoBeatsBestFixedSum},
		},
		{
			Name: "stream", Title: "from-scratch Pincer-Search vs the incremental maintainer's delta, batch by batch",
			Ratio: "scratch_over_delta_time", Specs: f4(10_000), Supports: []float64{0.2}, Repeats: 3,
			run: runStream, gates: []func([]Cell) Gate{fastPath},
		},
		{
			Name: "stream-cluster", Title: "single-node vs cluster-backed incremental maintainer over loopback workers",
			Ratio: "local_over_cluster_time", Specs: f4(10_000), Supports: []float64{0.2}, Repeats: 3,
			run: runStreamCluster, gates: []func([]Cell) Gate{notDegraded},
		},
	}
}

// SuiteByName finds a suite of Suites(numTx) by name.
func SuiteByName(name string, numTx int) (Suite, bool) {
	for _, s := range Suites(numTx) {
		if s.Name == name {
			return s, true
		}
	}
	return Suite{}, false
}

// parallelRatio names the parallel suite's ratio: a speedup only where a
// second CPU can make one. On one CPU every "parallel" run is a
// time-sliced sequential run, and the ratio is named for what it divides.
func parallelRatio(cpus int) string {
	if cpus > 1 {
		return "speedup"
	}
	return "sequential_over_parallel_time"
}

// runFigures is the paper's §4 comparison: Apriori against Pincer-Search
// at every support of every spec. Once an algorithm fails or exceeds the
// budget on a cell, its remaining (harder) cells of that spec are skipped.
func runFigures(e *env, emit func(Cell)) {
	var spec string
	var dead map[string]error // why each algorithm stopped, carried to its harder cells
	e.each(func(s Spec, d *dataset.Dataset, sup float64) {
		if s.ID != spec {
			spec, dead = s.ID, map[string]error{}
		}
		if r := e.stopped(); r != "" {
			emit(skipped(s, sup, "", r))
			return
		}
		side := func(name string, f func() trial) trial {
			if err, ok := dead[name]; ok {
				return trial{Measure: Measure{Name: name}, err: err}
			}
			r := f()
			switch {
			case r.err != nil:
				dead[name] = fmt.Errorf("after %w", r.err)
			case e.Budget > 0 && r.Seconds > e.Budget.Seconds():
				dead[name] = limitErr(fmt.Sprintf("exceeded the %v budget at %s", e.Budget, fmtSup(sup)))
			}
			return r
		}
		ref := side("apriori", func() trial { return e.apriori(d, sup) })
		v := side("pincer", func() trial {
			if e.Counter != "tidlist" {
				return e.pincer("pincer", d, sup, nil)
			}
			return e.pincer("pincer-tidlist", d, sup, func() (core.PassCounter, error) {
				return counting.NewTidListCounter(d, counting.TidListOptions{Rep: e.CounterRep}), nil
			})
		})
		emit(e.cell(s, sup, "", ref, v, false))
	})
}

// baselines are the variants of the baselines suite. Each returns its
// timed run and, when the run cannot be held to the exact answer, why.
var baselines = []struct {
	name string
	mine func(e *env, d *dataset.Dataset, sup float64) (trial, string)
}{
	{"pincer", func(e *env, d *dataset.Dataset, sup float64) (trial, string) {
		return e.pincer("pincer", d, sup, nil), ""
	}},
	{"apriori+combine", func(e *env, d *dataset.Dataset, sup float64) (trial, string) {
		return timed("apriori+combine", func() (*mfi.Result, error) {
			opt := apriori.Options{Engine: e.Engine, CombineLevels: true, Context: e.Context}
			return apriori.Mine(dataset.NewScanner(d), sup, opt)
		}), ""
	}},
	{"ais", func(e *env, d *dataset.Dataset, sup float64) (trial, string) {
		inexact := ""
		r := timed("ais", func() (*mfi.Result, error) {
			res, err := ais.Mine(dataset.NewScanner(d), sup, ais.Options{MaxCandidatesPerPass: 5_000_000})
			if err != nil {
				return nil, err
			}
			if res.Aborted {
				inexact = "aborted: candidate explosion"
			}
			return &res.Result, nil
		})
		return r, inexact
	}},
	{"partition", func(e *env, d *dataset.Dataset, sup float64) (trial, string) {
		r := timed("partition", func() (*mfi.Result, error) {
			return partition.Mine(d, sup, partition.Options{NumPartitions: 4, Engine: e.Engine}), nil
		})
		r.Detail = "4 partitions"
		return r, ""
	}},
	{"sampling", func(e *env, d *dataset.Dataset, sup float64) (trial, string) {
		var res *sampling.Result
		r := timed("sampling", func() (*mfi.Result, error) {
			res = sampling.Mine(d, sup, sampling.Options{LowerFactor: 0.8, Engine: e.Engine, Seed: 7})
			return &res.Result, nil
		})
		r.Detail = fmt.Sprintf("%d border misses, %d expansions", res.BorderMisses, res.Expansions)
		return r, ""
	}},
	{"eclat", func(e *env, d *dataset.Dataset, sup float64) (trial, string) {
		return timed("eclat", func() (*mfi.Result, error) {
			return vertical.Eclat(d, sup, vertical.Options{}), nil
		}), ""
	}},
	{"maxeclat", func(e *env, d *dataset.Dataset, sup float64) (trial, string) {
		var res *vertical.Result
		r := timed("maxeclat", func() (*mfi.Result, error) {
			res = vertical.MineMaximal(d, sup, vertical.Options{})
			return &res.Result, nil
		})
		r.Detail = fmt.Sprintf("%d intersections", res.Intersections)
		return r, ""
	}},
	{"randmax", func(e *env, d *dataset.Dataset, sup float64) (trial, string) {
		var res *randmax.Result
		r := timed("randmax", func() (*mfi.Result, error) {
			res = randmax.Mine(d, sup, randmax.Options{Patience: 128, Seed: 7})
			return &res.Result, nil
		})
		r.Detail = fmt.Sprintf("%d walks", res.Walks)
		return r, "probabilistic"
	}},
	{"topdown", func(e *env, d *dataset.Dataset, sup float64) (trial, string) {
		// The pure top-down frontier explodes on any universe wider than a
		// few dozen items (that is §3.1's point); a tight budget makes the
		// comparison report the abort rather than hang.
		inexact := ""
		r := timed("topdown", func() (*mfi.Result, error) {
			opt := topdown.Options{MaxElements: 20_000, MaxPasses: 16, Context: e.Context}
			res, err := topdown.Mine(dataset.NewScanner(d), sup, opt)
			if err != nil {
				return nil, err
			}
			if res.Aborted {
				inexact = "aborted: frontier explosion"
			}
			return &res.Result, nil
		})
		return r, inexact
	}},
}

// runBaselines puts numbers on §5's qualitative comparison: every other
// miner in the repository against Apriori on one database and support.
func runBaselines(e *env, emit func(Cell)) {
	e.each(func(s Spec, d *dataset.Dataset, sup float64) {
		var ref trial
		for i, b := range baselines {
			if r := e.stopped(); r != "" {
				emit(skipped(s, sup, b.name, r))
				continue
			}
			if i == 0 {
				ref = e.apriori(d, sup)
			}
			if ref.err != nil {
				emit(e.cell(s, sup, b.name, ref, trial{}, false))
				continue
			}
			v, inexact := b.mine(e, d, sup)
			c := e.cell(s, sup, b.name, ref, v, false)
			c.Inexact = inexact
			emit(c)
		}
	})
}

// runWorkers compares sequential Pincer-Search with a variant of it at
// each of sweepWorkers. The variant returns its run and whether it
// degraded.
func runWorkers(variant func(e *env, d *dataset.Dataset, sup float64, workers int) (trial, bool)) func(*env, func(Cell)) {
	return func(e *env, emit func(Cell)) {
		e.each(func(s Spec, d *dataset.Dataset, sup float64) {
			var ref *trial
			for _, w := range sweepWorkers {
				key := fmt.Sprintf("workers=%d", w)
				if r := e.stopped(); r != "" {
					emit(skipped(s, sup, key, r))
					continue
				}
				if ref == nil {
					r := e.pincer("pincer", d, sup, nil)
					ref = &r
				}
				if ref.err != nil {
					emit(e.cell(s, sup, key, *ref, trial{}, true))
					continue
				}
				v, degraded := variant(e, d, sup, w)
				c := e.cell(s, sup, key, *ref, v, true)
				c.Degraded = degraded
				emit(c)
			}
		})
	}
}

// parallelVariant counts each pass over workers goroutines, each scanning
// its own horizontal partition.
func parallelVariant(e *env, d *dataset.Dataset, sup float64, workers int) (trial, bool) {
	return e.pincer("pincer-parallel", d, sup, func() (core.PassCounter, error) {
		return parallel.NewPassCounter(d, workers), nil
	}), false
}

// clusterVariant counts each pass over a pool of loopback cluster workers.
// The pool is booted off the clock; the coordinator, which shards the
// database and pushes the shards, is built on it.
func clusterVariant(e *env, d *dataset.Dataset, sup float64, workers int) (trial, bool) {
	pool, err := e.pool(workers)
	if err != nil {
		return trial{Measure: Measure{Name: "pincer-cluster"}, err: err}, false
	}
	var coord *cluster.Coordinator
	r := e.pincer("pincer-cluster", d, sup, func() (core.PassCounter, error) {
		var err error
		coord, err = cluster.NewCoordinator(e.jobID(), d, pool, nil)
		return coord, err
	})
	if coord == nil {
		return r, false
	}
	doc := coord.Doc()
	r.Detail = fmt.Sprintf("%d shards, %d RPCs", doc.Shards, doc.RPCs)
	return r, doc.Degraded
}

// runVertical compares scan counting with tid-list counting of the same
// Pincer-Search run; the tid-list index is built on the clock.
func runVertical(e *env, emit func(Cell)) {
	e.each(func(s Spec, d *dataset.Dataset, sup float64) {
		if r := e.stopped(); r != "" {
			emit(skipped(s, sup, "", r))
			return
		}
		ref := e.pincer("pincer-scan", d, sup, nil)
		var tl *counting.TidListCounter
		v := e.pincer("pincer-tidlist", d, sup, func() (core.PassCounter, error) {
			tl = counting.NewTidListCounter(d, counting.TidListOptions{Workers: 1, Rep: e.CounterRep})
			return tl, nil
		})
		if tl != nil {
			st := tl.TakeIntersections()
			v.Detail = fmt.Sprintf("%d intersections, %s", st.Total, st.Label())
		}
		emit(e.cell(s, sup, "", ref, v, true))
	})
}

// EngineSweepDatasets returns the rising-density ladder: pattern pools
// shrink and transactions lengthen as the index grows, sweeping
// sparse-scattered (many short patterns over a wide universe) to
// dense-concentrated (a handful of long patterns over a narrow one). It
// mirrors the engine-invariance property test's corpus so the committed
// BENCH_engines.json calibrates exactly the workloads the test pins.
func EngineSweepDatasets(numTx, n int) []quest.Params {
	if numTx <= 0 {
		numTx = 2000
	}
	out := make([]quest.Params, n)
	for i := range out {
		items := 600 - 104*i
		if items < 80 {
			items = 80
		}
		patterns := 90 - 16*i
		if patterns < 6 {
			patterns = 6
		}
		out[i] = quest.Params{
			NumTransactions: numTx,
			AvgTxLen:        float64(5 + 2*i),
			AvgPatternLen:   float64(2 + i/2),
			NumPatterns:     patterns,
			NumItems:        items,
			Seed:            int64(100 + i),
		}
	}
	return out
}

func engineSpecs(numTx int) []Spec {
	var out []Spec
	for _, p := range EngineSweepDatasets(numTx, engineDatasets) {
		out = append(out, Spec{ID: p.Name(), Quest: p})
	}
	return out
}

// enginePlans are the fixed plans the adaptive policy competes against:
// every sequential miner it can select, plus the scan baseline it must
// beat on dense data.
var enginePlans = []struct {
	name string
	sel  counting.Selection
}{
	{"apriori", counting.Selection{Algorithm: "apriori", Engine: counting.EngineHashTree}},
	{"pincer-scan", counting.Selection{Algorithm: "pincer", Engine: counting.EngineHashTree}},
	{"pincer-tidlist", counting.Selection{Algorithm: "pincer", Counter: "tidlist", Engine: counting.EngineHashTree}},
	{"vertical", counting.Selection{Algorithm: "vertical"}},
	{"fpmax", counting.Selection{Algorithm: "fpmax"}},
}

// runPlan executes one Selection on a dataset — the same dispatch the
// server performs for a resolved plan.
func runPlan(d *dataset.Dataset, minsup float64, sel counting.Selection) (*mfi.Result, error) {
	minCount := d.MinCount(minsup)
	switch sel.Algorithm {
	case "pincer":
		opt := core.DefaultOptions()
		opt.Engine = sel.Engine
		opt.KeepFrequent = false
		if sel.Counter == "tidlist" {
			opt.Counter = counting.NewTidListCounter(d, counting.TidListOptions{})
		}
		return core.MineCount(dataset.NewScanner(d), minCount, opt)
	case "apriori":
		opt := apriori.DefaultOptions()
		opt.Engine = sel.Engine
		opt.KeepFrequent = false
		return apriori.MineCount(dataset.NewScanner(d), minCount, opt)
	case "vertical":
		opt := vertical.DefaultOptions()
		opt.KeepFrequent = false
		return &vertical.MineMaximal(d, minsup, opt).Result, nil
	case "fpmax":
		return &fpmax.MineMaximalCount(d, minCount, fpmax.DefaultOptions()).Result, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", sel.Algorithm)
}

// runEngines times every fixed plan and the adaptive choice on each
// dataset and support. Auto's time includes profiling the dataset and
// evaluating the policy, not just the mine.
func runEngines(e *env, emit func(Cell)) {
	e.each(func(s Spec, d *dataset.Dataset, sup float64) {
		if r := e.stopped(); r != "" {
			for _, p := range enginePlans {
				emit(skipped(s, sup, p.name, r))
			}
			return
		}
		fixed := make([]trial, len(enginePlans))
		for i, p := range enginePlans {
			fixed[i] = timed(p.name, func() (*mfi.Result, error) { return runPlan(d, sup, p.sel) })
		}
		var sel counting.Selection
		auto := timed("auto", func() (*mfi.Result, error) {
			sel = counting.SelectEngine(d.Profile())
			return runPlan(d, sup, sel)
		})
		plan := sel.Algorithm
		if sel.Counter != "" {
			plan += "+" + sel.Counter
		}
		auto.Detail = "chose " + plan + ": " + sel.Rationale
		for i, p := range enginePlans {
			emit(e.cell(s, sup, p.name, fixed[i], auto, false))
		}
	})
}

// engineGroups splits the engines suite's cells into its fully measured
// (dataset, support) groups, one cell per fixed plan.
func engineGroups(cells []Cell) [][]Cell {
	var out [][]Cell
	for at := 0; at+len(enginePlans) <= len(cells); at += len(enginePlans) {
		g := cells[at : at+len(enginePlans)]
		if !slices.ContainsFunc(g, func(c Cell) bool { return !c.measured() }) {
			out = append(out, g)
		}
	}
	return out
}

// autoNeverWorst fails when the adaptive choice was slower than every
// fixed plan on some dataset and support. 10% + 2 ms of slack absorbs
// scheduler noise on these short cells without masking a wrong choice.
func autoNeverWorst(cells []Cell) Gate {
	groups := engineGroups(cells)
	var bad []string
	for _, g := range groups {
		worst := 0.0
		for _, c := range g {
			worst = max(worst, c.Reference.Seconds)
		}
		if auto := g[0].Variant.Seconds; auto > worst*1.10+0.002 {
			bad = append(bad, fmt.Sprintf("%s %s: auto %.4fs, slowest fixed plan %.4fs",
				g[0].Dataset, fmtSup(g[0].Support), auto, worst))
		}
	}
	if len(bad) > 0 {
		return Gate{Name: "auto_never_worst", Detail: strings.Join(bad, "; ")}
	}
	return Gate{Name: "auto_never_worst", Pass: true,
		Detail: fmt.Sprintf("auto was never the slowest plan on %d datasets × supports", len(groups))}
}

// autoBeatsBestFixedSum fails unless the adaptive choice's total time
// over the sweep beats the total of the best single fixed plan: the
// policy must pay for itself.
func autoBeatsBestFixedSum(cells []Cell) Gate {
	groups := engineGroups(cells)
	if len(groups) == 0 {
		return Gate{Name: "auto_beats_best_fixed_sum", Pass: true, Detail: "no cell measured"}
	}
	sums := make([]float64, len(enginePlans))
	auto := 0.0
	for _, g := range groups {
		auto += g[0].Variant.Seconds
		for i, c := range g {
			sums[i] += c.Reference.Seconds
		}
	}
	best := 0
	parts := make([]string, len(enginePlans))
	for i, p := range enginePlans {
		if sums[i] < sums[best] {
			best = i
		}
		parts[i] = fmt.Sprintf("%s %.4fs", p.name, sums[i])
	}
	return Gate{Name: "auto_beats_best_fixed_sum", Pass: auto < sums[best], Detail: fmt.Sprintf(
		"auto %.4fs vs best fixed plan %s %.4fs, summed over %d datasets × supports (%s)",
		auto, enginePlans[best].name, sums[best], len(groups), strings.Join(parts, ", "))}
}

// runStream streams each database into an incremental maintainer, batch by
// batch, and prices every delta against a from-scratch Pincer-Search mine
// of the same prefix.
func runStream(e *env, emit func(Cell)) {
	e.each(func(s Spec, d *dataset.Dataset, sup float64) {
		bs := batches(d)
		seq := func(i int) string { return fmt.Sprintf("seq=%d", i+1) }
		done := 0
		r := e.replay("maintainer", bs, e.maintainer(sup), func(i int, mt *incremental.Maintainer, delta incremental.Delta, took float64) {
			v := trial{Measure: Measure{Name: "fast-path", Seconds: took}, res: answer(mt)}
			v.MFSSize, v.LongestMFS = len(v.res.MFS), v.res.LongestMFS()
			v.Detail = fmt.Sprintf("|D|=%d, %d checked", delta.Transactions, delta.Checked)
			if delta.Remined {
				v.Name, v.Detail = "re-mine", v.Detail+", "+delta.Reason
			}
			emit(e.cell(s, sup, seq(i), e.pincer("pincer", mt.Dataset(), sup, nil), v, false))
			done++
		})
		// A stream that stopped reports why on every batch it did not reach.
		for i := done; i < len(bs); i++ {
			emit(e.cell(s, sup, seq(i), trial{}, r, false))
		}
	})
}

// runStreamCluster replays each stream into a single-node maintainer and
// into a cluster-backed one over loopback workers at each of
// sweepWorkers. Every delta's border check and every re-mine pass fans
// out over the pool, and the clustered answer is checked after every
// batch.
func runStreamCluster(e *env, emit func(Cell)) {
	e.each(func(s Spec, d *dataset.Dataset, sup float64) {
		bs := batches(d)
		var want []*mfi.Result
		ref := e.replay("local", bs, e.maintainer(sup), func(_ int, mt *incremental.Maintainer, _ incremental.Delta, _ float64) {
			want = append(want, answer(mt))
		})
		for _, w := range sweepWorkers {
			key := fmt.Sprintf("workers=%d", w)
			if r := e.stopped(); r != "" {
				emit(skipped(s, sup, key, r))
				continue
			}
			if ref.err != nil {
				emit(e.cell(s, sup, key, ref, trial{}, false))
				continue
			}
			pool, err := e.pool(w)
			if err != nil {
				emit(e.cell(s, sup, key, ref, trial{Measure: Measure{Name: "cluster"}, err: err}, false))
				continue
			}
			id := e.jobID()
			sc := cluster.NewStreamCoordinator(id, pool, nil)
			var coords []*cluster.Coordinator
			opt := e.maintainer(sup)
			opt.DeltaCounter = func(seq int64, side string, d *dataset.Dataset, sets []itemset.Itemset) []int64 {
				return sc.CountSets(seq, side, d, sets)
			}
			opt.MineCounter = func(seq int64, d *dataset.Dataset) core.PassCounter {
				coord, err := cluster.NewCoordinator(fmt.Sprintf("%s.b%d", id, seq), d, pool, nil)
				if err != nil {
					return nil // the maintainer counts locally, with the same answers
				}
				coords = append(coords, coord)
				return coord
			}
			agreed, degraded, rpcs := true, false, int64(0)
			v := e.replay("cluster", bs, opt, func(i int, mt *incremental.Maintainer, _ incremental.Delta, _ float64) {
				doc := sc.TakeDoc()
				rpcs, degraded = rpcs+doc.RPCs, degraded || doc.Degraded
				for _, c := range coords {
					doc := c.Doc()
					rpcs, degraded = rpcs+doc.RPCs, degraded || doc.Degraded
				}
				coords = coords[:0]
				agreed = agreed && agree(want[i], answer(mt), false)
			})
			v.Detail += fmt.Sprintf(", %d RPCs", rpcs)
			c := e.cell(s, sup, key, ref, v, false)
			c.Agree = c.Agree && agreed
			c.Degraded = degraded
			emit(c)
		}
	})
}

// batches slices a database into the stream suites' batches.
func batches(d *dataset.Dataset) [][]dataset.Transaction {
	txs := d.Transactions()
	var out [][]dataset.Transaction
	for at := 0; at < len(txs); at += streamBatchTx {
		out = append(out, txs[at:min(at+streamBatchTx, len(txs))])
	}
	return out
}

func (e *env) maintainer(sup float64) incremental.Options {
	return incremental.Options{MinSupport: sup, Counter: e.Counter, Workers: 1, Context: e.Context}
}

// answer is a maintainer's current MFS and supports.
func answer(mt *incremental.Maintainer) *mfi.Result {
	return &mfi.Result{MFS: slices.Clone(mt.MFS()), MFSSupports: slices.Clone(mt.MFSSupports())}
}

// replay appends every batch to a fresh maintainer under the wall clock,
// calling after with each batch's delta and time. The run's seconds are
// the summed Appends and its answer the final MFS.
func (e *env) replay(name string, bs [][]dataset.Transaction, opt incremental.Options,
	after func(i int, mt *incremental.Maintainer, delta incremental.Delta, took float64)) trial {
	r := trial{Measure: Measure{Name: name}}
	mt, err := incremental.New(opt)
	if err != nil {
		r.err = err
		return r
	}
	remines := 0
	for i, b := range bs {
		if err := e.Context.Err(); err != nil {
			r.err = err
			return r
		}
		start := time.Now()
		delta, err := mt.Append(b)
		took := time.Since(start).Seconds()
		if err != nil {
			r.err = fmt.Errorf("seq %d: %w", i+1, err)
			return r
		}
		r.Seconds += took
		if delta.Remined {
			remines++
		}
		after(i, mt, delta, took)
	}
	r.res = answer(mt)
	r.MFSSize, r.LongestMFS = len(r.res.MFS), r.res.LongestMFS()
	r.Detail = fmt.Sprintf("%d batches, %d re-mines", len(bs), remines)
	return r
}

// notDegraded fails when a cluster run fell below quorum and counted
// locally: loopback workers never go away, so a degraded run means the
// cluster path broke.
func notDegraded(cells []Cell) Gate {
	var bad []string
	for _, c := range cells {
		if c.Degraded {
			bad = append(bad, c.label())
		}
	}
	if len(bad) > 0 {
		return Gate{Name: "not_degraded", Detail: "fell below quorum: " + strings.Join(bad, ", ")}
	}
	return Gate{Name: "not_degraded", Pass: true, Detail: "no cluster run fell back to local counting"}
}

// fastPath fails when no measured delta took the fast path: a stream the
// border check never absorbs prices only re-mines.
func fastPath(cells []Cell) Gate {
	fast, measured := 0, 0
	var delta, scratch float64
	for _, c := range cells {
		if !c.measured() {
			continue
		}
		measured++
		if c.Variant.Name == "fast-path" {
			fast++
			delta += c.Variant.Seconds
			scratch += c.Reference.Seconds
		}
	}
	g := Gate{Name: "fast_path", Pass: fast > 0 || measured == 0,
		Detail: fmt.Sprintf("%d of %d deltas took the fast path", fast, measured)}
	if fast > 0 && delta > 0 {
		g.Detail += fmt.Sprintf(" at %.2f ms each, against %.2f ms for the from-scratch mine (%.1fx)",
			delta/float64(fast)*1e3, scratch/float64(fast)*1e3, scratch/delta)
	}
	return g
}

// pool returns a started pool of n loopback cluster workers, booted once
// per Run.
func (e *env) pool(n int) (*cluster.Pool, error) {
	if p, ok := e.pools[n]; ok {
		return p, nil
	}
	var servers []*http.Server
	stop := func() {
		for _, hs := range servers {
			hs.Close()
		}
	}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, err
		}
		hs := &http.Server{Handler: cluster.NewWorker(cluster.WorkerConfig{ID: fmt.Sprintf("bench%d", i)}), ReadHeaderTimeout: 5 * time.Second}
		go hs.Serve(ln)
		servers = append(servers, hs)
		addrs = append(addrs, "http://"+ln.Addr().String())
	}
	p, err := cluster.NewPool(addrs, cluster.PoolConfig{})
	if err != nil {
		stop()
		return nil, err
	}
	p.Start()
	e.closers = append(e.closers, func() { p.Close(); stop() })
	e.pools[n] = p
	return p, nil
}

// jobID names a cluster job uniquely within a Run: workers memoize count
// replies by job, so a reused ID would replay answers instead of counting.
func (e *env) jobID() string {
	e.jobs++
	return fmt.Sprintf("bench-%d", e.jobs)
}
