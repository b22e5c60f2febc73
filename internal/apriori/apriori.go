// Package apriori implements the Apriori algorithm of Agrawal & Srikant
// (VLDB 1994) — the bottom-up, breadth-first baseline the paper compares
// against (§3.3), and the source of the join and prune procedures that
// Pincer-Search modifies.
//
// Following the paper's §4.1.1 (after Özden et al.), pass 1 counts items in
// a flat array and pass 2 counts all pairs of frequent items in a triangular
// matrix with no candidate generation; the level-wise candidate machinery
// starts at pass 3.
package apriori

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pincer/internal/checkpoint"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
)

// Join is the join procedure of Apriori-gen (§3.3): it combines every pair
// of k-itemsets in lk sharing a (k-1)-prefix into a (k+1)-itemset. lk must
// be sorted lexicographically; the output is sorted and duplicate-free.
func Join(lk []itemset.Itemset) []itemset.Itemset {
	if len(lk) == 0 {
		return nil
	}
	k := len(lk[0])
	var out []itemset.Itemset
	for i := 0; i < len(lk); i++ {
		for j := i + 1; j < len(lk); j++ {
			if !itemset.SamePrefix(lk[i], lk[j], k-1) {
				break // sorted input: no later itemset shares the prefix
			}
			out = append(out, lk[i].Union(lk[j]))
		}
	}
	return out
}

// Prune is the prune procedure of Apriori-gen: it removes from candidates
// every itemset with a k-subset missing from lk (the superset-of-infrequent
// rule, Observation 1). lkSet must contain exactly the itemsets of the
// frequent set L_k.
func Prune(candidates []itemset.Itemset, lkSet *itemset.Set) []itemset.Itemset {
	out := candidates[:0]
	for _, c := range candidates {
		if allFacetsIn(c, lkSet) {
			out = append(out, c)
		}
	}
	return out
}

func allFacetsIn(c itemset.Itemset, lkSet *itemset.Set) bool {
	ok := true
	c.Facets(func(f itemset.Itemset) {
		if ok && !lkSet.Contains(f) {
			ok = false
		}
	})
	return ok
}

// Gen is the full Apriori-gen candidate generation: Join then Prune.
func Gen(lk []itemset.Itemset, lkSet *itemset.Set) []itemset.Itemset {
	return Prune(Join(lk), lkSet)
}

// Options configures a mining run.
type Options struct {
	// Engine selects the support-counting structure for passes ≥ 3
	// (default: hash tree).
	Engine counting.Engine
	// KeepFrequent materializes the complete frequent set with support
	// counts in the result (default true via DefaultOptions). Apriori
	// discovers every frequent itemset either way; this only controls
	// whether they are retained.
	KeepFrequent bool
	// MaxPasses bounds the number of passes (0 = unlimited); used to build
	// partial runs for tests. Unlike the budgets below this is a normal
	// truncation, not an error.
	MaxPasses int
	// CombineLevels enables the multi-level pass optimization the paper
	// discusses (§3.5, §5, after [AS94] and [MTV94]): once the candidate
	// set is small, C_{k+2} is speculatively generated from C_{k+1}
	// (treating every candidate as frequent) and both levels are counted in
	// the same pass, halving the remaining database reads at the price of
	// extra candidates. "This technique is only useful in the later passes"
	// (§5) — hence the threshold.
	CombineLevels bool
	// CombineThreshold is the candidate-count ceiling under which levels
	// are combined (default 10000 when CombineLevels is set).
	CombineThreshold int
	// Tracer receives per-pass trace events; nil disables tracing (no
	// timestamps are taken).
	Tracer obsv.Tracer

	// Context cancels the run at pass boundaries and inside scan loops
	// (every CancelCheckEvery transactions); cancellation surfaces as a
	// *mfi.PartialResultError whose Result carries the frequent sets found
	// so far (Apriori maintains no MFCS, so the error's upper bound is nil).
	Context context.Context
	// Deadline, if positive, bounds the run's wall clock via a timeout
	// context derived from Context.
	Deadline time.Duration
	// MaxCandidatesPerPass bounds the candidate set of any pass ≥ 3
	// (0 = unlimited); exceeding it aborts with reason "max-candidates".
	MaxCandidatesPerPass int
	// CancelCheckEvery is the number of transactions between in-scan
	// context checks (default mfi.DefaultCancelCheckEvery).
	CancelCheckEvery int
	// Checkpointer, if set, persists the run's state at every pass barrier
	// (cleared on completion); MineResume restarts from it.
	Checkpointer checkpoint.Checkpointer
	// Counter overrides the per-pass support counting (nil: one sequential
	// scan of the Scanner per pass). internal/parallel's counters count
	// each pass over worker goroutines; the passes, candidates and results
	// are unchanged — only how each pass's counts are produced.
	Counter counting.PassCounter
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{Engine: counting.EngineHashTree, KeepFrequent: true}
}

// Mine runs Apriori over the scanned database at the given fractional
// minimum support and returns the complete frequent set and the MFS. A
// non-nil error reports a mid-pass failure re-reading a file-backed
// database (see mfi.RecoverMiningError); in-memory scans cannot fail.
func Mine(sc dataset.Scanner, minSupport float64, opt Options) (*mfi.Result, error) {
	minCount := dataset.MinCountFor(sc.Len(), minSupport)
	return MineCount(sc, minCount, opt)
}

// MineCount is Mine with an absolute support-count threshold.
func MineCount(sc dataset.Scanner, minCount int64, opt Options) (res *mfi.Result, err error) {
	defer mfi.RecoverMiningError(&err)
	m := newAprioriMiner(sc, minCount, opt)
	return m.mine()
}

// MineResume continues an Apriori run interrupted after a checkpoint; with
// no checkpoint on record it mines from scratch. The same resume invariant
// as core.MineResume holds: the result and per-pass statistics equal an
// uninterrupted run's.
func MineResume(sc dataset.Scanner, minCount int64, opt Options) (res *mfi.Result, err error) {
	if opt.Checkpointer == nil {
		return nil, errors.New("apriori: MineResume requires Options.Checkpointer")
	}
	st, err := opt.Checkpointer.Load()
	if err != nil {
		return nil, err
	}
	if st == nil {
		return MineCount(sc, minCount, opt)
	}
	if err := validateState(st, sc, minCount); err != nil {
		return nil, err
	}
	defer mfi.RecoverMiningError(&err)
	m := newAprioriMiner(sc, minCount, opt)
	if rerr := m.restore(st); rerr != nil {
		return nil, rerr
	}
	return m.mine()
}

func validateState(st *checkpoint.State, sc dataset.Scanner, minCount int64) error {
	switch {
	case st.Algorithm != "apriori":
		return &checkpoint.MismatchError{Field: "algorithm", Want: "apriori", Got: st.Algorithm}
	case st.MinCount != minCount:
		return &checkpoint.MismatchError{Field: "min count",
			Want: fmt.Sprint(minCount), Got: fmt.Sprint(st.MinCount)}
	case st.NumTransactions != int64(sc.Len()):
		return &checkpoint.MismatchError{Field: "transactions",
			Want: fmt.Sprint(sc.Len()), Got: fmt.Sprint(st.NumTransactions)}
	case st.NumItems != sc.NumItems():
		return &checkpoint.MismatchError{Field: "item universe",
			Want: fmt.Sprint(sc.NumItems()), Got: fmt.Sprint(st.NumItems)}
	}
	return nil
}

// aprioriStage positions the staged run loop, mirroring core's runStage.
type aprioriStage uint8

const (
	stageFresh     aprioriStage = iota // nothing counted yet
	stagePass2                         // pass 1 done, pair pass next
	stageLevelwise                     // level-wise loop at miner.k
)

func (s aprioriStage) stageName() string {
	switch s {
	case stagePass2:
		return "pass2"
	case stageLevelwise:
		return "levelwise"
	}
	return "fresh"
}

// aprioriMiner holds the pass-barrier state of a run, on the struct rather
// than in locals so checkpoints can persist it and restore can re-enter.
type aprioriMiner struct {
	sc       dataset.Scanner
	pc       counting.PassCounter
	opt      Options
	minCount int64
	res      *mfi.Result

	allFrequent []itemset.Itemset
	counts      map[string]int64
	itemCounts  []int64 // pass-1 array; l1 is its frequent entries

	stage aprioriStage
	lk    []itemset.Itemset
	k     int

	ctx    context.Context
	cancel context.CancelFunc
	cp     checkpoint.Checkpointer
	start  time.Time

	tr      obsv.Tracer
	scanDur time.Duration
}

func newAprioriMiner(sc dataset.Scanner, minCount int64, opt Options) *aprioriMiner {
	ctx := opt.Context
	var cancel context.CancelFunc
	if opt.Deadline > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
	}
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // uncancellable: skip every check
	}
	pc := opt.Counter
	if pc == nil {
		pc = counting.NewScanCounter(sc)
	}
	if ctx != nil {
		if cb, ok := pc.(counting.ContextBinder); ok {
			cb.BindContext(ctx, opt.CancelCheckEvery)
		}
	}
	m := &aprioriMiner{
		sc:       sc,
		pc:       pc,
		opt:      opt,
		minCount: minCount,
		counts:   make(map[string]int64),
		stage:    stageFresh,
		k:        3,
		ctx:      ctx,
		cancel:   cancel,
		cp:       opt.Checkpointer,
		tr:       opt.Tracer,
		res: &mfi.Result{
			MinCount:        minCount,
			NumTransactions: sc.Len(),
			Frequent:        itemset.NewSet(0),
		},
	}
	m.res.Stats.Algorithm = "apriori"
	return m
}

func (m *aprioriMiner) mine() (res *mfi.Result, err error) {
	if m.cancel != nil {
		defer m.cancel()
	}
	defer m.recoverAbort(&err)
	if m.tr != nil {
		m.tr.RunStart(obsv.RunInfo{
			Algorithm:       m.res.Stats.Algorithm,
			Workers:         counting.WorkersOf(m.pc),
			MinCount:        m.minCount,
			NumTransactions: m.sc.Len(),
		})
	}
	m.start = time.Now()
	m.run()
	r := m.assemble()
	if m.tr != nil {
		m.tr.RunDone(obsv.RunSummary{
			Algorithm:  r.Stats.Algorithm,
			Passes:     r.Stats.Passes,
			Candidates: r.Stats.Candidates,
			MFSSize:    len(r.MFS),
			Duration:   r.Stats.Duration,
		})
	}
	if m.cp != nil {
		if cerr := m.cp.Clear(); cerr != nil {
			return nil, cerr
		}
	}
	return r, nil
}

// count performs one database pass — one counting call — timing it for the
// pass event when a Tracer is set (untraced runs take no timestamps).
func (m *aprioriMiner) count(pass func()) {
	if m.tr == nil {
		pass()
		return
	}
	t0 := time.Now()
	pass()
	m.scanDur = time.Since(t0)
}

// emit reports the pass just recorded by AddPass, mirroring its
// PassDetails entry exactly.
func (m *aprioriMiner) emit() {
	if m.tr == nil {
		return
	}
	p := m.res.Stats.PassDetails[len(m.res.Stats.PassDetails)-1]
	d := m.scanDur
	m.scanDur = 0
	m.tr.PassDone(obsv.PassEvent{
		Algorithm:    m.res.Stats.Algorithm,
		Pass:         p.Pass,
		Phase:        obsv.PhaseBottomUp,
		Candidates:   p.Candidates,
		Frequent:     p.Frequent,
		Infrequent:   p.Candidates - p.Frequent,
		MFSFound:     p.MFSFound,
		ScanDuration: d,
		Workers:      counting.WorkersOf(m.pc),
	})
}

func (m *aprioriMiner) noteFrequent(x itemset.Itemset, count int64) {
	m.allFrequent = append(m.allFrequent, x)
	m.counts[x.Key()] = count
	if m.opt.KeepFrequent {
		m.res.Frequent.AddWithCount(x, count)
	}
}

// beforePass is the pass-boundary gate: context cancellation plus the
// per-pass candidate budget.
func (m *aprioriMiner) beforePass(candidates int) {
	mfi.CheckContext(m.ctx)
	if b := m.opt.MaxCandidatesPerPass; b > 0 && candidates > b {
		panic(&mfi.Abort{Reason: mfi.ReasonMaxCandidates,
			Cause: fmt.Errorf("pass would count %d candidates, budget is %d", candidates, b)})
	}
}

// l1 returns the frequent items of the pass-1 array.
func (m *aprioriMiner) l1() itemset.Itemset {
	var l1 itemset.Itemset
	for i, c := range m.itemCounts {
		if c >= m.minCount {
			l1 = append(l1, itemset.Item(i))
		}
	}
	return l1
}

// run drives the stages in order, entering at m.stage.
func (m *aprioriMiner) run() {
	if m.stage == stageFresh {
		if m.pass1() {
			return
		}
		m.stage = stagePass2
		m.checkpointNow()
	}
	if m.stage == stagePass2 {
		if m.pass2() {
			return
		}
		m.stage = stageLevelwise
		m.k = 3
		m.checkpointNow()
	}
	m.levelwise()
}

// pass1 counts every item in a flat array; done means the run is complete.
func (m *aprioriMiner) pass1() (done bool) {
	m.beforePass(0)
	m.count(func() { m.itemCounts, _ = m.pc.CountItems(m.sc.NumItems(), nil, nil) })
	var l1 itemset.Itemset
	for i, c := range m.itemCounts {
		if c >= m.minCount {
			l1 = append(l1, itemset.Item(i))
			m.noteFrequent(itemset.Itemset{itemset.Item(i)}, c)
		}
	}
	m.res.Stats.AddPass(mfi.PassStats{Candidates: m.sc.NumItems(), Frequent: len(l1)})
	m.emit()
	return len(l1) < 2 || m.opt.MaxPasses == 1
}

// pass2 counts all pairs of frequent items in a triangular matrix with no
// candidate generation; done means the run is complete.
func (m *aprioriMiner) pass2() (done bool) {
	m.beforePass(0)
	var tri *counting.Triangle
	m.count(func() { tri, _ = m.pc.CountPairs(m.sc.NumItems(), m.l1(), nil, nil) })
	var l2 []itemset.Itemset
	tri.Each(func(x, y itemset.Item, count int64) {
		if count >= m.minCount {
			pair := itemset.Itemset{x, y}
			l2 = append(l2, pair)
			m.noteFrequent(pair, count)
		}
	})
	m.res.Stats.AddPass(mfi.PassStats{Candidates: tri.NumPairs(), Frequent: len(l2)})
	m.emit()
	m.lk = l2
	return len(l2) == 0 || m.opt.MaxPasses == 2
}

// levelwise runs passes ≥ 3: Apriori-gen + the configured counting engine,
// checkpointing after every pass barrier.
func (m *aprioriMiner) levelwise() {
	combineThreshold := m.opt.CombineThreshold
	if m.opt.CombineLevels && combineThreshold <= 0 {
		combineThreshold = 10_000
	}
	for {
		k := m.k
		if m.opt.MaxPasses > 0 && k > m.opt.MaxPasses {
			return
		}
		lkSet := itemset.SetOf(m.lk...)
		ck := Gen(m.lk, lkSet)
		if len(ck) == 0 {
			return
		}
		// Optionally stack the next level's speculative candidates into the
		// same pass: C_{k+1} generated from C_k as if all of C_k were
		// frequent. Any speculative candidate whose count clears the
		// threshold is genuinely frequent (support is anti-monotone), so no
		// separate validation is needed.
		var speculative []itemset.Itemset
		if m.opt.CombineLevels && len(ck) <= combineThreshold {
			speculative = Gen(ck, itemset.SetOf(ck...))
		}
		all := ck
		if len(speculative) > 0 {
			all = append(append([]itemset.Itemset(nil), ck...), speculative...)
		}
		m.beforePass(len(all))
		var counts []int64
		m.count(func() { counts, _ = m.pc.CountCandidates(m.opt.Engine, all, nil, nil) })
		var next []itemset.Itemset
		for i, c := range ck {
			if counts[i] >= m.minCount {
				next = append(next, c)
				m.noteFrequent(c, counts[i])
			}
		}
		m.res.Stats.AddPass(mfi.PassStats{Candidates: len(all), Frequent: len(next)})
		if len(speculative) > 0 {
			var next2 []itemset.Itemset
			for i, c := range speculative {
				if counts[len(ck)+i] >= m.minCount {
					next2 = append(next2, c)
					m.noteFrequent(c, counts[len(ck)+i])
				}
			}
			m.res.Stats.PassDetails[len(m.res.Stats.PassDetails)-1].Frequent += len(next2)
			m.res.Stats.FrequentCount += int64(len(next2))
			m.emit() // after the speculative fold, so the event matches PassDetails
			if len(next2) == 0 {
				// The speculative level contains every true C_{k+1}
				// candidate (Gen over a superset yields a superset), so an
				// empty frequent result there ends the level-wise climb.
				return
			}
			m.k = k + 2 // the combined pass consumed two levels
			m.lk = next2
			m.checkpointNow()
			continue
		}
		m.emit()
		if len(next) == 0 {
			return
		}
		m.lk = next
		m.k = k + 1
		m.checkpointNow()
	}
}

// assemble builds the final (or partial) result from the frequent sets
// discovered so far and stamps the duration.
func (m *aprioriMiner) assemble() *mfi.Result {
	r := m.res
	r.MFS = itemset.MaximalOnly(m.allFrequent)
	r.MFSSupports = make([]int64, len(r.MFS))
	for i, x := range r.MFS {
		r.MFSSupports[i] = m.counts[x.Key()]
	}
	if !m.opt.KeepFrequent {
		r.Frequent = nil
	}
	r.Stats.Duration = time.Since(m.start)
	return r
}

// recoverAbort converts the Abort sentinel into a *mfi.PartialResultError.
// Apriori maintains no top-down frontier, so the error's MFCS bound is nil.
func (m *aprioriMiner) recoverAbort(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	ab := mfi.AbortFrom(r)
	if ab == nil {
		panic(r)
	}
	res := m.assemble()
	if m.tr != nil {
		m.tr.RunDone(obsv.RunSummary{
			Algorithm:  res.Stats.Algorithm,
			Passes:     res.Stats.Passes,
			Candidates: res.Stats.Candidates,
			MFSSize:    len(res.MFS),
			Duration:   res.Stats.Duration,
			Aborted:    true, AbortReason: ab.Reason,
		})
	}
	*errp = &mfi.PartialResultError{
		Result: res, Pass: res.Stats.Passes, Reason: ab.Reason, Cause: ab.Cause,
	}
}

// checkpointNow persists the pass-barrier state (no-op without a
// Checkpointer); a failed write aborts the run.
func (m *aprioriMiner) checkpointNow() {
	if m.cp == nil {
		return
	}
	start := time.Now()
	st := &checkpoint.State{
		Version:         checkpoint.Version,
		Algorithm:       m.res.Stats.Algorithm,
		MinCount:        m.minCount,
		NumTransactions: int64(m.sc.Len()),
		NumItems:        m.sc.NumItems(),
		Stage:           m.stage.stageName(),
		K:               m.k,
		Lk:              m.lk,
		AllFrequent:     m.allFrequent,
		Cache:           m.counts,
		ItemCounts:      m.itemCounts,
		Stats:           m.res.Stats,
	}
	if err := m.cp.Save(st); err != nil {
		panic(&mfi.Abort{Reason: mfi.ReasonCheckpoint, Cause: err})
	}
	obsv.EmitCheckpoint(m.tr, obsv.CheckpointEvent{
		Algorithm: m.res.Stats.Algorithm, Pass: m.res.Stats.Passes,
		Stage: m.stage.stageName(), Duration: time.Since(start),
	})
}

// restore re-enters from a checkpoint's pass barrier.
func (m *aprioriMiner) restore(st *checkpoint.State) error {
	switch st.Stage {
	case "pass2":
		m.stage = stagePass2
	case "levelwise":
		m.stage = stageLevelwise
	default:
		return &checkpoint.CorruptError{Path: "(state)", Err: fmt.Errorf("unknown stage %q", st.Stage)}
	}
	m.k = st.K
	m.lk = st.Lk
	m.allFrequent = st.AllFrequent
	if st.Cache != nil {
		m.counts = st.Cache
	}
	m.itemCounts = st.ItemCounts
	m.res.Stats = st.Stats
	if m.opt.KeepFrequent {
		for _, f := range m.allFrequent {
			m.res.Frequent.AddWithCount(f, m.counts[f.Key()])
		}
	}
	return nil
}
