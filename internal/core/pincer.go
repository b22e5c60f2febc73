package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pincer/internal/apriori"
	"pincer/internal/checkpoint"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
)

// Options configures a Pincer-Search run.
type Options struct {
	// Engine selects the support-counting structure for bottom-up
	// candidates in passes ≥ 3 (default: hash tree).
	Engine counting.Engine
	// Pure disables the adaptive policy: no caps, MFCS is maintained to the
	// bitter end (paper §3.5 calls this the "pure" version; the evaluated
	// algorithm is the adaptive one).
	Pure bool
	// MFCSCap bounds |MFCS|; exceeding it makes the adaptive algorithm
	// abandon the MFCS and degrade to bottom-up search (0 = unlimited).
	MFCSCap int
	// CliqueNodeBudget bounds the pass-2 maximal-clique enumeration
	// (recursion states); exhausting it likewise abandons the MFCS.
	CliqueNodeBudget int
	// IncrementalSplitMax selects the pass-2 MFCS-gen strategy: at most
	// this many infrequent pairs are fed through the paper's incremental
	// MFCS-gen; beyond it the batch (maximal-clique) rebuild runs instead.
	// Both compute the same set — see clique.go.
	IncrementalSplitMax int
	// KeepFrequent retains every explicitly counted frequent itemset (with
	// support) in the result. Pincer-Search's point is that this set can be
	// far smaller than the full frequent set.
	KeepFrequent bool
	// DisableRecovery skips the recovery procedure (§3.4) — for ablation
	// only. The tail phase still makes the output correct; the bottom-up
	// search just loses candidates and more work shifts to the MFCS.
	DisableRecovery bool
	// MaxTailPasses bounds the MFCS-only passes after the bottom-up search
	// exhausts (0 = unlimited). If exceeded, the run falls back to Apriori
	// to guarantee a correct result.
	MaxTailPasses int
	// MFSCap bounds the number of maximal frequent itemsets the MFCS path
	// tracks; a maximum frequent set that large means the distribution is
	// hostile to Pincer-Search and the run falls back to Apriori
	// (0 = unlimited, implied by Pure).
	MFSCap int
	// CombineAfterAbandon implements the rest of §3.5's adaptive sentence:
	// once the MFCS is abandoned ("we may simply count candidates of
	// different sizes in one pass, as in [3] and [12]"), the degraded
	// bottom-up search counts two candidate levels per pass when the
	// candidate set is small (≤ CombineThreshold, default 10000).
	CombineAfterAbandon bool
	// CombineThreshold is the candidate ceiling for the combined passes.
	CombineThreshold int
	// Counter overrides the per-pass support counting (nil: one sequential
	// scan of the Scanner per pass). internal/parallel injects its
	// count-distribution implementation here; the algorithm, pass
	// accounting, and results are unchanged by the override — only how each
	// pass's counts are produced.
	Counter PassCounter
	// Tracer receives one span event per database pass plus run start and
	// finish notifications (see internal/obsv). Nil disables tracing: the
	// miner then takes no timestamps and emits nothing, so the hot path is
	// unchanged.
	Tracer obsv.Tracer
	// Algorithm overrides the name recorded in Stats and trace events
	// (default "pincer"); runs counted by internal/parallel's counters are
	// labelled "pincer-parallel".
	Algorithm string

	// Context cancels the run: cancellation is observed at every pass
	// boundary and inside scan loops (every CancelCheckEvery transactions,
	// in each worker for parallel counters), and surfaces as a
	// *mfi.PartialResultError carrying the anytime result. Nil means
	// context.Background() — an uncancellable context adds no per-
	// transaction work.
	Context context.Context
	// Deadline, if positive, bounds the run's wall clock: the miner derives
	// a timeout context from Context, so expiry behaves exactly like
	// cancellation with reason "deadline".
	Deadline time.Duration
	// MaxTotalPasses bounds the number of database passes (0 = unlimited);
	// exceeding it aborts with reason "max-passes".
	MaxTotalPasses int
	// MaxCandidatesPerPass bounds the bottom-up candidate set of any
	// single pass ≥ 3 (0 = unlimited); a larger generated set aborts with
	// reason "max-candidates" before the pass is counted.
	MaxCandidatesPerPass int
	// MaxMemoryBytes is an approximate heap ceiling, compared against
	// runtime.MemStats.HeapAlloc at pass boundaries only (0 = unlimited);
	// exceeding it aborts with reason "memory-budget".
	MaxMemoryBytes int64
	// CancelCheckEvery is the number of transactions between context checks
	// inside a scan loop (default mfi.DefaultCancelCheckEvery).
	CancelCheckEvery int
	// Checkpointer, if set, persists the miner's state at every pass
	// barrier and is cleared when the run completes; MineResume restarts an
	// interrupted run from it. A checkpoint write failure aborts the run
	// with reason "checkpoint-failure" rather than continuing undurably.
	Checkpointer checkpoint.Checkpointer

	// SeedMFS warm-starts the run with itemsets known to be frequent in
	// THIS dataset at THIS threshold — e.g. the surviving maximal sets of an
	// incremental maintainer whose delta moved the border. Seeds join the
	// MFS view before pass 1, so the bottom-up search prunes their subsets
	// immediately (with the recovery procedure compensating, exactly as for
	// MFCS-harvested sets); the top-down MFCS path is unaffected and its
	// termination argument alone guarantees the exact MFS, so stale or
	// non-maximal seeds cost work but never correctness — but an INFREQUENT
	// seed does break correctness, because the MFS view treats every element
	// as proof of frequency. SeedSupports carries the seeds' exact support
	// counts, parallel to SeedMFS.
	SeedMFS      []itemset.Itemset
	SeedSupports []int64
}

// DefaultOptions returns the adaptive configuration evaluated in the paper.
// The caps embody §3.5's adaptive policy: when the MFCS (or the MFS it
// discovers) grows so large that maintaining it is counterproductive, the
// run degrades to bottom-up search.
func DefaultOptions() Options {
	return Options{
		Engine:              counting.EngineHashTree,
		MFCSCap:             10_000,
		CliqueNodeBudget:    1_000_000,
		IncrementalSplitMax: 256,
		KeepFrequent:        true,
		MFSCap:              50_000,
		CombineAfterAbandon: true,
		CombineThreshold:    10_000,
	}
}

// Mine runs Pincer-Search at a fractional minimum support. A mid-pass
// failure of the database read (e.g. a corrupt or vanished basket file
// behind a dataset.FileScanner) is returned as an error; an in-memory scan
// cannot fail.
func Mine(sc dataset.Scanner, minSupport float64, opt Options) (*mfi.Result, error) {
	return MineCount(sc, dataset.MinCountFor(sc.Len(), minSupport), opt)
}

// MineCount runs Pincer-Search with an absolute support-count threshold and
// returns the maximum frequent set. It is a mining boundary: I/O and parse
// panics raised mid-pass, counter-merge mismatches, and captured worker
// panics from a parallel PassCounter all surface as the returned error
// (see mfi.RecoverMiningError), and cancellation or a tripped resource
// budget surfaces as a *mfi.PartialResultError carrying the anytime result.
func MineCount(sc dataset.Scanner, minCount int64, opt Options) (res *mfi.Result, err error) {
	defer mfi.RecoverMiningError(&err)
	m := newMiner(sc, minCount, opt)
	return m.mine()
}

// runStage names the phase of the staged run loop a checkpoint re-enters.
type runStage uint8

const (
	stageFresh     runStage = iota // nothing counted yet
	stagePass2     runStage = iota // pass 1 done, pair pass next
	stageLevelwise                 // level-wise loop, position in miner.k
	stageTail                      // MFCS-only tail passes
)

// stageName maps the stage to its persisted checkpoint string.
func (s runStage) stageName() string {
	switch s {
	case stagePass2:
		return "pass2"
	case stageLevelwise:
		return "levelwise"
	case stageTail:
		return "tail"
	}
	return "fresh"
}

// stageFromName is the inverse of stageName for checkpoint loading.
func stageFromName(name string) (runStage, bool) {
	switch name {
	case "pass2":
		return stagePass2, true
	case "levelwise":
		return stageLevelwise, true
	case "tail":
		return stageTail, true
	}
	return stageFresh, false
}

type miner struct {
	sc       dataset.Scanner
	pc       PassCounter
	opt      Options
	minCount int64
	res      *mfi.Result

	mfcs *MFCS
	mfs  *mfsView
	// mfsAtPass records, parallel to mfs additions, nothing — supports are
	// kept in cache; allFrequent keeps every explicitly discovered frequent
	// itemset for the defensive final merge.
	allFrequent []itemset.Itemset
	cache       map[string]int64 // every support this run has determined
	itemCounts  []int64          // pass-1 array
	tri         *counting.Triangle

	abandoned bool // adaptive policy dropped the MFCS
	fellBack  bool // full Apriori fallback produced the result
	seeded    bool // Options.SeedMFS pre-populated the MFS view

	// Staged-loop state: everything the run loop carries across a pass
	// barrier lives on the miner (not in locals) so checkpoints can
	// persist it and MineResume can re-enter run() at the saved stage.
	stage      runStage
	l1         itemset.Itemset   // frequent items (pass 1)
	lk         []itemset.Itemset // current frequent level L_k
	k          int               // level the next iteration generates from
	removedAny bool              // L_k was filtered by the MFS
	tailNum    int               // 1-based tail-pass number

	// ctx is the effective run context (Options.Context plus Deadline), or
	// nil when the run is uncancellable so no checks are emitted; cancel
	// releases the deadline timer. cp persists pass-barrier checkpoints.
	ctx    context.Context
	cancel context.CancelFunc
	cp     checkpoint.Checkpointer
	start  time.Time

	// lastMFCSCounted is the number of MFCS elements counted by the most
	// recent countPass, for the per-pass statistics.
	lastMFCSCounted int

	// tracer/workers/timed are set only when Options.Tracer is non-nil;
	// every emission site checks tracer for nil, so an untraced run takes
	// no timestamps and allocates nothing extra.
	tracer  obsv.Tracer
	workers int
	timed   *timedPassCounter
}

// newMiner assembles a fresh miner: effective context, pass counter (bound
// to the context when it can be cancelled), MFCS/MFS structures, and the
// staged-loop state positioned at the start.
func newMiner(sc dataset.Scanner, minCount int64, opt Options) *miner {
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
		if cb, ok := pc.(ContextBinder); ok {
			cb.BindContext(ctx, opt.CancelCheckEvery)
		}
	}
	m := &miner{
		sc:       sc,
		pc:       pc,
		opt:      opt,
		minCount: minCount,
		cache:    make(map[string]int64),
		ctx:      ctx,
		cancel:   cancel,
		cp:       opt.Checkpointer,
		stage:    stageFresh,
		k:        2,
		tailNum:  1,
		res: &mfi.Result{
			MinCount:        minCount,
			NumTransactions: sc.Len(),
			Frequent:        itemset.NewSet(0),
		},
	}
	m.res.Stats.Algorithm = "pincer"
	if opt.Algorithm != "" {
		m.res.Stats.Algorithm = opt.Algorithm
	}
	n := sc.NumItems()
	mfcsCap := opt.MFCSCap
	if opt.Pure {
		mfcsCap = 0
	}
	m.mfcs = NewMFCS(n, minCount, mfcsCap, m.resolveSupport)
	m.mfs = newMFSView(n)
	if len(opt.SeedMFS) > 0 {
		m.seeded = true
		for i, s := range opt.SeedMFS {
			if m.mfs.add(s) && i < len(opt.SeedSupports) {
				m.cache[s.Key()] = opt.SeedSupports[i]
			}
		}
	}
	if opt.Tracer != nil {
		// Thread the tracer through the PassCounter seam: the timing
		// decorator records each pass's scan wall clock for the events.
		m.tracer = opt.Tracer
		m.workers = counting.WorkersOf(pc)
		m.timed = &timedPassCounter{pc: pc}
		m.pc = m.timed
	}
	return m
}

// mine drives the (possibly resumed) staged run to completion, converting
// the Abort sentinel into a *mfi.PartialResultError on the way out.
func (m *miner) mine() (res *mfi.Result, err error) {
	if m.cancel != nil {
		defer m.cancel()
	}
	defer m.recoverAbort(&err)
	if m.tracer != nil {
		m.tracer.RunStart(obsv.RunInfo{
			Algorithm: m.res.Stats.Algorithm, Workers: m.workers,
			MinCount: m.minCount, NumTransactions: m.sc.Len(),
		})
	}
	m.start = time.Now()
	m.run()
	m.res.Stats.Duration = time.Since(m.start)
	if m.tracer != nil {
		m.tracer.RunDone(obsv.RunSummary{
			Algorithm: m.res.Stats.Algorithm, Passes: m.res.Stats.Passes,
			Candidates: m.res.Stats.Candidates, MFSSize: len(m.res.MFS),
			Duration: m.res.Stats.Duration,
		})
	}
	if m.cp != nil {
		// The run is complete; a lingering checkpoint would make a later
		// MineResume replay a finished mine.
		if cerr := m.cp.Clear(); cerr != nil {
			return nil, cerr
		}
	}
	return m.res, nil
}

// emitPass reports the pass just recorded by AddPass to the tracer. The
// event mirrors the PassStats entry exactly (same pass number, candidate,
// MFCS, frequent, and MFS-found figures) and adds the phase tag, current
// |MFCS|, scan wall clock, and worker count.
func (m *miner) emitPass(phase obsv.Phase) {
	if m.tracer == nil {
		return
	}
	p := m.res.Stats.PassDetails[len(m.res.Stats.PassDetails)-1]
	mfcsSize := 0
	if !m.abandoned && m.mfcs != nil {
		mfcsSize = m.mfcs.Len()
	}
	var scan time.Duration
	if m.timed != nil {
		scan = m.timed.take()
	}
	ev := obsv.PassEvent{
		Algorithm: m.res.Stats.Algorithm,
		Pass:      p.Pass, Phase: phase,
		Candidates: p.Candidates, MFCSCandidates: p.MFCSCandidates,
		MFCSSize: mfcsSize, Frequent: p.Frequent,
		Infrequent: p.Candidates - p.Frequent, MFSFound: p.MFSFound,
		ScanDuration: scan, Workers: m.workers,
	}
	if ir, ok := m.pc.(IntersectionReporter); ok {
		if st := ir.TakeIntersections(); st.Total > 0 {
			ev.Intersections = st.Total
			ev.Representation = st.Label()
		}
	}
	m.tracer.PassDone(ev)
}

// resolveSupport is the MFCS SupportResolver: pass-1 array, pass-2
// triangle, then the cache of everything counted so far.
func (m *miner) resolveSupport(s itemset.Itemset) (int64, bool) {
	switch len(s) {
	case 0:
		return int64(m.sc.Len()), true
	case 1:
		if m.itemCounts != nil {
			return m.itemCounts[s[0]], true
		}
	case 2:
		if m.tri != nil {
			// Count returns 0 for pairs involving an infrequent item; the
			// exact value is unknown but the pair is certainly infrequent,
			// so classification (all the resolver is used for) is sound.
			return m.tri.Count(s[0], s[1]), true
		}
	}
	c, ok := m.cache[s.Key()]
	return c, ok
}

func (m *miner) noteFrequent(x itemset.Itemset, count int64) {
	m.allFrequent = append(m.allFrequent, x)
	m.cache[x.Key()] = count
	if m.opt.KeepFrequent {
		m.res.Frequent.AddWithCount(x, count)
	}
}

// harvest moves newly classified frequent MFCS elements into the MFS and
// returns how many were new.
func (m *miner) harvest() int {
	found := 0
	for _, e := range m.mfcs.elems {
		if e.state == stateFrequent && !e.harvested {
			e.harvested = true
			m.cache[e.set.Key()] = e.count
			if m.mfs.add(e.set) {
				found++
			}
		}
	}
	return found
}

// settle records counted supports on elements and in the cache.
func (m *miner) settle(elems []*element, counts []int64) {
	for i, e := range elems {
		e.markCounted(counts[i], m.minCount)
		m.cache[e.set.Key()] = counts[i]
	}
}

// filterByMFS implements line 8 of the main algorithm: frequent itemsets
// that are subsets of MFS elements leave the bottom-up search. It reports
// whether anything was removed (the trigger for the recovery procedure).
func (m *miner) filterByMFS(frequent []itemset.Itemset) ([]itemset.Itemset, bool) {
	if m.mfs.len() == 0 {
		return frequent, false
	}
	out := frequent[:0]
	removed := false
	for _, x := range frequent {
		if m.mfs.containsSuperset(x) {
			removed = true
		} else {
			out = append(out, x)
		}
	}
	return out, removed
}

// countPass performs one database read, counting the bottom-up candidates
// (if any) and the uncounted MFCS elements together, exactly as the paper's
// line 6 prescribes. It returns the candidate counts. The read itself is
// delegated to the PassCounter seam.
func (m *miner) countPass(candidates []itemset.Itemset) []int64 {
	var uncounted []*element
	if !m.abandoned {
		uncounted = m.mfcs.Uncounted()
	}
	elems, elemBits := elemSets(uncounted)
	candCounts, elemCounts := m.pc.CountCandidates(m.opt.Engine, candidates, elems, elemBits)
	if len(uncounted) > 0 {
		m.settle(uncounted, elemCounts)
	}
	m.lastMFCSCounted = len(uncounted)
	return candCounts
}

// run drives the stages in order, entering at m.stage (stageFresh for a new
// run, later stages when MineResume restored a checkpoint) and writing a
// checkpoint at every stage transition and pass barrier.
func (m *miner) run() {
	if m.stage == stageFresh {
		if m.pass1() {
			m.finish()
			return
		}
		m.stage = stagePass2
		m.checkpointNow()
	}
	if m.stage == stagePass2 {
		m.pass2()
		if m.fellBack {
			return
		}
		m.stage = stageLevelwise
		m.checkpointNow()
	}
	if m.stage == stageLevelwise {
		m.levelwise()
		if m.fellBack {
			return
		}
		if m.abandoned {
			m.finish()
			return
		}
		m.stage = stageTail
		m.checkpointNow()
	}
	m.tailPhase()
	if m.fellBack {
		return
	}
	m.finish()
}

// pass1 counts every item plus the initial MFCS element and reports whether
// the run is already complete (fewer than two frequent items, or the MFS
// covers every frequent item after one read). The early exits happen before
// the first checkpoint, so a resumed run never skips them.
func (m *miner) pass1() (done bool) {
	n := m.sc.NumItems()
	m.beforePass(0)

	// ---- Pass 1: flat item array + the initial MFCS element ----
	uncounted := m.mfcs.Uncounted()
	elems, elemBits := elemSets(uncounted)
	itemCounts, elemCounts := m.pc.CountItems(n, elems, elemBits)
	m.itemCounts = itemCounts
	m.settle(uncounted, elemCounts)
	found := m.harvest()
	var s1 []itemset.Itemset
	for i, c := range m.itemCounts {
		if c >= m.minCount {
			m.l1 = append(m.l1, itemset.Item(i))
			m.noteFrequent(itemset.Itemset{itemset.Item(i)}, c)
		} else {
			s1 = append(s1, itemset.Itemset{itemset.Item(i)})
		}
	}
	// MFCS-gen on the infrequent items: the top-down search drops |s1|
	// levels in this single pass (paper §3.1).
	m.mfcs.Update(s1)
	found += m.harvest()
	m.res.Stats.AddPass(mfi.PassStats{
		Candidates: n, MFCSCandidates: len(uncounted), Frequent: len(m.l1), MFSFound: found,
	})
	m.emitPass(obsv.PhaseBottomUp)
	if len(m.l1) < 2 {
		return true
	}
	// After pass 1 the MFCS holds a single element. If it is already
	// frequent it covers every frequent item, every itemset over them is
	// frequent, and the MFS is complete after one database read. A seeded
	// view disables the exit: seeds can cover every frequent item without
	// being the complete MFS (two seeds may miss a maximal set straddling
	// them), so the full pincer loop must still run.
	if m.mfs.len() > 0 && !m.seeded {
		singles := make([]itemset.Itemset, len(m.l1))
		for i, it := range m.l1 {
			singles[i] = itemset.Itemset{it}
		}
		if rest, _ := m.filterByMFS(singles); len(rest) == 0 {
			return true
		}
	}
	return false
}

// pass2 counts the triangular pair matrix plus uncounted MFCS elements and
// leaves the level-wise loop positioned at k=2 with L_2 in m.lk.
func (m *miner) pass2() {
	n := m.sc.NumItems()
	budget := m.opt.CliqueNodeBudget
	if m.opt.Pure {
		budget = 0
	}
	m.beforePass(0)

	// ---- Pass 2: triangular pair matrix + uncounted MFCS elements ----
	uncounted := m.mfcs.Uncounted()
	elems, elemBits := elemSets(uncounted)
	tri, elemCounts := m.pc.CountPairs(n, m.l1, elems, elemBits)
	m.tri = tri
	m.settle(uncounted, elemCounts)
	found := m.harvest()
	var l2 []itemset.Itemset
	infreqPairs := 0
	tri.Each(func(x, y itemset.Item, count int64) {
		if count >= m.minCount {
			pair := itemset.Itemset{x, y}
			l2 = append(l2, pair)
			m.noteFrequent(pair, count)
		} else {
			infreqPairs++
		}
	})
	frequentL2 := l2 // unfiltered, for a potential pass-2 abandonment

	// MFCS-gen for pass 2: incremental splits when the infrequent-pair set
	// is small, the algebraically equivalent maximal-clique rebuild when it
	// is large (see clique.go).
	if infreqPairs > 0 {
		if infreqPairs <= m.opt.IncrementalSplitMax || m.opt.Pure {
			var s2 []itemset.Itemset
			tri.Each(func(x, y itemset.Item, count int64) {
				if count < m.minCount {
					s2 = append(s2, itemset.Itemset{x, y})
				}
			})
			m.mfcs.Update(s2)
		} else {
			m.mfcs.RebuildFromPairGraph(m.l1, func(a, b itemset.Item) bool {
				return tri.Count(a, b) >= m.minCount
			}, budget)
		}
	}
	if m.mfcs.Exploded() {
		l2 = m.abandon(frequentL2)
		if m.fellBack {
			return
		}
	}
	found += m.harvest()
	m.res.Stats.AddPass(mfi.PassStats{
		Candidates: tri.NumPairs(), MFCSCandidates: len(uncounted), Frequent: len(frequentL2), MFSFound: found,
	})
	m.emitPass(obsv.PhaseBottomUp)

	m.removedAny = false
	if !m.abandoned {
		l2, m.removedAny = m.filterByMFS(l2)
	}
	m.lk = l2
	m.k = 2
}

// levelwise runs the passes ≥ 3 — join + recovery + new prune, with MFCS
// counting — checkpointing after every pass barrier. It returns when the
// bottom-up search exhausts (the tail phase follows) or the run abandoned
// the MFCS and the degraded search finished.
func (m *miner) levelwise() {
	n := m.sc.NumItems()
	emptyView := newMFSView(n)
	for {
		k := m.k
		view := m.mfs
		if m.abandoned {
			view = emptyView
		}
		ck := generateCandidates(m.lk, view, k, m.removedAny, m.opt.DisableRecovery)
		if len(ck) == 0 && (m.abandoned || len(m.mfcs.Uncounted()) == 0) {
			return
		}
		phase := obsv.PhaseBottomUp
		if len(ck) == 0 {
			phase = obsv.PhaseMFCSCount
		} else if m.removedAny && !m.opt.DisableRecovery {
			phase = obsv.PhaseRecovery
		}
		// §3.5's degraded mode: with no MFCS to maintain, count two levels
		// per pass while the candidate sets stay small.
		combineThreshold := m.opt.CombineThreshold
		if combineThreshold <= 0 {
			combineThreshold = 10_000
		}
		if m.abandoned && m.opt.CombineAfterAbandon && len(ck) > 0 && len(ck) <= combineThreshold {
			speculative := generateCandidates(ck, emptyView, k+1, false, true)
			all := ck
			if len(speculative) > 0 {
				all = append(append([]itemset.Itemset(nil), ck...), speculative...)
			}
			m.beforePass(len(all))
			counts := m.countPass(all)
			var frequentCk, frequentSpec []itemset.Itemset
			for i, c := range ck {
				if counts[i] >= m.minCount {
					frequentCk = append(frequentCk, c)
					m.noteFrequent(c, counts[i])
				}
			}
			for i, c := range speculative {
				if counts[len(ck)+i] >= m.minCount {
					frequentSpec = append(frequentSpec, c)
					m.noteFrequent(c, counts[len(ck)+i])
				}
			}
			m.res.Stats.AddPass(mfi.PassStats{
				Candidates: len(all), Frequent: len(frequentCk) + len(frequentSpec),
			})
			m.emitPass(obsv.PhaseBottomUp)
			if len(frequentSpec) == 0 {
				// The speculative set contains every true next-level
				// candidate, so nothing survives above level k+1 either.
				return
			}
			m.k = k + 2 // this pass consumed two levels
			m.lk = frequentSpec
			m.removedAny = false
			m.checkpointNow()
			continue
		}
		m.beforePass(len(ck))
		counts := m.countPass(ck)
		found := m.harvest()
		var frequentCk, sk []itemset.Itemset
		for i, c := range ck {
			if counts[i] >= m.minCount {
				frequentCk = append(frequentCk, c)
				m.noteFrequent(c, counts[i])
			} else {
				sk = append(sk, c)
				m.cache[c.Key()] = counts[i]
			}
		}
		if !m.abandoned {
			m.mfcs.Update(sk)
			if m.mfcs.Exploded() {
				frequentCk = m.abandon(frequentCk)
				if m.fellBack {
					return
				}
			}
		}
		found += m.harvest()
		if m.mfsOverCap() {
			m.fallbackFullApriori()
			return
		}
		m.res.Stats.AddPass(mfi.PassStats{
			Candidates: len(ck), MFCSCandidates: m.lastMFCSCounted,
			Frequent: len(frequentCk), MFSFound: found,
		})
		m.emitPass(phase)
		m.removedAny = false
		if !m.abandoned {
			frequentCk, m.removedAny = m.filterByMFS(frequentCk)
		}
		m.lk = frequentCk
		m.k = k + 1
		m.checkpointNow()
	}
}

// tailPhase classifies whatever remains of the MFCS once the bottom-up
// search has exhausted its candidates. Infrequent elements are split one
// level at a time (the pure top-down step) and the new elements counted in
// MFCS-only passes until every element is frequent. This restores the
// Definition-1 invariant the paper's pseudocode can violate (DESIGN.md §2
// issue 2) and yields the exact-termination argument: at the end every
// MFCS element is frequent and the closure covers all frequent itemsets,
// so MFCS = MFS.
func (m *miner) tailPhase() {
	for tail := m.tailNum; ; tail++ {
		for _, e := range m.mfcs.Infrequent() {
			m.mfcs.SplitSelf(e)
			if m.mfcs.Exploded() {
				m.fallbackFullApriori()
				return
			}
		}
		found := m.harvest()
		if m.mfsOverCap() {
			m.fallbackFullApriori()
			return
		}
		uncounted := m.mfcs.Uncounted()
		if len(uncounted) == 0 {
			if len(m.mfcs.Infrequent()) == 0 {
				if found > 0 && len(m.res.Stats.PassDetails) > 0 {
					m.res.Stats.PassDetails[len(m.res.Stats.PassDetails)-1].MFSFound += found
				}
				return
			}
			continue // resolver classified everything; keep splitting
		}
		if m.opt.MaxTailPasses > 0 && tail > m.opt.MaxTailPasses {
			m.fallbackFullApriori()
			return
		}
		m.beforePass(0)
		m.countPass(nil)
		found += m.harvest()
		m.res.Stats.TailPasses++
		m.res.Stats.AddPass(mfi.PassStats{
			MFCSCandidates: m.lastMFCSCounted, MFSFound: found,
		})
		m.emitPass(obsv.PhaseTail)
		m.tailNum = tail + 1
		m.checkpointNow()
	}
}

// beforePass is the pass-boundary gate: context cancellation, the total-
// pass budget, the per-pass candidate budget (passes ≥ 3 only — passes 1
// and 2 count the fixed item/pair universe), and the approximate memory
// ceiling. Any trip raises the Abort sentinel, which mine() converts into
// a *mfi.PartialResultError carrying the anytime result.
func (m *miner) beforePass(candidates int) {
	mfi.CheckContext(m.ctx)
	if b := m.opt.MaxTotalPasses; b > 0 && m.res.Stats.Passes >= b {
		panic(&mfi.Abort{Reason: mfi.ReasonMaxPasses,
			Cause: fmt.Errorf("pass budget exhausted: %d passes completed", m.res.Stats.Passes)})
	}
	if b := m.opt.MaxCandidatesPerPass; b > 0 && candidates > b {
		panic(&mfi.Abort{Reason: mfi.ReasonMaxCandidates,
			Cause: fmt.Errorf("pass would count %d candidates, budget is %d", candidates, b)})
	}
	if b := m.opt.MaxMemoryBytes; b > 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > uint64(b) {
			panic(&mfi.Abort{Reason: mfi.ReasonMemory,
				Cause: fmt.Errorf("heap %d bytes exceeds ceiling %d", ms.HeapAlloc, b)})
		}
	}
}

// recoverAbort converts the Abort sentinel (raised directly by a boundary
// or budget check, or captured inside a counting worker and re-raised
// wrapped in a WorkerPanic) into a *mfi.PartialResultError assembled from
// the miner's best-so-far state; any other panic continues to the outer
// mfi.RecoverMiningError.
func (m *miner) recoverAbort(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	ab := mfi.AbortFrom(r)
	if ab == nil {
		panic(r)
	}
	m.res.Stats.Duration = time.Since(m.start)
	m.finish()
	if m.tracer != nil {
		m.tracer.RunDone(obsv.RunSummary{
			Algorithm: m.res.Stats.Algorithm, Passes: m.res.Stats.Passes,
			Candidates: m.res.Stats.Candidates, MFSSize: len(m.res.MFS),
			Duration: m.res.Stats.Duration,
			Aborted:  true, AbortReason: ab.Reason,
		})
	}
	*errp = &mfi.PartialResultError{
		Result: m.res,
		MFCS:   m.upperBound(),
		Pass:   m.res.Stats.Passes,
		Reason: ab.Reason,
		Cause:  ab.Cause,
	}
}

// upperBound returns the current anytime upper bound on the MFS: the MFCS
// elements (whose closure covers every actually-frequent itemset throughout
// the run — infrequent elements linger until split, so their still-viable
// subsets are covered too) merged with the harvested MFS. Nil once the
// adaptive policy abandoned the MFCS: no bound is maintained then.
func (m *miner) upperBound() []itemset.Itemset {
	if m.abandoned || m.mfcs == nil {
		return nil
	}
	sets := make([]itemset.Itemset, 0, m.mfcs.Len()+m.mfs.len())
	sets = append(sets, m.mfcs.Elements()...)
	sets = append(sets, m.mfs.sets...)
	return itemset.MaximalOnly(sets)
}

// checkpointNow offers the miner's state to the configured Checkpointer (a
// no-op without one), which writes it or, if it paces its writes, may hold
// it. A failed write aborts the run: a caller that asked for durability
// should not silently lose it.
func (m *miner) checkpointNow() {
	if m.cp == nil {
		return
	}
	start := time.Now()
	written, err := checkpoint.Offer(m.cp, m.snapshot())
	if err != nil {
		panic(&mfi.Abort{Reason: mfi.ReasonCheckpoint, Cause: err})
	}
	obsv.EmitCheckpoint(m.tracer, obsv.CheckpointEvent{
		Algorithm: m.res.Stats.Algorithm, Pass: m.res.Stats.Passes,
		Stage: m.stage.stageName(), Deferred: !written, Duration: time.Since(start),
	})
}

// snapshot captures everything run() carries across the current pass
// barrier. The pass-1 item array and pass-2 pair triangle are included
// because the support resolver answers from them for the rest of the run;
// without them a resumed run would recount resolved MFCS elements and its
// per-pass statistics would diverge from the uninterrupted run's.
func (m *miner) snapshot() *checkpoint.State {
	st := &checkpoint.State{
		Version:         checkpoint.Version,
		Algorithm:       m.res.Stats.Algorithm,
		MinCount:        m.minCount,
		NumTransactions: int64(m.sc.Len()),
		NumItems:        m.sc.NumItems(),
		Stage:           m.stage.stageName(),
		K:               m.k,
		Tail:            m.tailNum,
		Lk:              m.lk,
		RemovedAny:      m.removedAny,
		Abandoned:       m.abandoned,
		MFS:             m.mfs.sets,
		AllFrequent:     m.allFrequent,
		Cache:           m.cache,
		ItemCounts:      m.itemCounts,
		Stats:           m.res.Stats,
	}
	if m.tri != nil {
		universe, live, counts := m.tri.Snapshot()
		st.Pairs = &checkpoint.TriangleState{Universe: universe, Live: live, Counts: counts}
	}
	if !m.abandoned {
		st.MFCS = make([]checkpoint.MFCSElement, len(m.mfcs.elems))
		for i, e := range m.mfcs.elems {
			st.MFCS[i] = checkpoint.MFCSElement{
				Set: e.set, State: uint8(e.state), Count: e.count, Harvested: e.harvested,
			}
		}
	}
	return st
}

// mfsOverCap reports whether the discovered maximal-itemset count exceeds
// the adaptive MFSCap.
func (m *miner) mfsOverCap() bool {
	return !m.opt.Pure && m.opt.MFSCap > 0 && m.mfs.len() > m.opt.MFSCap
}

// abandon implements the adaptive fallback (paper §3.5): the MFCS has grown
// past its cap, so maintaining it is counterproductive. If no maximal
// frequent itemset has been discovered yet (the overwhelmingly common case
// — explosion happens on scattered data in pass 2), the bottom-up state is
// still complete and the run simply continues as Apriori; the unfiltered
// frequent set of the current pass is returned as the new L_k. Otherwise
// bottom-up completeness may already be compromised (subsets of MFS
// elements were pruned), and the run restarts as a full Apriori.
func (m *miner) abandon(frequentCk []itemset.Itemset) []itemset.Itemset {
	m.abandoned = true
	m.res.Stats.AdaptiveOff = true
	if m.mfs.len() == 0 {
		m.mfcs.Replace(nil) // release the exploded structure
		return frequentCk
	}
	m.fallbackFullApriori()
	return nil
}

// fallbackFullApriori produces a guaranteed-correct result by running the
// Apriori baseline, merging its statistics into this run's. It is the
// safety net for pathological configurations; none of the benchmark
// workloads trigger it. The sub-run inherits this run's context and
// counter, so cancellation still lands and a tid-list, partitioned or
// cluster run keeps counting its way, but never the Checkpointer: the
// fallback replays deterministically from the last Pincer checkpoint on
// resume.
func (m *miner) fallbackFullApriori() {
	m.fellBack = true
	m.res.Stats.AdaptiveOff = true
	aopt := apriori.DefaultOptions()
	aopt.Engine = m.opt.Engine
	aopt.KeepFrequent = m.opt.KeepFrequent
	aopt.Context = m.ctx
	aopt.CancelCheckEvery = m.opt.CancelCheckEvery
	aopt.Counter = m.opt.Counter
	ares, err := apriori.MineCount(m.sc, m.minCount, aopt)
	if err != nil {
		if pe, ok := err.(*mfi.PartialResultError); ok {
			// The sub-run was cancelled; re-raise as an Abort so this run's
			// own partial (the state before the fallback) is reported.
			panic(&mfi.Abort{Reason: pe.Reason, Cause: pe.Cause})
		}
		// Re-raise so this run's own mining boundary reports the error with
		// the merged statistics discarded, exactly as for a direct failure.
		panic(err)
	}
	for _, p := range ares.Stats.PassDetails {
		m.res.Stats.AddPass(mfi.PassStats{
			Candidates: p.Candidates, Frequent: p.Frequent, MFSFound: p.MFSFound,
		})
		// The sub-run's scan durations are not attributable pass-by-pass
		// here; events carry the merged accounting with a zero scan time.
		m.emitPass(obsv.PhaseBottomUp)
	}
	m.res.MFS = ares.MFS
	m.res.MFSSupports = ares.MFSSupports
	if m.opt.KeepFrequent {
		m.res.Frequent = ares.Frequent
	} else {
		m.res.Frequent = nil
	}
}

// finish assembles the final MFS. The MFCS termination argument makes
// m.mfs complete on its own; the explicitly discovered frequent itemsets
// are merged defensively (after an adaptive abandonment they are the sole
// source).
func (m *miner) finish() {
	all := make([]itemset.Itemset, 0, m.mfs.len()+len(m.allFrequent))
	all = append(all, m.mfs.sets...)
	all = append(all, m.allFrequent...)
	m.res.MFS = itemset.MaximalOnly(all)
	m.res.MFSSupports = make([]int64, len(m.res.MFS))
	for i, x := range m.res.MFS {
		m.res.MFSSupports[i] = m.cache[x.Key()]
	}
	if !m.opt.KeepFrequent {
		m.res.Frequent = nil
	}
}
