// Package topdown implements the "pure" top-down search of paper §3.1 as an
// ablation baseline: only Observation 2 (subsets of frequent itemsets are
// frequent) prunes the search. The frontier starts at the full item universe
// and is split one level per infrequent element, exactly the MFCS machinery
// with no bottom-up search feeding it.
//
// The paper argues (and the benchmarks confirm) that this direction alone is
// hopeless when maximal frequent itemsets are short: the frontier must creep
// down level by level from the top. It exists here to quantify that claim
// and to validate the MFCS mechanics in isolation.
package topdown

import (
	"context"
	"time"

	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
)

// Options configures the top-down miner.
type Options struct {
	// MaxElements aborts the run (returning an error result) when the
	// frontier grows past this size; the pure top-down frontier is
	// exponential on all but the most concentrated databases (0 = unlimited).
	MaxElements int
	// MaxPasses bounds the number of passes (0 = unlimited).
	MaxPasses int
	// Tracer receives per-pass trace events; nil disables tracing (no
	// timestamps are taken).
	Tracer obsv.Tracer
	// Context cancels the run at pass boundaries and inside scan loops;
	// cancellation surfaces as a *mfi.PartialResultError whose MFCS field
	// carries the live frontier joined with the maximal sets found — the
	// top-down upper bound at the moment of interruption.
	Context context.Context
	// Deadline, if positive, bounds the run's wall clock via a timeout
	// context derived from Context.
	Deadline time.Duration
	// CancelCheckEvery is the number of transactions between in-scan
	// context checks (default mfi.DefaultCancelCheckEvery).
	CancelCheckEvery int
}

// DefaultOptions returns a guarded configuration.
func DefaultOptions() Options {
	return Options{MaxElements: 1_000_000}
}

// frontierElement tracks one candidate maximal itemset.
type frontierElement struct {
	set  itemset.Itemset
	bits *itemset.Bitset
}

// Result extends the shared mining result with an abort flag.
type Result struct {
	mfi.Result
	// Aborted reports that the frontier exceeded Options.MaxElements and
	// the MFS is incomplete (a lower set of the true MFS).
	Aborted bool
}

// Mine runs the pure top-down search at a fractional minimum support. A
// non-nil error reports a mid-pass failure re-reading a file-backed
// database (see mfi.RecoverMiningError); in-memory scans cannot fail.
func Mine(sc dataset.Scanner, minSupport float64, opt Options) (*Result, error) {
	return MineCount(sc, dataset.MinCountFor(sc.Len(), minSupport), opt)
}

// MineCount runs the pure top-down search with an absolute threshold.
func MineCount(sc dataset.Scanner, minCount int64, opt Options) (_ *Result, err error) {
	defer mfi.RecoverMiningError(&err)
	ctx := opt.Context
	var cancel context.CancelFunc
	if opt.Deadline > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
	}
	if cancel != nil {
		defer cancel()
	}
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // uncancellable: skip every check
	}
	start := time.Now()
	res := &Result{Result: mfi.Result{
		MinCount:        minCount,
		NumTransactions: sc.Len(),
	}}
	res.Stats.Algorithm = "topdown"

	tr := opt.Tracer
	if tr != nil {
		tr.RunStart(obsv.RunInfo{
			Algorithm:       res.Stats.Algorithm,
			Workers:         1,
			MinCount:        minCount,
			NumTransactions: sc.Len(),
		})
	}

	n := sc.NumItems()
	mfs := itemset.NewSet(0)
	var mfsBits []*itemset.Bitset
	var mfsSupports []int64
	noteMaximal := func(e *frontierElement, count int64) {
		mfs.AddWithCount(e.set, count)
		mfsBits = append(mfsBits, e.bits)
		mfsSupports = append(mfsSupports, count)
	}
	coveredByMFS := func(b *itemset.Bitset) bool {
		for _, mb := range mfsBits {
			if b.IsSubsetOf(mb) {
				return true
			}
		}
		return false
	}

	frontier := []*frontierElement{}
	if n > 0 {
		u := itemset.Range(0, itemset.Item(n))
		frontier = append(frontier, &frontierElement{set: u, bits: itemset.BitsetOf(n, u)})
	}

	// finish assembles the result from whatever has been discovered so far;
	// it serves both the normal return and the abort recovery below.
	finish := func() {
		res.MFS = itemset.MaximalOnly(mfs.Sorted())
		res.MFSSupports = make([]int64, len(res.MFS))
		for i, m := range res.MFS {
			c, _ := mfs.Count(m)
			res.MFSSupports[i] = c
		}
		res.Frequent = mfs
		res.Stats.Duration = time.Since(start)
	}
	// Cancellation surfaces as an Abort panic from a pass boundary or a
	// mid-scan guard; convert it to a partial result whose MFCS bound is the
	// live frontier joined with the maximal sets already confirmed — every
	// frequent itemset is a subset of one of those.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ab := mfi.AbortFrom(r)
		if ab == nil {
			panic(r)
		}
		finish()
		if tr != nil {
			tr.RunDone(obsv.RunSummary{
				Algorithm:  res.Stats.Algorithm,
				Passes:     res.Stats.Passes,
				Candidates: res.Stats.Candidates,
				MFSSize:    len(res.MFS),
				Duration:   res.Stats.Duration,
				Aborted:    true, AbortReason: ab.Reason,
			})
		}
		// An exploded frontier would make the reported bound (and the
		// result document carrying it) arbitrarily large; past maxBound
		// elements collapse it to the frontier's union — every frontier
		// element is a subset of the union, so it stays a valid (coarser)
		// MFCS upper bound.
		const maxBound = 4096
		var bound []itemset.Itemset
		if len(frontier) > maxBound {
			var u itemset.Bitset
			for _, e := range frontier {
				u.Or(e.bits)
			}
			bound = append(bound, u.Items())
		} else {
			bound = make([]itemset.Itemset, 0, len(frontier)+len(res.MFS))
			for _, e := range frontier {
				bound = append(bound, e.set)
			}
		}
		bound = append(bound, res.MFS...)
		err = &mfi.PartialResultError{
			Result: &res.Result, MFCS: itemset.MaximalOnly(bound),
			Pass: res.Stats.Passes, Reason: ab.Reason, Cause: ab.Cause,
		}
	}()

	pc := counting.NewScanCounter(sc)
	if ctx != nil {
		pc.BindContext(ctx, opt.CancelCheckEvery)
	}
	seen := map[string]bool{}
	for len(frontier) > 0 {
		mfi.CheckContext(ctx)
		if opt.MaxPasses > 0 && res.Stats.Passes >= opt.MaxPasses {
			res.Aborted = true
			break
		}
		// Count the whole frontier in one pass. Frontier elements at the
		// same level form an antichain, so the trie counter is safe.
		sets := make([]itemset.Itemset, len(frontier))
		for i, e := range frontier {
			sets[i] = e.set
		}
		var counts []int64
		var scanDur time.Duration
		if tr == nil {
			counts, _ = pc.CountCandidates(counting.EngineTrie, sets, nil, nil)
		} else {
			t0 := time.Now()
			counts, _ = pc.CountCandidates(counting.EngineTrie, sets, nil, nil)
			scanDur = time.Since(t0)
		}
		// Past MaxElements the run ends after this pass, so splitting stops
		// there: the rest of the frontier is still classified (the pass's
		// statistics and MFS stay exact), but no frontier beyond the budget
		// is ever built.
		var next []*frontierElement
		full := func() bool { return opt.MaxElements > 0 && len(next) > opt.MaxElements }

		mfsFound := 0
		frequentHere := 0
		for i, e := range frontier {
			// The split below runs in memory with no database scan, and on
			// unconcentrated data it builds the next frontier toward
			// MaxElements — far longer than a scan. Without a periodic check
			// a deadline or cancel cannot preempt it.
			if i&0x3ff == 0 {
				mfi.CheckContext(ctx)
			}
			if counts[i] >= minCount {
				frequentHere++
				if !coveredByMFS(e.bits) {
					noteMaximal(e, counts[i])
					mfsFound++
				}
				continue
			}
			// split one level down
			for j := 0; j < len(e.set) && !full(); j++ {
				child := e.set.WithoutIndex(j)
				if len(child) == 0 {
					continue
				}
				key := child.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				cb := itemset.BitsetOf(n, child)
				if coveredByMFS(cb) {
					continue
				}
				next = append(next, &frontierElement{set: child, bits: cb})
			}
		}
		res.Stats.AddPass(mfi.PassStats{
			Candidates: len(frontier), Frequent: frequentHere, MFSFound: mfsFound,
		})
		if tr != nil {
			p := res.Stats.PassDetails[len(res.Stats.PassDetails)-1]
			// The frontier is this miner's top-down structure; report its
			// post-pass size in the MFCSSize slot.
			tr.PassDone(obsv.PassEvent{
				Algorithm:    res.Stats.Algorithm,
				Pass:         p.Pass,
				Phase:        obsv.PhaseMFCSCount,
				Candidates:   p.Candidates,
				MFCSSize:     len(next),
				Frequent:     p.Frequent,
				Infrequent:   p.Candidates - p.Frequent,
				MFSFound:     p.MFSFound,
				ScanDuration: scanDur,
				Workers:      1,
			})
		}
		if full() {
			res.Aborted = true
			break
		}
		frontier = next
	}

	finish()
	if tr != nil {
		tr.RunDone(obsv.RunSummary{
			Algorithm:  res.Stats.Algorithm,
			Passes:     res.Stats.Passes,
			Candidates: res.Stats.Candidates,
			MFSSize:    len(res.MFS),
			Duration:   res.Stats.Duration,
		})
	}
	return res, nil
}
