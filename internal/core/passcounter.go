package core

import (
	"time"

	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
)

// PassCounter is the miner's injection seam for per-pass support counting
// (see counting.PassCounter). The sequential default is NewScanCounter;
// internal/parallel's counters, counting.TidListCounter and the cluster
// coordinator are the others. ContextBinder and WorkerCounted are the
// optional interfaces the miner asks a counter for.
type (
	PassCounter   = counting.PassCounter
	ContextBinder = counting.ContextBinder
	WorkerCounted = counting.WorkerCounted
)

// IntersectionReporter is implemented by PassCounters that determine
// supports by tidset intersection (counting.TidListCounter) instead of by
// scanning the database. TakeIntersections drains the kernel-operation
// statistics accumulated since the previous call, so the miner can
// attribute them to the pass that just finished and surface them in trace
// events. Scan-based counters simply don't implement it.
type IntersectionReporter interface {
	TakeIntersections() counting.IntersectionStats
}

// timedPassCounter decorates a PassCounter with per-call wall-clock
// measurement — the tracing hook at the PassCounter seam. It is installed
// only when a Tracer is configured, so untraced runs keep the undecorated
// counter and take no timestamps.
type timedPassCounter struct {
	pc   PassCounter
	last time.Duration
}

// take returns the duration of the most recent pass and resets it, so a
// pass that performs no database read reports zero.
func (t *timedPassCounter) take() time.Duration {
	d := t.last
	t.last = 0
	return d
}

func (t *timedPassCounter) CountItems(numItems int, elems []itemset.Itemset, elemBits []*itemset.Bitset) ([]int64, []int64) {
	start := time.Now()
	itemCounts, elemCounts := t.pc.CountItems(numItems, elems, elemBits)
	t.last = time.Since(start)
	return itemCounts, elemCounts
}

func (t *timedPassCounter) CountPairs(numItems int, live itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) (*counting.Triangle, []int64) {
	start := time.Now()
	tri, elemCounts := t.pc.CountPairs(numItems, live, elems, elemBits)
	t.last = time.Since(start)
	return tri, elemCounts
}

func (t *timedPassCounter) CountCandidates(engine counting.Engine, candidates []itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) ([]int64, []int64) {
	start := time.Now()
	candCounts, elemCounts := t.pc.CountCandidates(engine, candidates, elems, elemBits)
	t.last = time.Since(start)
	return candCounts, elemCounts
}

// Workers delegates to the wrapped counter.
func (t *timedPassCounter) Workers() int { return counting.WorkersOf(t.pc) }

// TakeIntersections delegates to the wrapped counter; for scan counters it
// reports zero stats, which the trace layer omits.
func (t *timedPassCounter) TakeIntersections() counting.IntersectionStats {
	if ir, ok := t.pc.(IntersectionReporter); ok {
		return ir.TakeIntersections()
	}
	return counting.IntersectionStats{}
}

// NewScanCounter returns the default sequential PassCounter over sc — one
// full scan per counting call, exactly the paper's procedure. It is what a
// miner uses when Options.Counter is nil; the constructor exists so other
// packages (internal/incremental's delta verification) can drive the same
// counting path over ad-hoc datasets without a miner in the loop.
func NewScanCounter(sc dataset.Scanner) PassCounter {
	return counting.NewScanCounter(sc)
}

// elemSets extracts the itemset and bitset forms of uncounted MFCS elements
// for a PassCounter call.
func elemSets(uncounted []*element) ([]itemset.Itemset, []*itemset.Bitset) {
	if len(uncounted) == 0 {
		return nil, nil
	}
	sets := make([]itemset.Itemset, len(uncounted))
	bits := make([]*itemset.Bitset, len(uncounted))
	for i, e := range uncounted {
		sets[i] = e.set
		bits[i] = e.bits
	}
	return sets, bits
}
