package counting

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"pincer/internal/dataset"
	"pincer/internal/itemset"
)

// TidListOptions configures a TidListCounter.
type TidListOptions struct {
	// Workers is the number of counting goroutines per pass (≤ 1:
	// sequential). Work is split into contiguous chunks of the candidate /
	// element / pair-row space, so workers write disjoint count slots and no
	// merge step is needed.
	Workers int
	// Rep selects the tidset representation policy (default RepAuto).
	Rep RepMode
}

// TidListCounter is a vertical PassCounter for the pincer loop: instead of
// re-scanning the database each pass, it inverts the database once — on
// first use — into per-item tidsets and answers every later pass by
// intersecting them. A candidate {a,b,c,d} costs |t(abc) ∩ t(d)| computed
// along a shared prefix stack, so a sorted candidate list reuses each prefix
// intersection across all candidates sharing it; the final item is always a
// cardinality-only kernel, so no output tidset is materialized for it.
//
// The counter is observationally equivalent to a sequential scan: counts are
// exact and independent of worker count and representation, so the miner's
// every decision — and its per-pass statistics — are unchanged. Only where
// the counts come from differs, which is the point: the miner still charges
// one "pass" per counting call, but only the first call reads the database.
//
// It implements PassCounter, ContextBinder, WorkerCounted, and
// core.IntersectionReporter.
type TidListCounter struct {
	d   *dataset.Dataset
	opt TidListOptions

	ctx        context.Context
	checkEvery int

	once  sync.Once
	numTx int
	items []TidSet

	mu    sync.Mutex
	stats IntersectionStats

	pool sync.Pool
}

// NewTidListCounter builds a vertical counter over d. The per-item index is
// built lazily on the first counting call (a resumed run may never make the
// pass-1 call), with the representation of each item's tidset chosen by
// opt.Rep.
func NewTidListCounter(d *dataset.Dataset, opt TidListOptions) *TidListCounter {
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	return &TidListCounter{d: d, opt: opt}
}

// Workers implements WorkerCounted.
func (c *TidListCounter) Workers() int { return c.opt.Workers }

// BindContext implements ContextBinder: each worker checks the context
// every checkEvery kernel operations (the vertical analogue of "every N
// transactions") and aborts the pass when it is cancelled.
func (c *TidListCounter) BindContext(ctx context.Context, checkEvery int) {
	c.ctx = ctx
	c.checkEvery = checkEvery
}

// TakeIntersections implements core.IntersectionReporter: it returns the
// kernel-operation statistics accumulated since the last take and resets
// them, so each pass's trace event carries that pass's figures alone.
func (c *TidListCounter) TakeIntersections() IntersectionStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	c.stats = IntersectionStats{}
	return st
}

// ensureIndex inverts the database into per-item tidsets, once.
func (c *TidListCounter) ensureIndex() {
	c.once.Do(func() {
		c.numTx = c.d.Len()
		n := c.d.NumItems()
		counts := c.d.ItemCounts()
		lists := make([][]int32, n)
		for i, cnt := range counts {
			if cnt > 0 {
				lists[i] = make([]int32, 0, cnt)
			}
		}
		for ti, tx := range c.d.Transactions() {
			for _, it := range tx {
				lists[it] = append(lists[it], int32(ti))
			}
		}
		space := NewTidSpace(c.numTx, c.opt.Rep)
		c.items = make([]TidSet, n)
		for i := range lists {
			c.items[i] = space.FromList(lists[i])
		}
	})
}

// emptyTidSet answers lookups of items outside the indexed universe.
var emptyTidSet TidSet

// item returns item x's tidset.
func (c *TidListCounter) item(x itemset.Item) *TidSet {
	if int(x) < len(c.items) {
		return &c.items[int(x)]
	}
	return &emptyTidSet
}

// CountItems implements the pass-1 shape: item supports are the tidset
// cardinalities, free once the index exists.
func (c *TidListCounter) CountItems(numItems int, elems []itemset.Itemset, elemBits []*itemset.Bitset) ([]int64, []int64) {
	c.ensureIndex()
	itemCounts := make([]int64, numItems)
	for i := range itemCounts {
		if i < len(c.items) {
			itemCounts[i] = int64(c.items[i].card)
		}
	}
	return itemCounts, c.countElems(elems)
}

// CountPairs implements the pass-2 shape: every live pair is one
// cardinality-only intersection. Workers stride the triangle's rows (row i
// has n−1−i cells, so striding balances the skew) and write disjoint cells.
func (c *TidListCounter) CountPairs(numItems int, live itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) (*Triangle, []int64) {
	c.ensureIndex()
	tri := NewTriangle(numItems, live)
	n := len(live)
	w := c.opt.Workers
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	c.fanOut(w, func(wi int) {
		walker := c.getWalker()
		defer c.putWalker(walker)
		guard := c.guard()
		for i := wi; i < n; i += w {
			a := c.item(live[i])
			for j := i + 1; j < n; j++ {
				guard.tick()
				tri.AddCount(live[i], live[j], int64(walker.space.AndCard(a, c.item(live[j]))))
			}
		}
	})
	return tri, c.countElems(elems)
}

// CountCandidates implements the pass ≥ 3 shape. The engine argument is
// irrelevant to vertical counting (there is no per-transaction candidate
// structure) and is ignored. Candidates are processed in lexicographic
// order so the prefix stack is shared maximally; the counts are written
// back through the sort permutation, so the returned slice is positional
// like every other PassCounter's.
func (c *TidListCounter) CountCandidates(engine Engine, candidates []itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) ([]int64, []int64) {
	c.ensureIndex()
	var candCounts []int64
	if len(candidates) > 0 {
		candCounts = make([]int64, len(candidates))
		order := sortedOrder(candidates)
		c.inChunks(len(order), func(lo, hi int) {
			w := c.getWalker()
			defer c.putWalker(w)
			guard := c.guard()
			for _, pos := range order[lo:hi] {
				guard.tick()
				candCounts[pos] = w.countCandidate(c, candidates[pos])
			}
		})
	}
	return candCounts, c.countElems(elems)
}

// countElems counts the MFCS elements by chain-intersecting their member
// items' tidsets, starting from the smallest. An element containing an item
// of zero support — the common fate of the initial full-universe element —
// is classified with no kernel work at all.
func (c *TidListCounter) countElems(elems []itemset.Itemset) []int64 {
	counts := make([]int64, len(elems))
	if len(elems) == 0 {
		return counts
	}
	c.inChunks(len(elems), func(lo, hi int) {
		w := c.getWalker()
		defer c.putWalker(w)
		guard := c.guard()
		for i := lo; i < hi; i++ {
			guard.tick()
			counts[i] = w.countElem(c, elems[i])
		}
	})
	return counts
}

// inChunks splits [0, n) into contiguous per-worker chunks and runs fn on
// each; with one worker it runs inline, spawning nothing.
func (c *TidListCounter) inChunks(n int, fn func(lo, hi int)) {
	w := c.opt.Workers
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	c.fanOut(w, func(wi int) {
		fn(wi*n/w, (wi+1)*n/w)
	})
}

// fanOut runs fn(0..w-1) on w goroutines, re-raising the first captured
// panic on the calling (mining) goroutine: a Canceled sentinel unwinds into
// the miner's partial-result recovery, anything else is a programmer error
// and propagates exactly as it would from a sequential counter.
func (c *TidListCounter) fanOut(w int, fn func(wi int)) {
	if w <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	var once sync.Once
	var failure interface{}
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { failure = r })
				}
			}()
			fn(wi)
		}(i)
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
}

// getWalker draws a walker from the pool, resetting its per-candidate state
// and giving it a fresh stats window.
func (c *TidListCounter) getWalker() *tlWalker {
	w, _ := c.pool.Get().(*tlWalker)
	if w == nil || w.space == nil || w.space.NumTx != c.numTx || w.space.Mode != c.opt.Rep {
		w = &tlWalker{space: NewTidSpace(c.numTx, c.opt.Rep)}
	} else {
		w.space.Stats = IntersectionStats{}
	}
	w.depth = 0
	w.prev = w.prev[:0]
	return w
}

// putWalker folds the walker's stats into the counter's and returns it to
// the pool (buffers intact — the steady state allocates nothing).
func (c *TidListCounter) putWalker(w *tlWalker) {
	c.mu.Lock()
	c.stats.Add(w.space.Stats)
	c.mu.Unlock()
	c.pool.Put(w)
}

// sortedOrder returns the candidate indices in lexicographic candidate
// order, skipping the sort when the list already is (the generator's usual
// output; combined two-level passes are the exception).
func sortedOrder(cands []itemset.Itemset) []int32 {
	order := make([]int32, len(cands))
	sorted := true
	for i := range order {
		order[i] = int32(i)
		if i > 0 && cands[i-1].Compare(cands[i]) > 0 {
			sorted = false
		}
	}
	if !sorted {
		sort.Slice(order, func(i, j int) bool {
			return cands[order[i]].Compare(cands[order[j]]) < 0
		})
	}
	return order
}

// tlLevel is one materialized prefix of the walker's stack. Level j covers
// the prefix cand[0..j+2) — level 0 is the first pair — and holds either
// its explicit tidset or, under RepDiffset, its diffset against the nearest
// explicit ancestor level (anchor): t(P_j) = set(anchor) \ diff_j.
type tlLevel struct {
	set    TidSet
	diff   TidSet
	isDiff bool
	anchor int
}

// tlWalker is the per-worker counting state: the prefix stack, scratch
// buffers, and the previous candidate for prefix sharing. Walkers are pooled
// and their buffers reused, so steady-state candidate counting allocates
// nothing.
type tlWalker struct {
	space   *TidSpace
	levels  []tlLevel
	scratch TidSet
	acc     TidSet
	acc2    TidSet
	prev    itemset.Itemset
	depth   int // number of valid levels for prev
}

// countCandidate returns the support of cand, reusing the prefix stack from
// the previous candidate up to their longest common prefix.
func (w *tlWalker) countCandidate(c *TidListCounter, cand itemset.Itemset) int64 {
	L := len(cand)
	switch L {
	case 0:
		return int64(c.numTx)
	case 1:
		return int64(c.item(cand[0]).card)
	case 2:
		return int64(w.space.AndCard(c.item(cand[0]), c.item(cand[1])))
	}
	lcp := 0
	for lcp < len(w.prev) && lcp < L && w.prev[lcp] == cand[lcp] {
		lcp++
	}
	keep := lcp - 1 // level j is shared iff j+2 ≤ lcp
	if keep > w.depth {
		keep = w.depth
	}
	if keep < 0 {
		keep = 0
	}
	for j := keep; j <= L-3; j++ {
		w.buildLevel(c, cand, j)
	}
	w.depth = L - 2
	w.prev = append(w.prev[:0], cand...)
	return w.finalCount(c, L-3, cand[L-1])
}

// buildLevel materializes level j (the prefix cand[0..j+2)) from level j−1.
func (w *tlWalker) buildLevel(c *TidListCounter, cand itemset.Itemset, j int) {
	for len(w.levels) <= j {
		w.levels = append(w.levels, tlLevel{})
	}
	lv := &w.levels[j]
	tx := c.item(cand[j+1])
	if j == 0 {
		w.space.And(&lv.set, c.item(cand[0]), tx)
		lv.isDiff = false
		return
	}
	parent := &w.levels[j-1]
	if w.space.Mode != RepDiffset {
		w.space.And(&lv.set, &parent.set, tx)
		lv.isDiff = false
		return
	}
	// dEclat deltas: keep only the diffset against the nearest explicit
	// ancestor A. t(P_j) = t(A) \ D_j with
	//   D_j = D_{j-1} ∪ (t(A) \ t(x))          [D_0 at the switch = t(A)\t(x)]
	// — both identities from d(PX) = t(P) \ t(PX).
	if !parent.isDiff {
		lv.anchor = j - 1
		w.space.Diff(&lv.diff, &parent.set, tx)
	} else {
		lv.anchor = parent.anchor
		w.space.Diff(&w.scratch, &w.levels[parent.anchor].set, tx)
		w.space.Or(&lv.diff, &parent.diff, &w.scratch)
	}
	lv.isDiff = true
}

// finalCount counts prefix-level j extended by the last item y, without
// materializing anything. With a diffset level, D ⊆ t(A) gives
// |t(P) ∩ t(y)| = |t(A) ∩ t(y)| − |D ∩ t(y)|.
func (w *tlWalker) finalCount(c *TidListCounter, j int, y itemset.Item) int64 {
	lv := &w.levels[j]
	ty := c.item(y)
	if !lv.isDiff {
		return int64(w.space.AndCard(&lv.set, ty))
	}
	w.space.Stats.Diffset++
	return int64(w.space.AndCard(&w.levels[lv.anchor].set, ty)) - int64(w.space.AndCard(&lv.diff, ty))
}

// countElem returns the support of one MFCS element by chain-intersecting
// its items' tidsets, smallest first, with an early exit at zero.
func (w *tlWalker) countElem(c *TidListCounter, e itemset.Itemset) int64 {
	switch len(e) {
	case 0:
		return int64(c.numTx)
	case 1:
		return int64(c.item(e[0]).card)
	}
	minIdx := 0
	for i := 1; i < len(e); i++ {
		if c.item(e[i]).card < c.item(e[minIdx]).card {
			minIdx = i
		}
	}
	if c.item(e[minIdx]).card == 0 {
		return 0
	}
	if len(e) == 2 {
		return int64(w.space.AndCard(c.item(e[0]), c.item(e[1])))
	}
	src := c.item(e[minIdx])
	for i, it := range e {
		if i == minIdx {
			continue
		}
		dst := &w.acc
		if src == &w.acc {
			dst = &w.acc2
		}
		w.space.And(dst, src, c.item(it))
		if dst.card == 0 {
			return 0
		}
		src = dst
	}
	return int64(src.card)
}

// Canceled is the panic sentinel the counters' guards raise when their
// bound context is cancelled mid-pass (every N kernel operations of a
// tid-list pass, every N transactions of a scan shard). The mining layer
// (mfi.AbortFrom) converts it into its abort sentinel, so a cancelled pass
// surfaces as a partial result whichever counter ran it.
type Canceled struct{ Err error }

// Error implements error.
func (c *Canceled) Error() string { return fmt.Sprintf("counting: pass cancelled: %v", c.Err) }

// Unwrap exposes the context error.
func (c *Canceled) Unwrap() error { return c.Err }

// opGuard checks a context every `every` operations (kernel operations or
// scanned transactions). A nil guard is valid and free.
type opGuard struct {
	ctx   context.Context
	every int
	n     int
}

// guard builds the per-worker cancellation guard (nil when no context is
// bound).
func (c *TidListCounter) guard() *opGuard { return newOpGuard(c.ctx, c.checkEvery) }

// newOpGuard builds a guard checking ctx every `every` operations (≤ 0:
// 1024); it is nil when ctx is.
func newOpGuard(ctx context.Context, every int) *opGuard {
	if ctx == nil {
		return nil
	}
	if every <= 0 {
		every = 1024
	}
	return &opGuard{ctx: ctx, every: every}
}

// tick registers one operation, panicking with Canceled when the context
// was cancelled and a check is due.
func (g *opGuard) tick() {
	if g == nil {
		return
	}
	g.n++
	if g.n < g.every {
		return
	}
	g.n = 0
	if err := g.ctx.Err(); err != nil {
		panic(&Canceled{Err: err})
	}
}
