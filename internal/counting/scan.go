package counting

import (
	"context"

	"pincer/internal/dataset"
	"pincer/internal/itemset"
)

// PassCounter is the miners' injection seam for per-pass support counting.
// Each method performs the counting work of one database pass — pass 1
// (per-item array), pass 2 (triangular pair matrix), or a pass ≥ 3
// (candidate engine) — together with the support counts of the given MFCS
// elements, and is charged as exactly one database read by the miner's pass
// accounting.
//
// Implementations must return counts positionally parallel to their inputs
// and must be observationally equivalent to one sequential scan: identical
// counts, independent of transaction order or partitioning. The sequential
// default is NewScanCounter; internal/parallel feeds the same ScanCounter
// from horizontal partitions counted concurrently, TidListCounter answers by
// tidset intersection, and the cluster coordinator fans a pass out to
// worker nodes.
//
// elems is a list of mixed-length itemsets — the MFCS elements, for a
// miner — with elemBits their dense forms, parallel to elems; both may be
// empty. The list need not be an antichain: sets that are prefixes of one
// another and repeated sets are each counted exactly.
type PassCounter interface {
	// CountItems counts every item of the universe plus the elements.
	CountItems(numItems int, elems []itemset.Itemset, elemBits []*itemset.Bitset) (itemCounts, elemCounts []int64)
	// CountPairs counts every pair of live items plus the elements.
	CountPairs(numItems int, live itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) (*Triangle, []int64)
	// CountCandidates counts the bottom-up candidates with the given engine
	// plus the elements. candidates may be empty (MFCS-only tail passes).
	CountCandidates(engine Engine, candidates []itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) (candCounts, elemCounts []int64)
}

// ContextBinder is implemented by PassCounters that perform their own
// database scans and need the run's context for mid-scan cancellation
// checks (every checkEvery transactions, per worker for parallel
// counters). A miner calls it once, before the first pass, and only when
// the context can actually be cancelled.
type ContextBinder interface {
	BindContext(ctx context.Context, checkEvery int)
}

// WorkerCounted is implemented by PassCounters that distribute a pass over
// worker goroutines; miners report the count in trace events.
type WorkerCounted interface {
	// Workers returns the number of counting goroutines per pass.
	Workers() int
}

// WorkersOf reports how many goroutines pc counts with (1 unless it says
// otherwise).
func WorkersOf(pc PassCounter) int {
	if wc, ok := pc.(WorkerCounted); ok {
		if w := wc.Workers(); w > 0 {
			return w
		}
	}
	return 1
}

// directElemsMax is the element count up to which a pass counts MFCS
// elements by direct per-transaction bitset subset tests; above it a trie
// over the elements is cheaper. Either way the counts are identical.
const directElemsMax = 16

// DirectBits returns the dense forms over universe of elems when a
// ScanCounter pass tests them directly, and nil when there are more than
// directElemsMax, which the pass counts through its trie without reading
// their bitsets.
func DirectBits(universe int, elems []itemset.Itemset) []*itemset.Bitset {
	if len(elems) > directElemsMax {
		return nil
	}
	bits := make([]*itemset.Bitset, len(elems))
	for i, e := range elems {
		bits[i] = itemset.BitsetOf(universe, e)
	}
	return bits
}

// Feed is how one database pass's transactions reach the shards of a
// ScanCounter. Shards is the number of shards every pass is split into
// (at least 1). Pass runs one pass: for each shard it calls open(shard)
// once, on the goroutine that will feed that shard, and hands each of the
// shard's transactions to the returned function on the same goroutine; it
// returns when every shard has seen all of its transactions. bits is the
// dense form of tx and may be a buffer the feed reuses, so it must not
// outlive the call or cross a goroutine.
type Feed interface {
	Shards() int
	Pass(open func(shard int) func(tx itemset.Itemset, bits *itemset.Bitset))
}

// ScanCounter is the scan-counting PassCounter: each pass, every shard of
// its Feed adds its transactions to private counters — an item array, a
// Triangle shard, a shard of the candidate engine — and counts the
// elements, and the shards are summed at the barrier. Integer addition
// commutes, so the counts equal one sequential scan whatever the feed.
// Shards of one pass share read-only indexes (the triangle's live items,
// the candidate hash tree or trie) and write only their own state.
type ScanCounter struct {
	feed       Feed
	ctx        context.Context
	checkEvery int
}

// NewScanCounter returns the sequential scan counter over sc: one full scan
// per counting call on the calling goroutine, exactly the paper's counting
// procedure.
func NewScanCounter(sc dataset.Scanner) *ScanCounter {
	return NewFeedCounter(scanFeed{sc})
}

// NewFeedCounter returns the scan counter whose passes f feeds.
func NewFeedCounter(f Feed) *ScanCounter {
	return &ScanCounter{feed: f}
}

// BindContext implements ContextBinder: every shard checks ctx every
// checkEvery transactions it counts and aborts the pass with a Canceled
// panic once it is cancelled.
func (c *ScanCounter) BindContext(ctx context.Context, checkEvery int) {
	c.ctx = ctx
	c.checkEvery = checkEvery
}

// Workers implements WorkerCounted: the feed's shard count.
func (c *ScanCounter) Workers() int { return c.feed.Shards() }

// CountItems implements PassCounter (the pass-1 shape).
func (c *ScanCounter) CountItems(numItems int, elems []itemset.Itemset, elemBits []*itemset.Bitset) ([]int64, []int64) {
	arrays := make([]*ItemArray, c.feed.Shards())
	for s := range arrays {
		arrays[s] = NewItemArray(numItems)
	}
	elemCounts := c.pass(func(s int) adder { return arrays[s] }, elems, elemBits)
	for _, a := range arrays[1:] {
		arrays[0].Merge(a)
	}
	return arrays[0].Counts(), elemCounts
}

// CountPairs implements PassCounter (the pass-2 shape): Triangle shards
// over one live-item index.
func (c *ScanCounter) CountPairs(numItems int, live itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) (*Triangle, []int64) {
	tris := make([]*Triangle, c.feed.Shards())
	tris[0] = NewTriangle(numItems, live)
	for s := 1; s < len(tris); s++ {
		tris[s] = tris[0].Shard()
	}
	elemCounts := c.pass(func(s int) adder { return tris[s] }, elems, elemBits)
	for _, t := range tris[1:] {
		tris[0].Merge(t)
	}
	return tris[0], elemCounts
}

// CountCandidates implements PassCounter (the pass ≥ 3 shape).
func (c *ScanCounter) CountCandidates(engine Engine, candidates []itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) ([]int64, []int64) {
	if len(candidates) == 0 {
		return nil, c.pass(nil, elems, elemBits)
	}
	cands := NewSharded(engine, candidates, c.feed.Shards())
	elemCounts := c.pass(func(s int) adder { return cands.Shard(s) }, elems, elemBits)
	return cands.Counts(), elemCounts
}

// CountSets counts sets, with bits their dense forms (DirectBits), in a
// pass that counts nothing else, exactly as the passes above count their
// elements.
func (c *ScanCounter) CountSets(sets []itemset.Itemset, bits []*itemset.Bitset) []int64 {
	return c.pass(nil, sets, bits)
}

// adder is the per-transaction face of a pass's main counter.
type adder interface{ Add(tx itemset.Itemset) }

// pass runs one database pass, the body every counting call shares: each
// shard adds its transactions to counter(shard) (none when counter is nil)
// and counts the elements into private state, and the element counts are
// summed at the barrier. Up to directElemsMax elements are tested directly
// against the transaction's bitset; more go through a trie whose read-only
// index the shards share, and elemBits goes unread.
func (c *ScanCounter) pass(counter func(shard int) adder, elems []itemset.Itemset, elemBits []*itemset.Bitset) []int64 {
	shards := c.feed.Shards()
	var trie *Sharded
	var direct [][]int64
	if len(elems) > directElemsMax {
		trie = NewSharded(EngineTrie, elems, shards)
		elemBits = nil
	} else {
		direct = make([][]int64, shards)
		for s := range direct {
			direct[s] = make([]int64, len(elems))
		}
	}
	c.feed.Pass(func(s int) func(itemset.Itemset, *itemset.Bitset) {
		guard := newOpGuard(c.ctx, c.checkEvery)
		var main, elemTrie adder
		if counter != nil {
			main = counter(s)
		}
		if trie != nil {
			elemTrie = trie.Shard(s)
		}
		var counts []int64
		if direct != nil {
			counts = direct[s]
		}
		return func(tx itemset.Itemset, bits *itemset.Bitset) {
			guard.tick()
			if main != nil {
				main.Add(tx)
			}
			if elemTrie != nil {
				elemTrie.Add(tx)
			}
			for i, eb := range elemBits {
				if eb.IsSubsetOf(bits) {
					counts[i]++
				}
			}
		}
	})
	if trie != nil {
		return trie.Counts()
	}
	for _, d := range direct[1:] {
		SumInto(direct[0], d)
	}
	return direct[0]
}

// scanFeed is the sequential feed: a single shard fed by the Scanner on the
// calling goroutine.
type scanFeed struct{ sc dataset.Scanner }

func (f scanFeed) Shards() int { return 1 }

func (f scanFeed) Pass(open func(int) func(itemset.Itemset, *itemset.Bitset)) {
	f.sc.Scan(open(0))
}
