package counting

import (
	"pincer/internal/itemset"
)

// SumInto adds src into dst element-wise. It is the merge step of
// count-distribution parallel counting; both slices must have equal length.
// A length mismatch — a counter merged against the wrong candidate list —
// raises a *MismatchError panic, which the mining boundary converts into a
// returned error (see mfi.RecoverMiningError).
func SumInto(dst, src []int64) {
	if len(dst) != len(src) {
		panic(&MismatchError{Op: "SumInto", Want: len(dst), Got: len(src)})
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Sharded counts one candidate list across multiple workers with zero
// per-transaction synchronization. Every worker owns a private Counter
// shard; for the hash tree and trie engines the shards share a single
// read-only candidate index built once, and each shard holds only its
// private count (and, for the hash tree, visit-stamp) arrays. Counts sums
// the shards at the pass barrier.
//
// Protocol: construct, hand shard w to exactly one goroutine, wait for all
// goroutines, then call Counts. No shard may be used by two goroutines, and
// Counts must not run concurrently with Add.
type Sharded struct {
	candidates []itemset.Itemset
	shards     []Counter
}

// NewSharded builds a sharded counter with one shard per worker.
func NewSharded(e Engine, candidates []itemset.Itemset, workers int) *Sharded {
	if workers < 1 {
		workers = 1
	}
	s := &Sharded{candidates: candidates, shards: make([]Counter, workers)}
	switch e {
	case EngineHashTree:
		base := NewHashTree(candidates)
		s.shards[0] = base
		for w := 1; w < workers; w++ {
			s.shards[w] = base.shard()
		}
	case EngineTrie:
		base := NewTrie(candidates)
		s.shards[0] = base
		for w := 1; w < workers; w++ {
			s.shards[w] = base.shard()
		}
	default:
		// The list engine has no index to share (its per-shard state is the
		// count array itself); unknown engines panic in NewCounter.
		for w := range s.shards {
			s.shards[w] = NewCounter(e, candidates)
		}
	}
	return s
}

// Shard returns worker w's private counter.
func (s *Sharded) Shard(w int) Counter { return s.shards[w] }

// Workers returns the number of shards.
func (s *Sharded) Workers() int { return len(s.shards) }

// Counts implements Counter: the per-shard counts summed (a single shard's
// are returned as they are).
func (s *Sharded) Counts() []int64 {
	if len(s.shards) == 1 {
		return s.shards[0].Counts()
	}
	total := make([]int64, len(s.candidates))
	for _, sh := range s.shards {
		SumInto(total, sh.Counts())
	}
	return total
}

// NumCandidates implements Counter.
func (s *Sharded) NumCandidates() int { return len(s.candidates) }

// Add implements Counter by counting on shard 0, so a Sharded used from a
// single goroutine still behaves as an ordinary Counter.
func (s *Sharded) Add(tx itemset.Itemset) { s.shards[0].Add(tx) }
