package cluster

import (
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
)

// directElemsMax mirrors core's threshold: up to this many MFCS elements
// are counted by direct per-transaction bitset subset tests, above it a
// trie over the elements is cheaper. The counts are identical either way.
const directElemsMax = 16

// countShard performs one request's counting over one shard — the pure
// procedure shared by the worker's count handler and the coordinators'
// local fallback, so a shard counted locally after node loss contributes
// exactly the bytes its worker would have. It mirrors core's sequential
// PassCounter kind by kind; the scanner's universe must equal
// req.NumItems so count vectors align positionally across shards.
//
// tick, when non-nil, is called once per scanned transaction; a non-nil
// return aborts the scan (the fault-injection mid-scan kill). The job
// coordinator's local path instead passes a tick that panics the typed
// mining abort on cancellation, matching in-process counters.
func countShard(sc *dataset.MemoryScanner, req *CountRequest, tick func() error) (*CountResponse, error) {
	resp := &CountResponse{ShardID: req.ShardID, Pass: req.Pass, Transactions: sc.Len()}
	var add func(tx itemset.Itemset)
	var finish func()
	switch req.Kind {
	case KindItems:
		array := counting.NewItemArray(req.NumItems)
		add = array.Add
		finish = func() { resp.ItemCounts = array.Counts() }
	case KindPairs:
		tri := counting.NewTriangle(req.NumItems, req.Live)
		add = tri.Add
		finish = func() { _, _, resp.PairCounts = tri.Snapshot() }
	case KindCandidates:
		if len(req.Candidates) > 0 {
			counter := counting.NewCounter(parseEngine(req.Engine), req.Candidates)
			add = counter.Add
			finish = func() { resp.CandCounts = counter.Counts() }
		}
	}

	// Elements are counted by direct subset tests, except for many MFCS
	// elements on a candidates pass: those form an antichain, so the trie
	// handles their mixed lengths safely (same rationale as core). KindSets
	// promises no antichain, so it always tests directly.
	var elemTrie counting.Counter
	var elemBits []*itemset.Bitset
	elemCounts := make([]int64, len(req.Elems))
	if req.Kind == KindCandidates && len(req.Elems) > directElemsMax {
		elemTrie = counting.NewTrie(req.Elems)
	} else {
		elemBits = bitsetsOf(req.NumItems, req.Elems)
	}

	var abort error
	sc.Scan(func(tx itemset.Itemset, bits *itemset.Bitset) {
		if abort != nil {
			return
		}
		if tick != nil {
			if abort = tick(); abort != nil {
				return
			}
		}
		if add != nil {
			add(tx)
		}
		if elemTrie != nil {
			elemTrie.Add(tx)
		}
		for i, eb := range elemBits {
			if eb.IsSubsetOf(bits) {
				elemCounts[i]++
			}
		}
	})
	if abort != nil {
		return nil, abort
	}
	if finish != nil {
		finish()
	}
	if elemTrie != nil {
		elemCounts = elemTrie.Counts()
	}
	resp.ElemCounts = elemCounts
	return resp, nil
}

// bitsetsOf builds the dense forms of sets over the given universe.
func bitsetsOf(universe int, sets []itemset.Itemset) []*itemset.Bitset {
	if len(sets) == 0 {
		return nil
	}
	out := make([]*itemset.Bitset, len(sets))
	for i, s := range sets {
		out[i] = itemset.BitsetOf(universe, s)
	}
	return out
}

// parseEngine maps a validated wire engine name to the counting engine
// ("" = hashtree, the default).
func parseEngine(name string) counting.Engine {
	if name == "" {
		return counting.EngineHashTree
	}
	e, _ := counting.ParseEngine(name)
	return e
}
