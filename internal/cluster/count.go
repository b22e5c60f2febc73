package cluster

import (
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
)

// countShard performs one request's counting over one shard — the pure
// procedure shared by the worker's count handler and the coordinators'
// local fallback, so a shard counted locally after node loss contributes
// exactly the bytes its worker would have. It is counting.ScanCounter's
// pass over a single-shard feed, the same pass body every in-process
// counter runs; the scanner's universe must equal req.NumItems so count
// vectors align positionally across shards.
//
// tick, when non-nil, is called once per scanned transaction; a non-nil
// return aborts the scan (the fault-injection mid-scan kill). The job
// coordinator's local path instead passes a tick that panics the typed
// mining abort on cancellation, matching in-process counters.
func countShard(sc *dataset.MemoryScanner, req *CountRequest, tick func() error) (*CountResponse, error) {
	resp := &CountResponse{ShardID: req.ShardID, Pass: req.Pass, Transactions: sc.Len()}
	feed := &shardFeed{sc: sc, tick: tick}
	c := counting.NewFeedCounter(feed)
	bits := counting.DirectBits(req.NumItems, req.Elems)
	switch req.Kind {
	case KindItems:
		resp.ItemCounts, resp.ElemCounts = c.CountItems(req.NumItems, req.Elems, bits)
	case KindPairs:
		var tri *counting.Triangle
		tri, resp.ElemCounts = c.CountPairs(req.NumItems, req.Live, req.Elems, bits)
		_, _, resp.PairCounts = tri.Snapshot()
	case KindCandidates:
		resp.CandCounts, resp.ElemCounts = c.CountCandidates(parseEngine(req.Engine), req.Candidates, req.Elems, bits)
	case KindSets:
		resp.ElemCounts = c.CountSets(req.Elems, bits)
	}
	if feed.abort != nil {
		return nil, feed.abort
	}
	return resp, nil
}

// shardFeed feeds one shard's scan to a single counting shard, calling tick
// before each transaction; the first error tick returns skips the rest of
// the scan and is kept in abort.
type shardFeed struct {
	sc    *dataset.MemoryScanner
	tick  func() error
	abort error
}

func (f *shardFeed) Shards() int { return 1 }

func (f *shardFeed) Pass(open func(int) func(itemset.Itemset, *itemset.Bitset)) {
	add := open(0)
	f.sc.Scan(func(tx itemset.Itemset, bits *itemset.Bitset) {
		if f.abort != nil {
			return
		}
		if f.tick != nil {
			if f.abort = f.tick(); f.abort != nil {
				return
			}
		}
		add(tx, bits)
	})
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
