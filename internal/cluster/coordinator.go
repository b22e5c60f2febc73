package cluster

import (
	"context"
	"math/rand"

	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
)

// Doc summarizes a coordinator's distributed run for the result document:
// cluster shape, RPC accounting, and whether (and why) the run degraded to
// local counting.
type Doc struct {
	// Workers is the configured worker count; LiveWorkers the live count
	// when the run finished.
	Workers     int `json:"workers"`
	LiveWorkers int `json:"live_workers"`
	Shards      int `json:"shards"`
	Passes      int `json:"passes"`
	// RPCs / Retries / DuplicateReplies account the count-and-load RPC
	// traffic of this job (retries are attempts beyond a shard's first).
	RPCs             int64 `json:"rpcs"`
	Retries          int64 `json:"retries,omitempty"`
	DuplicateReplies int64 `json:"duplicate_replies,omitempty"`
	// WorkerDeaths and Reassignments record the node-loss handling the
	// job performed.
	WorkerDeaths  int64 `json:"worker_deaths,omitempty"`
	Reassignments int64 `json:"reassignments,omitempty"`
	// LocalShardCounts is the number of shard passes the coordinator
	// counted itself (orphaned shards and degraded passes).
	LocalShardCounts int64 `json:"local_shard_counts,omitempty"`
	// Degraded reports the job fell below quorum and finished with local
	// counting; DegradedReason/DegradedPass say why and when.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	DegradedPass   int    `json:"degraded_pass,omitempty"`
}

// Coordinator implements core.PassCounter over a Pool: each pass fans the
// candidate set out to the workers holding the dataset's shards and merges
// their count vectors at the barrier. It also implements core's
// ContextBinder and WorkerCounted optional interfaces.
//
// Its policy over the shared fan-out: degradation below quorum is sticky
// for the job's life, dead owners' shards are reassigned at every pass
// barrier, and cancellation raises the same typed abort as in-process
// counters. A coordinator is built per job and is driven from the mining
// goroutine; its own fan-out goroutines never outlive a pass.
type Coordinator struct {
	fanout
	jobID  string
	shards []*shardState
}

// NewCoordinator shards the dataset over the pool's workers and returns
// the PassCounter to inject into the mining options. Sharding is
// deterministic (contiguous partitions, content-addressed); assignment
// spreads shards round-robin over the workers live at build time, and
// every shard is also retained locally so any shard can be counted by the
// coordinator when no worker can serve it.
func NewCoordinator(jobID string, d *dataset.Dataset, pool *Pool, tracer obsv.Tracer) (*Coordinator, error) {
	// An empty live set leaves the shards unowned: the first pass barrier
	// reassigns them or degrades.
	shards := shardDataset(d, len(pool.Workers())*pool.cfg.ShardsPerWorker, pool.Live())
	return &Coordinator{
		fanout: fanout{pool: pool, tracer: tracer, ctx: context.Background(), rng: rand.New(rand.NewSource(seedFrom(jobID)))},
		jobID:  jobID,
		shards: shards,
	}, nil
}

// Workers implements core.WorkerCounted: the counting fan-out width.
func (c *Coordinator) Workers() int {
	if n := len(c.pool.Live()); n > 0 {
		return n
	}
	return 1
}

// Doc returns the run summary (safe to call after mining finished).
func (c *Coordinator) Doc() *Doc {
	c.mu.Lock()
	t := c.tally
	c.mu.Unlock()
	return &Doc{
		Workers:          len(c.pool.Workers()),
		LiveWorkers:      len(c.pool.Live()),
		Shards:           len(c.shards),
		Passes:           int(t.counts),
		RPCs:             t.rpcs,
		Retries:          t.retries,
		DuplicateReplies: t.duplicates,
		WorkerDeaths:     t.deaths,
		Reassignments:    t.reassignments,
		LocalShardCounts: t.local,
		Degraded:         t.degraded,
		DegradedReason:   t.degradedReason,
		DegradedPass:     t.degradedPass,
	}
}

// CountItems implements core.PassCounter.
func (c *Coordinator) CountItems(numItems int, elems []itemset.Itemset, elemBits []*itemset.Bitset) ([]int64, []int64) {
	resps := c.runPass(&CountRequest{Kind: KindItems, NumItems: numItems, Elems: elems})
	itemCounts := make([]int64, numItems)
	elemCounts := make([]int64, len(elems))
	for _, r := range resps {
		counting.SumInto(itemCounts, r.ItemCounts)
		counting.SumInto(elemCounts, r.ElemCounts)
	}
	return itemCounts, elemCounts
}

// CountPairs implements core.PassCounter.
func (c *Coordinator) CountPairs(numItems int, live itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) (*counting.Triangle, []int64) {
	resps := c.runPass(&CountRequest{Kind: KindPairs, NumItems: numItems, Live: live, Elems: elems})
	tri := counting.NewTriangle(numItems, live)
	elemCounts := make([]int64, len(elems))
	for _, r := range resps {
		tri.Merge(counting.RestoreTriangle(numItems, live, r.PairCounts))
		counting.SumInto(elemCounts, r.ElemCounts)
	}
	return tri, elemCounts
}

// CountCandidates implements core.PassCounter.
func (c *Coordinator) CountCandidates(engine counting.Engine, candidates []itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) ([]int64, []int64) {
	resps := c.runPass(&CountRequest{
		Kind:       KindCandidates,
		NumItems:   c.shards[0].data.NumItems(),
		Engine:     engine.String(),
		Candidates: candidates,
		Elems:      elems,
	})
	var candCounts []int64
	if len(candidates) > 0 {
		candCounts = make([]int64, len(candidates))
	}
	elemCounts := make([]int64, len(elems))
	for _, r := range resps {
		counting.SumInto(candCounts, r.CandCounts)
		counting.SumInto(elemCounts, r.ElemCounts)
	}
	return candCounts, elemCounts
}

// runPass executes one pass barrier: quorum check, shard reassignment away
// from dead workers, the fan-out, and the join. It returns exactly one
// response per shard — remote or, when a shard exhausts the live workers,
// locally counted — so the merge is structurally immune to
// double-counting. Cancellation unwinds with the same typed abort as
// in-process counters, from the mining goroutine only.
func (c *Coordinator) runPass(req *CountRequest) []*CountResponse {
	c.note(func(t *tally) { t.counts++; req.Pass = int(t.counts) })
	req.JobID = c.jobID

	mfi.CheckContext(c.ctx)
	results := make([]*CountResponse, len(c.shards))
	if live := c.fanWorkers(req); live != nil {
		c.rebalance(req.Pass, live)
		c.count(req, c.shards, results)
		mfi.CheckContext(c.ctx)
	}

	// A nil slot is counted here, on the mining goroutine, so the scan
	// guard raises the typed abort from the right stack.
	guard := mfi.NewScanGuard(c.ctx, c.checkEvery)
	tick := func() error {
		guard.Tick()
		return nil
	}
	for i, sh := range c.shards {
		if results[i] == nil {
			results[i] = c.countLocal(req, sh, tick)
		}
	}
	return results
}

// rebalance reassigns shards owned by dead (or no) workers round-robin
// over the live set — the pass-barrier reassignment rule.
func (c *Coordinator) rebalance(pass int, live []*workerRef) {
	next := 0
	for _, sh := range c.shards {
		if sh.owner != nil && sh.owner.isAlive() {
			continue
		}
		from := ""
		if sh.owner != nil {
			from = sh.owner.addr
		}
		sh.owner = live[next%len(live)]
		next++
		c.note(func(t *tally) { t.reassignments++ })
		c.pool.met.reassignments.Inc()
		c.pool.logf("cluster: job %s pass %d: shard %s reassigned %s -> %s", c.jobID, pass, sh.id[:12], from, sh.owner.addr)
		obsv.EmitCluster(c.tracer, obsv.ClusterEvent{
			Event: "reassign", Pass: pass, Worker: sh.owner.addr, Shard: sh.id[:12],
			Reason: "owner dead", Live: len(live),
		})
	}
}
