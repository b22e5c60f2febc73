package cluster

// Distributed streams: the StreamCoordinator that fans a maintainer's
// delta counting out over the pool.
//
// Incremental maintenance verifies each batch by counting the maintained
// MFS and negative border over the append and evict deltas (and, after a
// re-mine, the fresh border over the whole window). Those are plain
// support counts, additive over disjoint horizontal partitions — the same
// work as one counting pass — so a delta count is an ordinary fan-out of a
// KindSets CountRequest over content-addressed delta shards, merged
// byte-identical to a single local scan.
//
// The policy differs from the job coordinator's in two ways. Degradation
// below quorum is sticky per batch, not per stream: a stream is long-lived,
// so giving up on the cluster forever because one batch arrived during an
// outage would be wrong; the server drains the per-batch doc (TakeDoc)
// after every append, which re-arms the quorum check. And a cancelled delta
// count does not abort: the shards not yet counted remotely are counted
// locally, so CountSets always returns the exact vector.

import (
	"context"
	"fmt"
	"math/rand"

	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/obsv"
)

// StreamDoc summarizes one batch's distributed delta counting for the
// stream's delta document — the per-batch analog of Doc. The server
// drains it with TakeDoc after every append.
type StreamDoc struct {
	// Workers is the configured worker count; LiveWorkers the live count
	// when the batch finished.
	Workers     int `json:"workers"`
	LiveWorkers int `json:"live_workers"`
	// Shards is the number of delta shards counted; Counts the number of
	// delta-count fan-outs (append/evict/border sides) the batch ran.
	Shards int64 `json:"shards,omitempty"`
	Counts int64 `json:"counts,omitempty"`
	// RPCs / Retries / DuplicateReplies account the count-and-load RPC
	// traffic (retries are attempts beyond a shard's first).
	RPCs             int64 `json:"rpcs,omitempty"`
	Retries          int64 `json:"retries,omitempty"`
	DuplicateReplies int64 `json:"duplicate_replies,omitempty"`
	// WorkerDeaths and Failovers record mid-count node-loss handling: a
	// failover re-drives a shard against the next live worker — the
	// batch-barrier analog of pass reassignment.
	WorkerDeaths int64 `json:"worker_deaths,omitempty"`
	Failovers    int64 `json:"failovers,omitempty"`
	// LocalShardCounts is the number of shards the coordinator counted
	// itself (orphaned shards, cancelled counts, and degraded batches).
	LocalShardCounts int64 `json:"local_shard_counts,omitempty"`
	// Degraded reports the batch fell below quorum and was counted
	// locally. Unlike job degradation this is sticky per batch only: the
	// next batch re-checks quorum.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Mine carries the distribution docs of any warm-started re-mine this
	// batch triggered (those passes fan out over a job Coordinator).
	Mine []*Doc `json:"mine,omitempty"`
}

// StreamCoordinator fans a stream's delta counting out over a Pool. One
// StreamCoordinator serves a stream for its whole life; each delta count
// runs the job coordinator's fan-out and failure model. BindContext (in
// core.ContextBinder's shape) bounds every later RPC and backoff by the
// stream's context.
//
// CountSets is driven from the maintainer's apply path, which the server
// serializes per stream; the fan-out goroutines never outlive a call.
type StreamCoordinator struct {
	fanout
	streamID string
}

// NewStreamCoordinator pins a stream to the pool.
func NewStreamCoordinator(streamID string, pool *Pool, tracer obsv.Tracer) *StreamCoordinator {
	return &StreamCoordinator{
		fanout:   fanout{pool: pool, tracer: tracer, ctx: context.Background(), rng: rand.New(rand.NewSource(seedFrom(streamID)))},
		streamID: streamID,
	}
}

// TakeDoc returns the distribution doc accumulated since the last call and
// resets it — called once per batch, which is also what re-arms the
// quorum check after a degraded batch.
func (c *StreamCoordinator) TakeDoc() *StreamDoc {
	c.mu.Lock()
	t := c.tally
	c.tally = tally{}
	c.mu.Unlock()
	return &StreamDoc{
		Workers:          len(c.pool.Workers()),
		LiveWorkers:      len(c.pool.Live()),
		Shards:           t.shards,
		Counts:           t.counts,
		RPCs:             t.rpcs,
		Retries:          t.retries,
		DuplicateReplies: t.duplicates,
		WorkerDeaths:     t.deaths,
		Failovers:        t.failovers,
		LocalShardCounts: t.local,
		Degraded:         t.degraded,
		DegradedReason:   t.degradedReason,
	}
}

// CountSets returns the support of each set over d, counted over the
// cluster as one KindSets fan-out stamped <stream>.b<seq>.<side>. Counts
// are additive over the contiguous shards, so the merged vector is
// byte-identical to one local scan of d regardless of worker count,
// failovers, degradation, or cancellation.
func (c *StreamCoordinator) CountSets(seq int64, side string, d *dataset.Dataset, sets []itemset.Itemset) []int64 {
	counts := make([]int64, len(sets))
	if d == nil || d.Len() == 0 || len(sets) == 0 {
		return counts
	}
	req := &CountRequest{
		JobID:    fmt.Sprintf("%s.b%d.%s", c.streamID, seq, side),
		Pass:     int(seq),
		Kind:     KindSets,
		NumItems: d.NumItems(),
		Elems:    sets,
	}
	live := c.fanWorkers(req)
	shards := shardDataset(d, len(live)*c.pool.cfg.ShardsPerWorker, live)
	c.note(func(t *tally) { t.counts++; t.shards += int64(len(shards)) })
	results := make([]*CountResponse, len(shards))
	if live != nil {
		c.count(req, shards, results)
	}
	// A shard no worker served — none was live, the batch is degraded, or
	// the stream's context was cancelled — is counted here.
	for i, sh := range shards {
		if results[i] == nil {
			results[i] = c.countLocal(req, sh, nil)
		}
		counting.SumInto(counts, results[i].ElemCounts)
	}
	return counts
}
