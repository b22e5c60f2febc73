package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pincer/internal/dataset"
	"pincer/internal/obsv"
)

// shardState is one horizontal partition of a counted dataset.
type shardState struct {
	id      string // ShardID of the universe and baskets
	baskets []byte
	data    *dataset.Dataset
	sc      *dataset.MemoryScanner // lazily built for local counting
	owner   *workerRef             // nil = unassigned (counted locally)
}

// scanner returns the shard's local scanner, building it on first use so
// remote-only runs never materialize local bitsets.
func (s *shardState) scanner() *dataset.MemoryScanner {
	if s.sc == nil {
		s.sc = dataset.NewScanner(s.data)
	}
	return s.sc
}

// shardDataset splits d into at most n contiguous content-addressed shards
// and spreads their ownership round-robin over live (no owner when live is
// empty).
func shardDataset(d *dataset.Dataset, n int, live []*workerRef) []*shardState {
	parts := d.Partitions(n)
	shards := make([]*shardState, len(parts))
	for i, part := range parts {
		var buf bytes.Buffer
		// bytes.Buffer writes cannot fail.
		_ = dataset.WriteBasket(&buf, part)
		shards[i] = &shardState{id: ShardID(part.NumItems(), buf.Bytes()), baskets: buf.Bytes(), data: part}
		if len(live) > 0 {
			shards[i].owner = live[i%len(live)]
		}
	}
	return shards
}

// seedFrom derives a deterministic jitter seed from a job or stream id.
func seedFrom(id string) int64 {
	sum := sha256.Sum256([]byte(id))
	return int64(binary.LittleEndian.Uint64(sum[:8]) >> 1)
}

// tally is a coordinator's accounting, reported in its Doc or StreamDoc.
type tally struct {
	counts        int64 // fan-outs run: job passes, stream delta counts
	shards        int64 // shards counted by stream delta counts
	rpcs          int64
	retries       int64
	duplicates    int64
	deaths        int64
	reassignments int64 // job pass-barrier reassignments
	failovers     int64
	local         int64
	// degraded marks the coordinator below quorum: later counts run
	// locally until the owner clears it (a job never does, a stream once
	// per batch).
	degraded       bool
	degradedReason string
	degradedPass   int
}

// fanout is the count-distribution step both coordinators share: it runs
// one CountRequest over a set of shards across the pool and owns the
// failure model — per-attempt timeouts derived from the bound context,
// capped jittered backoff that wakes on cancellation, unknown_shard
// re-push, reply validation, death declaration when a worker exhausts its
// attempt budget, and failover to untried live workers. A shard it cannot
// count remotely comes back as a nil reply; what then happens is the
// coordinator's policy.
type fanout struct {
	pool   *Pool
	tracer obsv.Tracer

	ctx        context.Context
	checkEvery int

	rngMu sync.Mutex
	rng   *rand.Rand

	mu    sync.Mutex
	tally tally
}

// BindContext implements core.ContextBinder: ctx bounds every later RPC
// attempt and backoff. checkEvery paces the job coordinator's local scan
// guard.
func (f *fanout) BindContext(ctx context.Context, checkEvery int) {
	f.ctx = ctx
	f.checkEvery = checkEvery
}

// note applies one accounting update under the tally lock.
func (f *fanout) note(update func(*tally)) {
	f.mu.Lock()
	update(&f.tally)
	f.mu.Unlock()
}

// fanWorkers returns the live workers req may fan out over, or nil when it
// must be counted locally: the coordinator is degraded, or the live set is
// below quorum, which degrades it now.
func (f *fanout) fanWorkers(req *CountRequest) []*workerRef {
	f.mu.Lock()
	degraded := f.tally.degraded
	f.mu.Unlock()
	if degraded {
		return nil
	}
	live := f.pool.Live()
	if q := f.pool.cfg.Quorum; len(live) < q {
		reason := fmt.Sprintf("live workers %d below quorum %d", len(live), q)
		f.note(func(t *tally) { t.degraded, t.degradedReason, t.degradedPass = true, reason, req.Pass })
		f.pool.met.degraded.Inc()
		f.pool.logf("cluster: job %s degrading to local counting at pass %d: %s", req.JobID, req.Pass, reason)
		obsv.EmitCluster(f.tracer, obsv.ClusterEvent{Event: "degraded", Pass: req.Pass, Reason: reason, Live: len(live)})
		return nil
	}
	return live
}

// count fans req out over shards, one goroutine per shard, filling out
// with one reply per shard: nil where no live worker could serve the shard
// or the bound context was cancelled. The goroutines never outlive the
// call.
func (f *fanout) count(req *CountRequest, shards []*shardState, out []*CountResponse) {
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = f.countRemote(req, sh)
		}()
	}
	wg.Wait()
}

// countRemote drives one shard's count against the cluster: its owner
// first, then any live worker not yet tried, declaring each worker that
// exhausts its attempt budget dead. It returns nil when no live worker is
// left or the bound context is cancelled.
func (f *fanout) countRemote(base *CountRequest, sh *shardState) *CountResponse {
	req := *base
	req.ShardID = sh.id
	tried := map[*workerRef]bool{}
	w := sh.owner
	for f.ctx.Err() == nil {
		if w == nil || !w.isAlive() || tried[w] {
			if w = f.untried(tried); w == nil {
				return nil
			}
		}
		tried[w] = true
		if resp := f.tryWorker(&req, sh, w); resp != nil {
			sh.owner = w // the next count starts from the worker that delivered
			return resp
		}
		if f.ctx.Err() != nil {
			return nil // cancelled: the worker is not at fault
		}
		if f.pool.markDead(w, fmt.Sprintf("job %s pass %d: %d attempts failed", req.JobID, req.Pass, f.pool.cfg.MaxAttempts)) {
			f.note(func(t *tally) { t.deaths++ })
			obsv.EmitCluster(f.tracer, obsv.ClusterEvent{
				Event: "worker_dead", Pass: req.Pass, Worker: w.addr, Shard: sh.id[:12],
				Reason: "rpc attempts exhausted", Live: len(f.pool.Live()),
			})
		}
		f.note(func(t *tally) { t.failovers++ })
		obsv.EmitCluster(f.tracer, obsv.ClusterEvent{
			Event: "reassign", Pass: req.Pass, Shard: sh.id[:12], Reason: "owner dead", Live: len(f.pool.Live()),
		})
		w = nil
	}
	return nil
}

// untried returns a live worker not yet tried for a shard, or nil.
func (f *fanout) untried(tried map[*workerRef]bool) *workerRef {
	for _, w := range f.pool.Live() {
		if !tried[w] {
			return w
		}
	}
	return nil
}

// tryWorker runs one worker's attempt budget for a shard count, backing
// off between attempts. It returns nil when the budget is exhausted or the
// bound context is cancelled.
func (f *fanout) tryWorker(req *CountRequest, sh *shardState, w *workerRef) *CountResponse {
	for attempt := 0; attempt < f.pool.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !f.backoff(attempt) {
				return nil
			}
			f.note(func(t *tally) { t.retries++ })
			f.pool.met.rpcRetries.Inc()
		}
		if resp := f.attempt(req, sh, w); resp != nil {
			return resp
		}
	}
	return nil
}

// attempt is one RPC attempt under its own timeout: push the shard if w is
// not known to hold it, then count and validate the reply. nil reports a
// failed attempt.
func (f *fanout) attempt(req *CountRequest, sh *shardState, w *workerRef) *CountResponse {
	ctx, cancel := context.WithTimeout(f.ctx, f.pool.cfg.RPCTimeout)
	defer cancel()
	if !w.hasShard(sh.id) {
		f.note(func(t *tally) { t.rpcs++ })
		if err := f.pool.loadShard(ctx, w, &LoadShardRequest{
			ShardID: sh.id, NumItems: sh.data.NumItems(), Baskets: string(sh.baskets),
		}); err != nil {
			return nil
		}
	}
	f.note(func(t *tally) { t.rpcs++ })
	resp, err := f.pool.count(ctx, w, req)
	if err != nil {
		var re *remoteError
		if errors.As(err, &re) && re.Reason == ReasonUnknownShard {
			// The worker restarted since the push: the next attempt
			// re-pushes the shard.
			w.setShard(sh.id, false)
		}
		return nil
	}
	if verr := validResponse(req, resp); verr != nil {
		f.pool.logf("cluster: job %s: worker %s returned unmergeable reply for shard %s: %v",
			req.JobID, w.addr, sh.id[:12], verr)
		return nil
	}
	if resp.Memoized {
		f.note(func(t *tally) { t.duplicates++ })
		f.pool.met.duplicateReplies.Inc()
	}
	return resp
}

// backoff waits the capped, jittered exponential backoff before retry
// ordinal attempt; false reports the bound context was cancelled first.
func (f *fanout) backoff(attempt int) bool {
	cfg := f.pool.cfg
	d := cfg.BackoffBase << (attempt - 1)
	if d > cfg.BackoffCap || d <= 0 {
		d = cfg.BackoffCap
	}
	f.rngMu.Lock()
	jitter := 0.5 + f.rng.Float64() // ×[0.5, 1.5)
	f.rngMu.Unlock()
	t := time.NewTimer(time.Duration(float64(d) * jitter))
	defer t.Stop()
	select {
	case <-f.ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// validResponse checks a worker reply is positionally mergeable.
func validResponse(req *CountRequest, resp *CountResponse) error {
	var items, pairs, cands int
	switch req.Kind {
	case KindItems:
		items = req.NumItems
	case KindPairs:
		n := len(req.Live)
		pairs = n * (n - 1) / 2
	case KindCandidates:
		cands = len(req.Candidates)
	}
	if len(resp.ItemCounts) != items {
		return fmt.Errorf("item vector %d, want %d", len(resp.ItemCounts), items)
	}
	if len(resp.PairCounts) != pairs {
		return fmt.Errorf("pair vector %d, want %d", len(resp.PairCounts), pairs)
	}
	if len(resp.CandCounts) != cands {
		return fmt.Errorf("candidate vector %d, want %d", len(resp.CandCounts), cands)
	}
	if len(resp.ElemCounts) != len(req.Elems) {
		return fmt.Errorf("elem vector %d, want %d", len(resp.ElemCounts), len(req.Elems))
	}
	return nil
}

// countLocal counts one shard on the calling goroutine with the workers'
// own procedure, so the merged result is unchanged. tick is countShard's
// per-transaction hook; the ticks the coordinators pass never return an
// error (the job's scan guard panics the typed abort instead).
func (f *fanout) countLocal(base *CountRequest, sh *shardState, tick func() error) *CountResponse {
	req := *base
	req.ShardID = sh.id
	f.mu.Lock()
	f.tally.local++
	degraded := f.tally.degraded
	f.mu.Unlock()
	f.pool.met.localCounts.Inc()
	if !degraded {
		reason := "no live worker"
		if f.ctx.Err() != nil {
			reason = "cancelled"
		}
		f.pool.logf("cluster: job %s pass %d: counting shard %s locally (%s)", req.JobID, req.Pass, sh.id[:12], reason)
		obsv.EmitCluster(f.tracer, obsv.ClusterEvent{
			Event: "local_count", Pass: req.Pass, Shard: sh.id[:12], Reason: reason, Live: len(f.pool.Live()),
		})
	}
	resp, _ := countShard(sh.scanner(), &req, tick)
	return resp
}
