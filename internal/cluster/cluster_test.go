package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pincer/internal/core"
	"pincer/internal/dataset"
	"pincer/internal/faultinject"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
	"pincer/internal/quest"
)

// testPoolConfig keeps the failure-handling clocks fast enough for CI.
func testPoolConfig() PoolConfig {
	return PoolConfig{
		// The liveness deadline is deliberately generous: under the race
		// detector a process-wide stall can exceed a tight deadline and
		// spuriously kill the whole cluster. The kill tests do not depend on
		// it — RPC exhaustion marks workers dead immediately.
		HeartbeatInterval: 20 * time.Millisecond,
		LivenessDeadline:  2 * time.Second,
		RPCTimeout:        5 * time.Second,
		MaxAttempts:       3,
		BackoffBase:       time.Millisecond,
		BackoffCap:        5 * time.Millisecond,
	}
}

// swappableHandler lets a test "restart" a worker behind a stable address.
type swappableHandler struct{ h atomic.Value }

func (s *swappableHandler) Set(h http.Handler) { s.h.Store(h) }
func (s *swappableHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(rw, r)
}

// testCluster is n workers behind httptest servers plus the pool over them.
type testCluster struct {
	workers  []*Worker
	kills    []*faultinject.NodeKill
	servers  []*httptest.Server
	handlers []*swappableHandler
	pool     *Pool
}

func startCluster(t *testing.T, n int, cfg PoolConfig) *testCluster {
	t.Helper()
	tc := &testCluster{}
	var addrs []string
	for i := 0; i < n; i++ {
		nk := &faultinject.NodeKill{}
		w := NewWorker(WorkerConfig{
			ID:        fmt.Sprintf("w%d", i),
			Down:      nk.Down,
			CountHook: func(*CountRequest) error { return nk.CountHook() },
			TxHook:    nk.TxHook,
		})
		sh := &swappableHandler{}
		sh.Set(w)
		srv := httptest.NewServer(sh)
		tc.workers = append(tc.workers, w)
		tc.kills = append(tc.kills, nk)
		tc.servers = append(tc.servers, srv)
		tc.handlers = append(tc.handlers, sh)
		addrs = append(addrs, srv.URL)
	}
	pool, err := NewPool(addrs, cfg)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	pool.Start()
	t.Cleanup(func() {
		pool.Close()
		for _, s := range tc.servers {
			s.Close()
		}
	})
	tc.pool = pool
	return tc
}

func testDataset(seed int64) *dataset.Dataset {
	return quest.Generate(quest.Params{
		NumTransactions: 240,
		AvgTxLen:        8,
		AvgPatternLen:   4,
		NumPatterns:     20,
		NumItems:        40,
		Seed:            seed,
	})
}

// mfsMap renders a result as set-key → support for equality checks.
func mfsMap(res *mfi.Result) map[string]int64 {
	out := make(map[string]int64, len(res.MFS))
	for i, m := range res.MFS {
		out[m.Key()] = res.MFSSupports[i]
	}
	return out
}

func assertSameResult(t *testing.T, label string, got, want *mfi.Result) {
	t.Helper()
	gm, wm := mfsMap(got), mfsMap(want)
	if len(gm) != len(wm) {
		t.Fatalf("%s: %d maximal sets, want %d", label, len(gm), len(wm))
	}
	for k, sup := range wm {
		if gm[k] != sup {
			t.Fatalf("%s: set %q has support %d, want %d", label, k, gm[k], sup)
		}
	}
}

func mineCluster(t *testing.T, d *dataset.Dataset, minCount int64, pool *Pool, tracer obsv.Tracer) (*mfi.Result, *Coordinator, error) {
	t.Helper()
	coord, err := NewCoordinator("job-test", d, pool, tracer)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	opt := core.DefaultOptions()
	opt.Counter = coord
	opt.Tracer = tracer
	opt.Context = context.Background()
	res, mineErr := core.MineCount(dataset.NewScanner(d), minCount, opt)
	return res, coord, mineErr
}

// TestClusterMatchesSingleNode pins the tentpole contract: distributed
// counting is observationally equivalent to one sequential scan.
func TestClusterMatchesSingleNode(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			tc := startCluster(t, workers, testPoolConfig())
			for seed := int64(1); seed <= 3; seed++ {
				d := testDataset(seed)
				for _, minsup := range []float64{0.05, 0.15, 0.4} {
					minCount := d.MinCount(minsup)
					want, err := core.MineCount(dataset.NewScanner(d), minCount, core.DefaultOptions())
					if err != nil {
						t.Fatalf("reference mine: %v", err)
					}
					got, coord, err := mineCluster(t, d, minCount, tc.pool, nil)
					if err != nil {
						t.Fatalf("cluster mine: %v", err)
					}
					label := fmt.Sprintf("seed%d/sup%g", seed, minsup)
					assertSameResult(t, label, got, want)
					doc := coord.Doc()
					if doc.Degraded {
						t.Fatalf("%s: healthy cluster degraded: %+v", label, doc)
					}
					if doc.RPCs == 0 {
						t.Fatalf("%s: no RPCs issued — counting did not distribute", label)
					}
				}
			}
		})
	}
}

// TestNodeLossMatrix is the issue's fault matrix: kill 1-of-2 and 1-of-4
// workers at every pass barrier and mid-scan; every run must complete with
// the single-node reference's exact result.
func TestNodeLossMatrix(t *testing.T) {
	d := testDataset(7)
	minCount := d.MinCount(0.1)
	want, err := core.MineCount(dataset.NewScanner(d), minCount, core.DefaultOptions())
	if err != nil {
		t.Fatalf("reference mine: %v", err)
	}
	for _, workers := range []int{2, 4} {
		workers := workers
		for _, afterTx := range []int{0, 11} {
			afterTx := afterTx
			mode := "barrier"
			if afterTx > 0 {
				mode = "midscan"
			}
			t.Run(fmt.Sprintf("w%d/%s", workers, mode), func(t *testing.T) {
				for trip := 1; ; trip++ {
					tc := startCluster(t, workers, testPoolConfig())
					nk := tc.kills[0]
					nk.TripAtCount = trip
					nk.AfterTx = afterTx
					col := obsv.NewCollector()
					got, coord, mineErr := mineCluster(t, d, minCount, tc.pool, col)
					if mineErr != nil {
						t.Fatalf("trip %d: cluster mine failed: %v", trip, mineErr)
					}
					assertSameResult(t, fmt.Sprintf("trip%d", trip), got, want)
					doc := coord.Doc()
					if doc.Degraded {
						t.Fatalf("trip %d: lost 1 of %d workers but degraded: %+v", trip, workers, doc)
					}
					tripped := nk.Down()
					if tripped && doc.WorkerDeaths == 0 {
						t.Fatalf("trip %d: worker was killed but no death recorded: %+v", trip, doc)
					}
					if !tripped {
						// The tripwire ordinal ran past the run's RPC count:
						// the whole matrix is covered.
						if trip == 1 {
							t.Fatal("tripwire never fired — matrix tested nothing")
						}
						return
					}
				}
			})
		}
	}
}

// TestQuorumDegradation pins graceful degradation: dropping below quorum
// must finish the job locally with the exact result and record the
// degradation in the doc, the trace, and the metric.
func TestQuorumDegradation(t *testing.T) {
	d := testDataset(11)
	minCount := d.MinCount(0.1)
	want, err := core.MineCount(dataset.NewScanner(d), minCount, core.DefaultOptions())
	if err != nil {
		t.Fatalf("reference mine: %v", err)
	}

	reg := obsv.NewRegistry()
	cfg := testPoolConfig()
	cfg.Quorum = 2
	cfg.Registry = reg
	tc := startCluster(t, 2, cfg)

	// Kill one worker at its second count RPC: the current pass fails over
	// to the surviving worker, and the next pass barrier sees the cluster
	// below quorum and degrades.
	tc.kills[0].TripAtCount = 2

	col := obsv.NewCollector()
	got, coord, mineErr := mineCluster(t, d, minCount, tc.pool, col)
	if mineErr != nil {
		t.Fatalf("cluster mine: %v", mineErr)
	}
	assertSameResult(t, "degraded", got, want)

	doc := coord.Doc()
	if !doc.Degraded {
		t.Fatalf("expected degradation, got %+v", doc)
	}
	if doc.DegradedReason == "" || doc.DegradedPass == 0 {
		t.Fatalf("degradation not attributed: %+v", doc)
	}
	var sawDegradedEvent bool
	for _, ev := range col.ClusterEvents() {
		if ev.Event == "degraded" {
			sawDegradedEvent = true
		}
	}
	if !sawDegradedEvent {
		t.Fatalf("no 'degraded' cluster trace event; events: %+v", col.ClusterEvents())
	}
	if n := reg.Snapshot()["pincer_cluster_degraded_total"]; n != 1 {
		t.Fatalf("pincer_cluster_degraded_total = %d, want 1", n)
	}
}

// TestAllWorkersDeadStillCompletes kills every worker: with quorum 1 the
// live set (0) is below quorum, so the coordinator degrades and the job
// still completes with the exact result.
func TestAllWorkersDeadStillCompletes(t *testing.T) {
	d := testDataset(13)
	minCount := d.MinCount(0.15)
	want, err := core.MineCount(dataset.NewScanner(d), minCount, core.DefaultOptions())
	if err != nil {
		t.Fatalf("reference mine: %v", err)
	}
	tc := startCluster(t, 2, testPoolConfig())
	tc.kills[0].TripAtCount = 1
	tc.kills[1].TripAtCount = 1
	got, coord, mineErr := mineCluster(t, d, minCount, tc.pool, nil)
	if mineErr != nil {
		t.Fatalf("cluster mine: %v", mineErr)
	}
	assertSameResult(t, "all-dead", got, want)
	if doc := coord.Doc(); !doc.Degraded {
		t.Fatalf("expected degradation with zero live workers: %+v", doc)
	}
}

// TestWorkerRestartReseeds swaps a worker for a fresh (empty) instance
// mid-job: the coordinator must detect unknown_shard, re-push the
// content-addressed shard, and finish with the exact result.
func TestWorkerRestartReseeds(t *testing.T) {
	d := testDataset(17)
	minCount := d.MinCount(0.1)
	want, err := core.MineCount(dataset.NewScanner(d), minCount, core.DefaultOptions())
	if err != nil {
		t.Fatalf("reference mine: %v", err)
	}
	tc := startCluster(t, 2, testPoolConfig())

	// After the second count RPC on worker 0, replace it with an empty
	// restart (same address, no shards, no memo).
	var restarts atomic.Int32
	var counts atomic.Int32
	restarted := NewWorker(WorkerConfig{ID: "w0-restarted"})
	tc.workers[0].cfg.CountHook = nil // replaced below
	w0 := NewWorker(WorkerConfig{
		ID: "w0",
		CountHook: func(*CountRequest) error {
			if counts.Add(1) == 2 && restarts.CompareAndSwap(0, 1) {
				tc.handlers[0].Set(restarted)
			}
			return nil
		},
	})
	tc.handlers[0].Set(w0)

	got, coord, mineErr := mineCluster(t, d, minCount, tc.pool, nil)
	if mineErr != nil {
		t.Fatalf("cluster mine: %v", mineErr)
	}
	assertSameResult(t, "restart", got, want)
	if doc := coord.Doc(); doc.Degraded {
		t.Fatalf("restart should not degrade the job: %+v", doc)
	}
	if restarts.Load() != 1 {
		t.Fatal("restart hook never fired — test exercised nothing")
	}
}

// TestDuplicateReplyMemo pins the idempotent-retry contract at the wire:
// a duplicate delivery of a completed count is answered from the memo,
// flagged, and otherwise identical, while another stamp is recounted — for
// a job pass and for a stream delta count, where another side under the
// same seq is a different logical request.
func TestDuplicateReplyMemo(t *testing.T) {
	tc := startCluster(t, 1, testPoolConfig())
	d := testDataset(19)
	sh := shardDataset(d, 1, nil)[0]
	w := tc.pool.Workers()[0]
	ctx := context.Background()
	if err := tc.pool.loadShard(ctx, w, &LoadShardRequest{
		ShardID: sh.id, NumItems: sh.data.NumItems(), Baskets: string(sh.baskets),
	}); err != nil {
		t.Fatalf("loadShard: %v", err)
	}
	n := d.NumItems()
	sets := testStreamSets(d)
	for _, tt := range []struct {
		name       string
		req, other CountRequest
	}{
		{"job",
			CountRequest{JobID: "job-dup", Pass: 1, Kind: KindItems, NumItems: n},
			CountRequest{JobID: "job-dup", Pass: 2, Kind: KindItems, NumItems: n}},
		{"stream",
			CountRequest{JobID: "s-dup.b1.append", Pass: 1, Kind: KindSets, NumItems: n, Elems: sets},
			CountRequest{JobID: "s-dup.b1.evict", Pass: 1, Kind: KindSets, NumItems: n, Elems: sets}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tt.req.ShardID, tt.other.ShardID = sh.id, sh.id
			first, err := tc.pool.count(ctx, w, &tt.req)
			if err != nil {
				t.Fatalf("count: %v", err)
			}
			if first.Memoized {
				t.Fatal("first delivery flagged as duplicate")
			}
			second, err := tc.pool.count(ctx, w, &tt.req)
			if err != nil {
				t.Fatalf("duplicate count: %v", err)
			}
			if !second.Memoized {
				t.Fatal("duplicate delivery not served from the memo")
			}
			second.Memoized = false
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("memoized reply diverges: %+v vs %+v", second, first)
			}
			third, err := tc.pool.count(ctx, w, &tt.other)
			if err != nil {
				t.Fatalf("other-stamp count: %v", err)
			}
			if third.Memoized {
				t.Fatal("a distinct stamp was answered from the memo")
			}
		})
	}
}

// TestHeartbeatLiveness pins the pool's death/rejoin detection.
func TestHeartbeatLiveness(t *testing.T) {
	cfg := testPoolConfig()
	reg := obsv.NewRegistry()
	cfg.Registry = reg
	tc := startCluster(t, 2, cfg)
	if n := len(tc.pool.Live()); n != 2 {
		t.Fatalf("initial live = %d, want 2", n)
	}
	tc.kills[0].Kill()
	deadline := time.Now().Add(15 * time.Second)
	for len(tc.pool.Live()) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("dead worker never left the live set")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tc.kills[0].Revive()
	for len(tc.pool.Live()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("revived worker never rejoined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := reg.Snapshot()
	if snap["pincer_cluster_worker_deaths_total"] == 0 {
		t.Fatal("death not counted")
	}
	if snap["pincer_cluster_worker_rejoins_total"] == 0 {
		t.Fatal("rejoin not counted")
	}
}

// TestCancellationUnwinds pins that a cancelled cluster run aborts with
// the same typed partial-result error as in-process counters.
func TestCancellationUnwinds(t *testing.T) {
	tc := startCluster(t, 2, testPoolConfig())
	d := testDataset(23)
	minCount := d.MinCount(0.02)
	coord, err := NewCoordinator("job-cancel", d, tc.pool, nil)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	// Cancel from a worker hook: mid-run, while RPCs are in flight.
	tc.workers[0].cfg.CountHook = func(*CountRequest) error {
		once.Do(cancel)
		return nil
	}
	opt := core.DefaultOptions()
	opt.Counter = coord
	opt.Context = ctx
	_, mineErr := core.MineCount(dataset.NewScanner(d), minCount, opt)
	if mineErr == nil {
		t.Fatal("cancelled run completed")
	}
	var pe *mfi.PartialResultError
	if !asPartial(mineErr, &pe) {
		t.Fatalf("cancelled run returned %T (%v), want *mfi.PartialResultError", mineErr, mineErr)
	}
	if pe.Reason != mfi.ReasonCancelled {
		t.Fatalf("abort reason %q, want %q", pe.Reason, mfi.ReasonCancelled)
	}
}

func asPartial(err error, pe **mfi.PartialResultError) bool {
	p, ok := err.(*mfi.PartialResultError)
	if ok {
		*pe = p
	}
	return ok
}

// TestPoolReusesConnections pins the pool's connection reuse: two streams
// fanning four shards each at one worker keep more RPCs in flight than the
// default transport keeps idle connections, which redialled on every count.
// The number of connections the worker accepts must not grow with the
// number of counts.
func TestPoolReusesConnections(t *testing.T) {
	d := testDataset(31)
	sets := testStreamSets(d)
	newConns := func(rounds int) int64 {
		var conns atomic.Int64
		srv := httptest.NewUnstartedServer(NewWorker(WorkerConfig{ID: "w0"}))
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				conns.Add(1)
			}
		}
		srv.Start()
		defer srv.Close()
		cfg := testPoolConfig()
		cfg.ShardsPerWorker = 4
		pool, err := NewPool([]string{srv.URL}, cfg)
		if err != nil {
			t.Fatalf("NewPool: %v", err)
		}
		pool.Start()
		defer pool.Close()
		streams := []*StreamCoordinator{NewStreamCoordinator("s1", pool, nil), NewStreamCoordinator("s2", pool, nil)}
		for seq := int64(1); seq <= int64(rounds); seq++ {
			var wg sync.WaitGroup
			for _, sc := range streams {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sc.CountSets(seq, "append", d, sets)
				}()
			}
			wg.Wait()
		}
		return conns.Load()
	}
	short, long := newConns(25), newConns(100)
	t.Logf("new connections: %d over 50 counts, %d over 200", short, long)
	if long > 2*short {
		t.Fatalf("worker accepted %d connections over 200 counts but %d over 50: connections are not reused", long, short)
	}
}
