package server_test

// End-to-end tests of distributed-counting jobs over real HTTP at both
// layers: REST clients on one side, a live coordinator/worker cluster on
// the other. Pinned here: a cluster job's result is byte-identical to the
// single-node answer and its result doc records the distribution; quorum
// loss degrades the job to local counting (recorded in doc and metrics)
// instead of failing it; and a coordinator daemon killed mid-job resumes
// from its checkpoint on restart and finishes on the still-live workers.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pincer/internal/cluster"
	"pincer/internal/faultinject"
	"pincer/internal/obsv"
	"pincer/internal/server"
)

// clusterFixture is a set of cluster workers with their kill switches.
type clusterFixture struct {
	servers []*httptest.Server
	kills   []*faultinject.NodeKill
	addrs   []string
	// countDelay slows every count RPC, so tests can observe (and
	// interrupt) a job mid-mine deterministically.
	countDelay atomic.Int64 // nanoseconds
	// countGate, when it holds a func(), runs inside every count RPC: a
	// test keeps a batch in flight on a hung worker by blocking in it.
	countGate atomic.Value
}

func startClusterWorkers(t *testing.T, n int) *clusterFixture {
	t.Helper()
	fx := &clusterFixture{}
	for i := 0; i < n; i++ {
		nk := &faultinject.NodeKill{}
		w := cluster.NewWorker(cluster.WorkerConfig{
			ID:   fmt.Sprintf("w%d", i),
			Down: nk.Down,
			CountHook: func(*cluster.CountRequest) error {
				if d := fx.countDelay.Load(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				if gate, ok := fx.countGate.Load().(func()); ok {
					gate()
				}
				return nk.CountHook()
			},
			TxHook: nk.TxHook,
		})
		srv := httptest.NewServer(w)
		t.Cleanup(srv.Close)
		fx.servers = append(fx.servers, srv)
		fx.kills = append(fx.kills, nk)
		fx.addrs = append(fx.addrs, srv.URL)
	}
	return fx
}

func startPool(t *testing.T, fx *clusterFixture, mod func(*cluster.PoolConfig)) *cluster.Pool {
	t.Helper()
	cfg := cluster.PoolConfig{
		HeartbeatInterval: 25 * time.Millisecond,
		LivenessDeadline:  2 * time.Second,
		BackoffBase:       time.Millisecond,
		BackoffCap:        5 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	pool, err := cluster.NewPool(fx.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool.Start()
	t.Cleanup(pool.Close)
	return pool
}

func TestE2EClusterJob(t *testing.T) {
	fx := startClusterWorkers(t, 2)
	pool := startPool(t, fx, nil)
	_, hs := newTestServer(t, func(c *server.Config) { c.Cluster = pool })

	// The single-node reference, mined by the same daemon.
	code, ref := submit(t, hs.URL, server.JobRequest{Baskets: testBaskets, MinSupport: testMinSupport})
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: status %d", code)
	}
	waitStatus(t, hs.URL, ref.ID, server.StatusDone)
	var refDoc server.ResultDoc
	if code := doJSON(t, http.MethodGet, hs.URL+"/v1/results/"+ref.ID, nil, &refDoc); code != http.StatusOK {
		t.Fatalf("GET reference result: status %d", code)
	}

	code, v := submit(t, hs.URL, server.JobRequest{Baskets: testBaskets, MinSupport: testMinSupport, Cluster: true})
	if code != http.StatusAccepted {
		t.Fatalf("cluster submit: status %d (a cluster job must not hit the single-node cache)", code)
	}
	waitStatus(t, hs.URL, v.ID, server.StatusDone)
	var doc server.ResultDoc
	if code := doJSON(t, http.MethodGet, hs.URL+"/v1/results/"+v.ID, nil, &doc); code != http.StatusOK {
		t.Fatalf("GET cluster result: status %d", code)
	}
	if got, want := mfsSignature(&doc), mfsSignature(&refDoc); got != want {
		t.Fatalf("cluster MFS %q differs from single-node %q", got, want)
	}
	if doc.Cluster == nil {
		t.Fatal("cluster job's result doc lacks the cluster summary")
	}
	if doc.Cluster.Degraded {
		t.Fatalf("healthy cluster degraded: %+v", doc.Cluster)
	}
	if doc.Cluster.RPCs == 0 || doc.Cluster.Workers != 2 {
		t.Fatalf("implausible cluster accounting: %+v", doc.Cluster)
	}

	// An identical cluster resubmission is a cache hit of the cluster doc.
	code, v2 := submit(t, hs.URL, server.JobRequest{Baskets: testBaskets, MinSupport: testMinSupport, Cluster: true})
	if code != http.StatusOK || !v2.Cached {
		t.Fatalf("cluster resubmit: status %d cached=%v, want 200 cached", code, v2.Cached)
	}
}

func TestE2EClusterValidation(t *testing.T) {
	// Without a configured pool, cluster jobs are rejected up front.
	_, hs := newTestServer(t, nil)
	var e struct {
		Reason string `json:"reason"`
	}
	code := doJSON(t, http.MethodPost, hs.URL+"/v1/jobs",
		server.JobRequest{Baskets: testBaskets, MinSupport: testMinSupport, Cluster: true}, &e)
	if code != http.StatusBadRequest || e.Reason != server.ReasonBadCluster {
		t.Fatalf("clusterless daemon answered %d reason %q, want 400 %q", code, e.Reason, server.ReasonBadCluster)
	}

	// Incompatible plans are rejected regardless of the pool.
	for _, spec := range []server.JobRequest{
		{Baskets: testBaskets, MinSupport: testMinSupport, Cluster: true, Miner: server.MinerApriori},
		{Baskets: testBaskets, MinSupport: testMinSupport, Cluster: true, Counter: "tidlist"},
		{Baskets: testBaskets, MinSupport: testMinSupport, Cluster: true, Engine: server.EngineAuto},
	} {
		code := doJSON(t, http.MethodPost, hs.URL+"/v1/jobs", spec, &e)
		if code != http.StatusBadRequest || e.Reason != server.ReasonBadCluster {
			t.Fatalf("spec %+v answered %d reason %q, want 400 %q", spec, code, e.Reason, server.ReasonBadCluster)
		}
	}
}

func TestE2EClusterQuorumDegraded(t *testing.T) {
	fx := startClusterWorkers(t, 2)
	reg := obsv.NewRegistry()
	pool := startPool(t, fx, func(c *cluster.PoolConfig) {
		c.Quorum = 2
		c.Registry = reg
	})
	_, hs := newTestServer(t, func(c *server.Config) {
		c.Cluster = pool
		c.Registry = reg
	})

	// Kill one worker at its second count RPC: the pass fails over to the
	// survivor, and the next barrier sees the cluster below quorum.
	fx.kills[0].TripAtCount = 2

	code, v := submit(t, hs.URL, server.JobRequest{Baskets: testBaskets, MinSupport: testMinSupport, Cluster: true})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, hs.URL, v.ID, server.StatusDone)
	var doc server.ResultDoc
	if code := doJSON(t, http.MethodGet, hs.URL+"/v1/results/"+v.ID, nil, &doc); code != http.StatusOK {
		t.Fatalf("GET result: status %d", code)
	}

	// The degraded run still answers exactly.
	code, ref := submit(t, hs.URL, server.JobRequest{Baskets: testBaskets, MinSupport: testMinSupport})
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: status %d", code)
	}
	waitStatus(t, hs.URL, ref.ID, server.StatusDone)
	var refDoc server.ResultDoc
	doJSON(t, http.MethodGet, hs.URL+"/v1/results/"+ref.ID, nil, &refDoc)
	if got, want := mfsSignature(&doc), mfsSignature(&refDoc); got != want {
		t.Fatalf("degraded MFS %q differs from single-node %q", got, want)
	}

	if doc.Cluster == nil || !doc.Cluster.Degraded {
		t.Fatalf("quorum loss not recorded in the result doc: %+v", doc.Cluster)
	}
	if doc.Cluster.DegradedReason == "" || doc.Cluster.DegradedPass == 0 {
		t.Fatalf("degradation not attributed: %+v", doc.Cluster)
	}
	if n := reg.Snapshot()["pincer_cluster_degraded_total"]; n != 1 {
		t.Fatalf("pincer_cluster_degraded_total = %d, want 1", n)
	}
}

func TestE2EClusterCoordinatorRestartResume(t *testing.T) {
	spoolDir := t.TempDir()
	fx := startClusterWorkers(t, 2)
	// Slow every count RPC so generation 1 is reliably still mining when
	// the abort lands.
	fx.countDelay.Store(int64(150 * time.Millisecond))

	// Coordinator generation 1: submit a cluster job, wait for the first
	// pass barrier, then abort the daemon (SIGINT semantics) — the job is
	// left interrupted with its spool entry and checkpoint.
	pool1 := startPool(t, fx, nil)
	srv1, err := server.New(server.Config{SpoolDir: spoolDir, Workers: 1, Cluster: pool1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1)
	code, v := submit(t, hs1.URL, server.JobRequest{Baskets: testBaskets, MinSupport: testMinSupport, Cluster: true})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var jv server.JobView
		if code := doJSON(t, http.MethodGet, hs1.URL+"/v1/jobs/"+v.ID, nil, &jv); code != http.StatusOK {
			t.Fatalf("GET job: status %d", code)
		}
		if jv.Status == server.StatusRunning && jv.Pass >= 1 {
			break
		}
		if jv.Status == server.StatusDone {
			t.Fatal("job finished before the abort; countDelay too small to interrupt")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached a pass barrier (status %s)", jv.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv1.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	hs1.Close()

	// Generation 2 over the same spool and the same still-live workers:
	// the job resumes at its checkpointed pass barrier and completes on
	// the cluster.
	fx.countDelay.Store(0)
	pool2 := startPool(t, fx, nil)
	srv2, err := server.New(server.Config{SpoolDir: spoolDir, Workers: 1, Cluster: pool2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2)
	defer hs2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv2.Abort(ctx)
	}()
	if got := srv2.Registry().Snapshot()["pincer_jobs_resumed_total"]; got != 1 {
		t.Fatalf("jobs_resumed_total = %d, want 1", got)
	}
	waitStatus(t, hs2.URL, v.ID, server.StatusDone)
	var doc server.ResultDoc
	if code := doJSON(t, http.MethodGet, hs2.URL+"/v1/results/"+v.ID, nil, &doc); code != http.StatusOK {
		t.Fatalf("GET resumed result: status %d", code)
	}

	// The resumed distributed run reproduces the uninterrupted single-node
	// answer exactly.
	code, ref := submit(t, hs2.URL, server.JobRequest{Baskets: testBaskets, MinSupport: testMinSupport})
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: status %d", code)
	}
	waitStatus(t, hs2.URL, ref.ID, server.StatusDone)
	var refDoc server.ResultDoc
	doJSON(t, http.MethodGet, hs2.URL+"/v1/results/"+ref.ID, nil, &refDoc)
	if got, want := mfsSignature(&doc), mfsSignature(&refDoc); got != want {
		t.Fatalf("resumed cluster MFS %q differs from single-node %q", got, want)
	}
	if doc.Cluster == nil || doc.Cluster.RPCs == 0 {
		t.Fatalf("resumed run did not count on the cluster: %+v", doc.Cluster)
	}
}
