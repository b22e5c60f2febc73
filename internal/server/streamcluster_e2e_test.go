package server_test

// End-to-end tests of clustered streams over real HTTP: a stream created
// with "cluster": true fans every delta's verification counting (and any
// re-mine) out over live workers, and must stay byte-identical to the
// single-node answer through the full chaos matrix — workers killed at
// batch barriers and mid-delta-scan, and a coordinator daemon killed
// between the journal write and the state snapshot. The composition case
// the suite exists for: journal replay and cluster failover must compose,
// with zero lost and zero double-counted batches.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pincer/internal/cluster"
	"pincer/internal/server"
)

// testStreamBatches splits testBaskets into three append batches.
func testStreamBatches() []string {
	lines := strings.SplitAfter(testBaskets, "\n")
	return []string{
		strings.Join(lines[:6], ""),
		strings.Join(lines[6:12], ""),
		strings.Join(lines[12:], ""),
	}
}

// TestStreamClusterE2ELifecycle pins the happy path: a clustered stream
// tracks the from-scratch reference after every batch, its delta docs and
// view carry the cluster accounting, and the metric family moves.
func TestStreamClusterE2ELifecycle(t *testing.T) {
	fx := startClusterWorkers(t, 2)
	pool := startPool(t, fx, nil)
	srv, hs := newTestServer(t, func(c *server.Config) { c.Cluster = pool })

	v := openStream(t, hs.URL, server.StreamRequest{MinSupport: testMinSupport, Cluster: true})
	if !v.Cluster {
		t.Fatalf("stream view does not mark the stream clustered: %+v", v)
	}
	prefix := ""
	var sawRPCs int64
	for i, b := range testStreamBatches() {
		code, doc := postBatch(t, hs.URL, v.ID, server.BatchRequest{Baskets: b})
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i+1, code)
		}
		if doc.Cluster == nil {
			t.Fatalf("batch %d: delta doc lacks the cluster summary: %+v", i+1, doc)
		}
		if doc.Cluster.Degraded {
			t.Fatalf("batch %d: healthy cluster degraded: %+v", i+1, doc.Cluster)
		}
		if doc.Cluster.Workers != 2 {
			t.Fatalf("batch %d: cluster doc reports %d workers, want 2", i+1, doc.Cluster.Workers)
		}
		sawRPCs += doc.Cluster.RPCs
		for _, md := range doc.Cluster.Mine {
			sawRPCs += md.RPCs
		}
		prefix += b
		checkStreamMFS(t, hs.URL, v.ID, streamRef(t, prefix, testMinSupport))
	}
	if sawRPCs == 0 {
		t.Fatal("no RPCs across three batches — stream counting never distributed")
	}

	snap := srv.Registry().Snapshot()
	if snap["pincer_stream_cluster_batches_total"] != 3 {
		t.Fatalf("pincer_stream_cluster_batches_total = %d, want 3", snap["pincer_stream_cluster_batches_total"])
	}
	if snap["pincer_stream_cluster_rpcs_total"] == 0 {
		t.Fatal("pincer_stream_cluster_rpcs_total never moved")
	}
	if snap["pincer_stream_cluster_remines_total"] == 0 {
		t.Fatal("pincer_stream_cluster_remines_total never moved (the initial mine is always a re-mine)")
	}

	// The view's last delta carries the same accounting.
	var view server.StreamView
	doJSON(t, http.MethodGet, hs.URL+"/v1/streams/"+v.ID, nil, &view)
	if !view.Cluster || view.LastDelta == nil || view.LastDelta.Cluster == nil {
		t.Fatalf("view lost the cluster accounting: %+v", view)
	}
}

// TestStreamClusterE2EValidation: a clusterless daemon refuses to open a
// clustered stream with the same typed reason as cluster jobs.
func TestStreamClusterE2EValidation(t *testing.T) {
	_, hs := newTestServer(t, nil)
	var e struct {
		Reason string `json:"reason"`
	}
	code := doJSON(t, http.MethodPost, hs.URL+"/v1/streams",
		server.StreamRequest{MinSupport: testMinSupport, Cluster: true}, &e)
	if code != http.StatusBadRequest || e.Reason != server.ReasonBadCluster {
		t.Fatalf("clusterless daemon answered %d reason %q, want 400 %q", code, e.Reason, server.ReasonBadCluster)
	}
}

// TestStreamClusterE2EChaosMatrix is the node-loss matrix at the HTTP
// layer: kill 1-of-2 and 1-of-4 workers at the batch barrier and
// mid-delta-scan. Every batch must still apply with the reference answer —
// failover, not failure — and the death must be visible in the delta doc.
func TestStreamClusterE2EChaosMatrix(t *testing.T) {
	batches := testStreamBatches()
	for _, workers := range []int{2, 4} {
		workers := workers
		for _, afterTx := range []int{0, 3} {
			afterTx := afterTx
			mode := "barrier"
			if afterTx > 0 {
				mode = "midscan"
			}
			t.Run(fmt.Sprintf("w%d/%s", workers, mode), func(t *testing.T) {
				fx := startClusterWorkers(t, workers)
				pool := startPool(t, fx, nil)
				_, hs := newTestServer(t, func(c *server.Config) { c.Cluster = pool })
				v := openStream(t, hs.URL, server.StreamRequest{MinSupport: testMinSupport, Cluster: true})

				// Batch 1 healthy; then arm worker 0 to die at its next
				// stream-count RPC (optionally mid-scan) and land batch 2
				// mid-kill; batch 3 runs with the survivor set.
				if code, _ := postBatch(t, hs.URL, v.ID, server.BatchRequest{Baskets: batches[0]}); code != http.StatusOK {
					t.Fatalf("batch 1: status %d", code)
				}
				fx.kills[0].Arm(1, afterTx)
				var sawDeath bool
				prefix := batches[0]
				for i, b := range batches[1:] {
					code, doc := postBatch(t, hs.URL, v.ID, server.BatchRequest{Baskets: b})
					if code != http.StatusOK {
						t.Fatalf("batch %d: status %d (worker loss must not fail the batch)", i+2, code)
					}
					if doc.Cluster == nil {
						t.Fatalf("batch %d: no cluster summary", i+2)
					}
					if doc.Cluster.Degraded {
						t.Fatalf("batch %d: lost 1 of %d workers but degraded: %+v", i+2, workers, doc.Cluster)
					}
					deaths := doc.Cluster.WorkerDeaths
					for _, md := range doc.Cluster.Mine {
						deaths += md.WorkerDeaths
					}
					sawDeath = sawDeath || deaths > 0
					prefix += b
					checkStreamMFS(t, hs.URL, v.ID, streamRef(t, prefix, testMinSupport))
				}
				if !fx.kills[0].Down() {
					t.Fatal("tripwire never fired — the matrix cell tested nothing")
				}
				if !sawDeath {
					t.Fatal("worker died but no delta doc recorded a death")
				}

				// Zero lost batches: the view is at seq 3 with every
				// transaction accounted for.
				var view server.StreamView
				doJSON(t, http.MethodGet, hs.URL+"/v1/streams/"+v.ID, nil, &view)
				if view.Seq != 3 || view.Transactions != mustParse(t, prefix).Len() || view.Interrupted {
					t.Fatalf("after chaos: %+v", view)
				}
			})
		}
	}
}

// TestStreamClusterE2EQuorumDegradedBatch: a batch arriving while the
// cluster is below quorum is counted locally — byte-identical — and the
// degradation is recorded in that batch's delta doc only; the next batch
// returns to the cluster.
func TestStreamClusterE2EQuorumDegradedBatch(t *testing.T) {
	fx := startClusterWorkers(t, 2)
	pool := startPool(t, fx, func(c *cluster.PoolConfig) { c.Quorum = 2 })
	srv, hs := newTestServer(t, func(c *server.Config) { c.Cluster = pool })
	batches := testStreamBatches()

	v := openStream(t, hs.URL, server.StreamRequest{MinSupport: testMinSupport, Cluster: true})
	if code, _ := postBatch(t, hs.URL, v.ID, server.BatchRequest{Baskets: batches[0]}); code != http.StatusOK {
		t.Fatal("batch 1 failed")
	}

	// Take one worker down and wait for the heartbeat to notice.
	fx.kills[0].Kill()
	deadline := time.Now().Add(15 * time.Second)
	for len(pool.Live()) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("dead worker never left the live set")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, doc := postBatch(t, hs.URL, v.ID, server.BatchRequest{Baskets: batches[1]})
	if code != http.StatusOK {
		t.Fatalf("below-quorum batch: status %d, want 200 (degrade, don't fail)", code)
	}
	if doc.Cluster == nil || !doc.Cluster.Degraded || doc.Cluster.DegradedReason == "" {
		t.Fatalf("degradation not recorded in the delta doc: %+v", doc.Cluster)
	}
	checkStreamMFS(t, hs.URL, v.ID, streamRef(t, batches[0]+batches[1], testMinSupport))
	if srv.Registry().Snapshot()["pincer_stream_cluster_degraded_total"] != 1 {
		t.Fatal("pincer_stream_cluster_degraded_total != 1")
	}

	// Revive; the next batch must fan out again — per-batch, not sticky.
	fx.kills[0].Revive()
	for len(pool.Live()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("revived worker never rejoined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, doc = postBatch(t, hs.URL, v.ID, server.BatchRequest{Baskets: batches[2]})
	if code != http.StatusOK {
		t.Fatalf("post-recovery batch: status %d", code)
	}
	if doc.Cluster == nil || doc.Cluster.Degraded {
		t.Fatalf("degradation stuck across batches: %+v", doc.Cluster)
	}
	rpcs := doc.Cluster.RPCs
	for _, md := range doc.Cluster.Mine {
		rpcs += md.RPCs
	}
	if rpcs == 0 {
		t.Fatal("post-recovery batch did not return to the cluster")
	}
	checkStreamMFS(t, hs.URL, v.ID, streamRef(t, strings.Join(batches, ""), testMinSupport))
}

// TestStreamClusterE2EStopCancelsBatch pins the per-stream context: with a
// batch stuck on a hung worker (30 s RPC timeout), DELETE and daemon abort
// each return within 2 s, because they cancel the stream's context and the
// batch's delta counts finish locally instead of holding the stream.
func TestStreamClusterE2EStopCancelsBatch(t *testing.T) {
	batches := testStreamBatches()
	for _, stop := range []string{"delete", "abort"} {
		stop := stop
		t.Run(stop, func(t *testing.T) {
			fx := startClusterWorkers(t, 1)
			pool := startPool(t, fx, func(c *cluster.PoolConfig) { c.RPCTimeout = 30 * time.Second })
			srv, hs := newTestServer(t, func(c *server.Config) { c.Cluster = pool })
			v := openStream(t, hs.URL, server.StreamRequest{MinSupport: testMinSupport, Cluster: true})
			if code, _ := postBatch(t, hs.URL, v.ID, server.BatchRequest{Baskets: batches[0]}); code != http.StatusOK {
				t.Fatalf("batch 1: status %d", code)
			}

			// Hang the worker's count handler and put batch 2 in flight.
			entered, release := make(chan struct{}), make(chan struct{})
			defer close(release)
			var once sync.Once
			fx.countGate.Store(func() {
				once.Do(func() { close(entered) })
				<-release
			})
			body, _ := json.Marshal(server.BatchRequest{Baskets: batches[1]})
			posted := make(chan error, 1)
			go func() {
				resp, err := http.Post(hs.URL+"/v1/streams/"+v.ID+"/batches", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
				posted <- err
			}()
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("batch 2 never reached the worker")
			}

			start := time.Now()
			stopped := make(chan int, 1)
			go func() {
				if stop == "abort" {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					srv.Abort(ctx)
					stopped <- 0
					return
				}
				req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/streams/"+v.ID, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					stopped <- -1
					return
				}
				resp.Body.Close()
				stopped <- resp.StatusCode
			}()
			select {
			case code := <-stopped:
				if stop == "delete" && code != http.StatusNoContent {
					t.Fatalf("DELETE answered %d, want 204", code)
				}
				t.Logf("%s returned after %v", stop, time.Since(start))
			case <-time.After(2 * time.Second):
				t.Fatalf("%s still blocked after 2s behind the batch in flight", stop)
			}
			select {
			case err := <-posted:
				if err != nil {
					t.Fatalf("in-flight batch POST: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the in-flight batch never answered")
			}
		})
	}
}

// TestStreamClusterE2ECoordinatorKillCompose is the composition case the
// suite exists for: the coordinator daemon dies between journaling a batch
// and snapshotting the state, AND a worker dies mid-delta-scan during the
// restarted daemon's journal replay. The replay must fail over and
// converge to the uninterrupted reference with zero lost and zero
// double-counted batches — and a third, clusterless generation on the
// same spool must still serve the stream by counting locally.
func TestStreamClusterE2ECoordinatorKillCompose(t *testing.T) {
	spoolDir := t.TempDir()
	fx := startClusterWorkers(t, 2)
	batches := testStreamBatches()

	// Generation 1: batch 1 applies and is snapshotted; batch 2 is
	// journaled "by the dying daemon" but never applied — the kill window
	// between the journal write and the state snapshot.
	pool1 := startPool(t, fx, nil)
	srv1, err := server.New(server.Config{SpoolDir: spoolDir, Workers: 1, Cluster: pool1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1)
	v := openStream(t, hs1.URL, server.StreamRequest{MinSupport: testMinSupport, Cluster: true})
	if code, _ := postBatch(t, hs1.URL, v.ID, server.BatchRequest{Baskets: batches[0]}); code != http.StatusOK {
		t.Fatal("batch 1 failed")
	}
	journal := fmt.Sprintf(`{"id":%q,"seq":2,"baskets":%q}`, v.ID, batches[1])
	if err := os.WriteFile(filepath.Join(spoolDir, fmt.Sprintf("%s.b%08d.batch", v.ID, 2)), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	hs1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv1.Abort(ctx)
	cancel()

	// Worker 0 will die mid-scan during the replayed batch's delta counting.
	fx.kills[0].Arm(1, 3)

	// Generation 2 over the same spool and workers: the replay must push
	// batch 2 through the normal apply path, fanning its verification over
	// the cluster, surviving the mid-delta worker death by failover.
	pool2 := startPool(t, fx, nil)
	srv2, err := server.New(server.Config{SpoolDir: spoolDir, Workers: 1, Cluster: pool2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2)
	snap := srv2.Registry().Snapshot()
	if snap["pincer_stream_batches_replayed_total"] != 1 {
		t.Fatalf("batches replayed = %d, want 1", snap["pincer_stream_batches_replayed_total"])
	}
	if snap["pincer_stream_cluster_batches_total"] == 0 {
		t.Fatal("the replayed batch did not go through the cluster accounting")
	}
	if !fx.kills[0].Down() {
		t.Fatal("the armed worker never died — the composition was not exercised")
	}

	var view server.StreamView
	doJSON(t, http.MethodGet, hs2.URL+"/v1/streams/"+v.ID, nil, &view)
	wantTx := mustParse(t, batches[0]+batches[1]).Len()
	if view.Interrupted || view.Seq != 2 || view.Transactions != wantTx || !view.Cluster {
		t.Fatalf("after composed recovery: %+v (want seq 2, %d tx)", view, wantTx)
	}
	checkStreamMFS(t, hs2.URL, v.ID, streamRef(t, batches[0]+batches[1], testMinSupport))

	// Zero double counts: a client retry of the replayed batch is a
	// duplicate ack, not a re-apply.
	code, doc := postBatch(t, hs2.URL, v.ID, server.BatchRequest{Baskets: batches[1], Seq: 2})
	if code != http.StatusOK || !doc.Duplicate || doc.Transactions != wantTx {
		t.Fatalf("retry of replayed batch: code %d, delta %+v", code, doc)
	}

	// The stream keeps accepting batches on the surviving worker.
	fx.kills[0].Revive()
	code, doc = postBatch(t, hs2.URL, v.ID, server.BatchRequest{Baskets: batches[2]})
	if code != http.StatusOK || doc.Cluster == nil {
		t.Fatalf("post-recovery batch: code %d, delta %+v", code, doc)
	}
	checkStreamMFS(t, hs2.URL, v.ID, streamRef(t, strings.Join(batches, ""), testMinSupport))
	hs2.Close()
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	srv2.Abort(ctx)
	cancel()

	// Generation 3 has no cluster at all: the clustered spec must degrade
	// to local counting — same answers — instead of refusing to recover.
	srv3, err := server.New(server.Config{SpoolDir: spoolDir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	hs3 := httptest.NewServer(srv3)
	defer hs3.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv3.Abort(ctx)
	}()
	var view3 server.StreamView
	doJSON(t, http.MethodGet, hs3.URL+"/v1/streams/"+v.ID, nil, &view3)
	if view3.Interrupted || view3.Seq != 3 {
		t.Fatalf("clusterless recovery: %+v", view3)
	}
	code, doc = postBatch(t, hs3.URL, v.ID, server.BatchRequest{Baskets: batches[0]})
	if code != http.StatusOK {
		t.Fatalf("clusterless append: status %d", code)
	}
	if doc.Cluster != nil {
		t.Fatalf("clusterless batch claims cluster accounting: %+v", doc.Cluster)
	}
	checkStreamMFS(t, hs3.URL, v.ID, streamRef(t, strings.Join(batches, "")+batches[0], testMinSupport))
}
