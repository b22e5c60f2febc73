package server_test

// End-to-end tests of the stream resource over real HTTP: open → append →
// read-back equivalence against from-scratch mining, seq idempotency,
// validation reasons, deletion, and the two kill → restart → replay
// contracts (a batch journaled but never applied, and a daemon killed in
// the middle of a border-moved re-mine).

import (
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

	"pincer/internal/core"
	"pincer/internal/dataset"
	"pincer/internal/faultinject"
	"pincer/internal/server"
)

// streamRef mines the concatenated basket text from scratch and renders the
// MFS as a canonical signature map — the answer the maintained stream must
// match exactly after every applied batch.
func streamRef(t *testing.T, baskets string, minSupport float64) map[string]int64 {
	t.Helper()
	d := mustParse(t, baskets)
	opt := core.DefaultOptions()
	opt.KeepFrequent = false
	res, err := core.MineCount(dataset.NewScanner(d), d.MinCount(minSupport), opt)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for i, m := range res.MFS {
		parts := make([]string, len(m))
		for j, it := range m {
			parts[j] = fmt.Sprint(int64(it))
		}
		want[strings.Join(parts, " ")] = res.MFSSupports[i]
	}
	return want
}

// checkStreamMFS asserts GET /v1/streams/{id}/mfs equals the reference.
func checkStreamMFS(t *testing.T, base, id string, want map[string]int64) {
	t.Helper()
	var doc server.StreamMFSDoc
	if code := doJSON(t, http.MethodGet, base+"/v1/streams/"+id+"/mfs", nil, &doc); code != http.StatusOK {
		t.Fatalf("GET mfs: status %d", code)
	}
	if len(doc.MFS) != len(want) {
		t.Fatalf("stream MFS has %d sets, reference %d", len(doc.MFS), len(want))
	}
	for _, m := range doc.MFS {
		items := make([]string, len(m.Items))
		for i, it := range m.Items {
			items[i] = fmt.Sprint(it)
		}
		key := strings.Join(items, " ")
		if sup, ok := want[key]; !ok || sup != m.Support {
			t.Errorf("stream MFS element %q support %d not in reference %v", key, m.Support, want)
		}
	}
}

func openStream(t *testing.T, base string, spec server.StreamRequest) server.StreamView {
	t.Helper()
	var v server.StreamView
	if code := doJSON(t, http.MethodPost, base+"/v1/streams", spec, &v); code != http.StatusCreated {
		t.Fatalf("POST /v1/streams: status %d", code)
	}
	if v.ID == "" || v.Seq != 0 {
		t.Fatalf("fresh stream view: %+v", v)
	}
	return v
}

func postBatch(t *testing.T, base, id string, req server.BatchRequest) (int, server.StreamDeltaDoc) {
	t.Helper()
	var doc server.StreamDeltaDoc
	code := doJSON(t, http.MethodPost, base+"/v1/streams/"+id+"/batches", req, &doc)
	return code, doc
}

func TestE2EStreamLifecycle(t *testing.T) {
	srv, hs := newTestServer(t, nil)
	v := openStream(t, hs.URL, server.StreamRequest{MinSupport: testMinSupport})
	id := v.ID

	// Feed testBaskets in three batches; after every one the maintained MFS
	// must be byte-identical to mining the accumulated prefix from scratch.
	lines := strings.SplitAfter(strings.TrimSuffix(testBaskets, "\n"), "\n")
	batches := []string{
		strings.Join(lines[:6], ""),
		strings.Join(lines[6:12], ""),
		strings.Join(lines[12:], ""),
	}
	prefix := ""
	for i, b := range batches {
		code, doc := postBatch(t, hs.URL, id, server.BatchRequest{Baskets: b})
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i+1, code)
		}
		if doc.Seq != int64(i+1) || doc.Duplicate {
			t.Fatalf("batch %d: delta %+v", i+1, doc)
		}
		if i == 0 && (!doc.Remined || doc.Reason != "initial") {
			t.Fatalf("first delta should be the initial mine, got %+v", doc)
		}
		prefix += b
		checkStreamMFS(t, hs.URL, id, streamRef(t, prefix, testMinSupport))
	}

	// Retrying an already-applied seq is acknowledged without re-applying.
	nTx := mustParse(t, prefix).Len()
	code, doc := postBatch(t, hs.URL, id, server.BatchRequest{Baskets: batches[0], Seq: 1})
	if code != http.StatusOK || !doc.Duplicate || doc.Transactions != nTx {
		t.Fatalf("duplicate seq 1: code %d, delta %+v", code, doc)
	}
	// A future seq is out of order.
	if code, _ := postBatch(t, hs.URL, id, server.BatchRequest{Baskets: batches[0], Seq: 99}); code != http.StatusBadRequest {
		t.Fatalf("out-of-order seq: status %d", code)
	}

	// Status view and listing.
	var view server.StreamView
	if code := doJSON(t, http.MethodGet, hs.URL+"/v1/streams/"+id, nil, &view); code != http.StatusOK {
		t.Fatalf("GET stream: status %d", code)
	}
	if view.Seq != 3 || view.Batches != 3 || view.Transactions != nTx || view.Interrupted {
		t.Fatalf("stream view: %+v", view)
	}
	if view.Remines < 1 {
		t.Fatalf("stream never mined: %+v", view)
	}
	var list struct {
		Streams []server.StreamView `json:"streams"`
	}
	if code := doJSON(t, http.MethodGet, hs.URL+"/v1/streams", nil, &list); code != http.StatusOK || len(list.Streams) != 1 {
		t.Fatalf("list streams: %d entries", len(list.Streams))
	}

	// The border is opt-in on the mfs doc and non-empty on this database.
	var mfs server.StreamMFSDoc
	doJSON(t, http.MethodGet, hs.URL+"/v1/streams/"+id+"/mfs?border=1", nil, &mfs)
	if mfs.BorderSize == 0 || len(mfs.Border) != mfs.BorderSize {
		t.Fatalf("border not rendered: size %d, %d sets", mfs.BorderSize, len(mfs.Border))
	}

	// Metrics: every batch journaled, the fast/re-mine split populated.
	snap := srv.Registry().Snapshot()
	if snap["pincer_stream_batches_total"] != 3 || snap["pincer_stream_created_total"] != 1 {
		t.Fatalf("stream metrics: %v %v", snap["pincer_stream_batches_total"], snap["pincer_stream_created_total"])
	}
	if snap["pincer_stream_remines_total"]+snap["pincer_stream_remines_avoided_total"] != 3 {
		t.Fatalf("remine split does not cover all batches: %v + %v",
			snap["pincer_stream_remines_total"], snap["pincer_stream_remines_avoided_total"])
	}

	// Delete: gone from the API and the spool.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/streams/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE stream: status %d", resp.StatusCode)
	}
	if code := doJSON(t, http.MethodGet, hs.URL+"/v1/streams/"+id, nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET deleted stream: status %d", code)
	}
	if code, _ := postBatch(t, hs.URL, id, server.BatchRequest{Baskets: batches[0]}); code != http.StatusNotFound {
		t.Fatalf("POST to deleted stream: status %d", code)
	}
	left, _ := filepath.Glob(filepath.Join(srv.Manager().SpoolDir(), id+"*"))
	if len(left) != 0 {
		t.Fatalf("spool files survived deletion: %v", left)
	}
}

func TestE2EStreamValidation(t *testing.T) {
	_, hs := newTestServer(t, nil)
	cases := []struct {
		spec   server.StreamRequest
		reason string
	}{
		{server.StreamRequest{MinSupport: 0}, "bad_support"},
		{server.StreamRequest{MinSupport: 1.5}, "bad_support"},
		{server.StreamRequest{MinSupport: 0.5, Window: -1}, "bad_window"},
		{server.StreamRequest{MinSupport: 0.5, Counter: "quantum"}, "bad_counter"},
		{server.StreamRequest{MinSupport: 0.5, Workers: -2}, "bad_workers"},
	}
	for _, c := range cases {
		var e struct {
			Reason string `json:"reason"`
		}
		if code := doJSON(t, http.MethodPost, hs.URL+"/v1/streams", c.spec, &e); code != http.StatusBadRequest || e.Reason != c.reason {
			t.Errorf("spec %+v: code %d reason %q, want 400 %q", c.spec, code, e.Reason, c.reason)
		}
	}

	v := openStream(t, hs.URL, server.StreamRequest{MinSupport: 0.5})
	batchCases := []struct {
		req    server.BatchRequest
		reason string
	}{
		{server.BatchRequest{Baskets: ""}, "bad_batch"},
		{server.BatchRequest{Baskets: "not numbers\n"}, "bad_batch"},
		{server.BatchRequest{Baskets: "999999999\n"}, "bad_batch"}, // universe cap
		{server.BatchRequest{Baskets: "1 2\n", Seq: -4}, "bad_seq"},
		{server.BatchRequest{Baskets: "1 2\n", Seq: 7}, "bad_seq"},
	}
	for _, c := range batchCases {
		var e struct {
			Reason string `json:"reason"`
		}
		if code := doJSON(t, http.MethodPost, hs.URL+"/v1/streams/"+v.ID+"/batches", c.req, &e); code != http.StatusBadRequest || e.Reason != c.reason {
			t.Errorf("batch %+v: code %d reason %q, want 400 %q", c.req, code, e.Reason, c.reason)
		}
	}
	if code := doJSON(t, http.MethodGet, hs.URL+"/v1/streams/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("GET unknown stream: status %d", code)
	}
}

// TestE2EStreamKillRestartReplay exercises both restart contracts at once
// on one spool:
//
//   - stream A is killed in the middle of its initial re-mine (the
//     fault-injection scanner trips during pass 2), leaving the batch
//     journaled, the stream interrupted, and the pass-1 mine checkpoint on
//     disk;
//   - stream B simulates a daemon killed after journaling a batch but
//     before applying it (the journal entry is written directly into the
//     spool).
//
// The restarted daemon must converge both to the uninterrupted reference:
// no lost batches, no double-applied batches.
func TestE2EStreamKillRestartReplay(t *testing.T) {
	spoolDir := t.TempDir()

	lines := strings.SplitAfter(strings.TrimSuffix(testBaskets, "\n"), "\n")
	batch1 := strings.Join(lines[:9], "")
	batch2 := strings.Join(lines[9:], "")

	// Generation 1: streams opened after arming get a scanner that crashes
	// the second database pass of any mine.
	var mu sync.Mutex
	failing := map[string]bool{}
	srv1, err := server.New(server.Config{
		SpoolDir: spoolDir,
		Workers:  1,
		Logf:     t.Logf,
		WrapScanner: func(id string, sc dataset.Scanner) dataset.Scanner {
			mu.Lock()
			defer mu.Unlock()
			if failing[id] {
				return &faultinject.Scanner{Scanner: sc, TripAtScan: 2, AfterTx: 3}
			}
			return sc
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1)

	// Stream A: the kill unwinds mid-re-mine.
	a := openStream(t, hs1.URL, server.StreamRequest{MinSupport: testMinSupport})
	mu.Lock()
	failing[a.ID] = true
	mu.Unlock()
	if code, _ := postBatch(t, hs1.URL, a.ID, server.BatchRequest{Baskets: batch1}); code != http.StatusServiceUnavailable {
		t.Fatalf("killed batch: status %d, want 503", code)
	}
	var av server.StreamView
	doJSON(t, http.MethodGet, hs1.URL+"/v1/streams/"+a.ID, nil, &av)
	if !av.Interrupted || av.Seq != 0 {
		t.Fatalf("stream A after kill: %+v", av)
	}
	// Further appends are refused until a restart replays the journal.
	var e struct {
		Reason string `json:"reason"`
	}
	if code := doJSON(t, http.MethodPost, hs1.URL+"/v1/streams/"+a.ID+"/batches",
		server.BatchRequest{Baskets: batch2}, &e); code != http.StatusServiceUnavailable || e.Reason != "stream_interrupted" {
		t.Fatalf("append to interrupted stream: code %d reason %q", code, e.Reason)
	}
	// The interrupted mine left its pass-barrier checkpoint behind.
	if _, err := os.Stat(filepath.Join(spoolDir, a.ID+".mine.ckpt")); err != nil {
		t.Fatalf("stream A mine checkpoint missing: %v", err)
	}

	// Stream B: batch 1 applies cleanly; batch 2 is journaled "by the dying
	// daemon" but never applied.
	b := openStream(t, hs1.URL, server.StreamRequest{MinSupport: testMinSupport})
	if code, _ := postBatch(t, hs1.URL, b.ID, server.BatchRequest{Baskets: batch1}); code != http.StatusOK {
		t.Fatalf("stream B batch 1: status %d", code)
	}
	journal := fmt.Sprintf(`{"id":%q,"seq":2,"baskets":%q}`, b.ID, batch2)
	if err := os.WriteFile(filepath.Join(spoolDir, fmt.Sprintf("%s.b%08d.batch", b.ID, 2)), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	hs1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv1.Abort(ctx)
	cancel()

	// Generation 2: both streams replay to the uninterrupted reference.
	srv2, err := server.New(server.Config{SpoolDir: spoolDir, Workers: 1, Logf: t.Logf})
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

	snap := srv2.Registry().Snapshot()
	if snap["pincer_stream_resumed_total"] != 2 {
		t.Fatalf("streams resumed = %d, want 2", snap["pincer_stream_resumed_total"])
	}
	if snap["pincer_stream_batches_replayed_total"] != 2 {
		t.Fatalf("batches replayed = %d, want 2 (A's killed batch, B's unapplied batch)",
			snap["pincer_stream_batches_replayed_total"])
	}

	var av2 server.StreamView // fresh struct: omitempty fields must not inherit gen-1 state
	doJSON(t, http.MethodGet, hs2.URL+"/v1/streams/"+a.ID, nil, &av2)
	if av2.Interrupted || av2.Seq != 1 || av2.Transactions != mustParse(t, batch1).Len() {
		t.Fatalf("stream A after restart: %+v", av2)
	}
	checkStreamMFS(t, hs2.URL, a.ID, streamRef(t, batch1, testMinSupport))

	var bv server.StreamView
	doJSON(t, http.MethodGet, hs2.URL+"/v1/streams/"+b.ID, nil, &bv)
	wantTx := mustParse(t, batch1+batch2).Len()
	if bv.Interrupted || bv.Seq != 2 || bv.Transactions != wantTx {
		t.Fatalf("stream B after restart: %+v (want seq 2, %d tx)", bv, wantTx)
	}
	checkStreamMFS(t, hs2.URL, b.ID, streamRef(t, batch1+batch2, testMinSupport))

	// A client retry of the replayed batch is a duplicate, not a re-apply.
	code, doc := postBatch(t, hs2.URL, b.ID, server.BatchRequest{Baskets: batch2, Seq: 2})
	if code != http.StatusOK || !doc.Duplicate || doc.Transactions != wantTx {
		t.Fatalf("retry of replayed batch: code %d, delta %+v", code, doc)
	}

	// Both streams keep accepting new batches after recovery.
	for _, id := range []string{a.ID, b.ID} {
		if code, doc := postBatch(t, hs2.URL, id, server.BatchRequest{Baskets: batch1}); code != http.StatusOK || doc.Duplicate {
			t.Fatalf("stream %s post-recovery batch: code %d, delta %+v", id, code, doc)
		}
	}
	checkStreamMFS(t, hs2.URL, a.ID, streamRef(t, batch1+batch1, testMinSupport))
}

// TestE2EStreamRemineDefersCheckpoints: a stream's re-mines offer pass
// barriers, but a re-mine that finishes inside checkpoint.DurableInterval
// writes none of them durably — pincer_checkpoints_written_total stays 0
// while the stream's trace records every barrier as deferred — and a
// successful re-mine leaves no checkpoint file behind.
func TestE2EStreamRemineDefersCheckpoints(t *testing.T) {
	srv, hs := newTestServer(t, nil)
	id := openStream(t, hs.URL, server.StreamRequest{MinSupport: testMinSupport}).ID
	lines := strings.SplitAfter(strings.TrimSuffix(testBaskets, "\n"), "\n")
	for i, b := range []string{strings.Join(lines[:9], ""), strings.Join(lines[9:], "")} {
		if code, doc := postBatch(t, hs.URL, id, server.BatchRequest{Baskets: b}); code != http.StatusOK {
			t.Fatalf("batch %d: status %d, delta %+v", i+1, code, doc)
		}
	}
	snap := srv.Registry().Snapshot()
	if snap["pincer_stream_remines_total"] < 1 {
		t.Fatal("no batch re-mined, so no barrier was offered")
	}
	if n := snap["pincer_checkpoints_written_total"]; n != 0 {
		t.Fatalf("pincer_checkpoints_written_total = %d after re-mines inside the interval, want 0", n)
	}
	dir := srv.Manager().SpoolDir()
	raw, err := os.ReadFile(filepath.Join(dir, id+".stream.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	deferred := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev struct {
			Type       string `json:"type"`
			Checkpoint *struct {
				Deferred bool `json:"deferred"`
			} `json:"checkpoint"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev.Type != "checkpoint" {
			continue
		}
		if !ev.Checkpoint.Deferred {
			t.Fatalf("trace records a durable re-mine checkpoint: %s", line)
		}
		deferred++
	}
	if deferred == 0 {
		t.Fatal("the stream trace records no deferred checkpoint")
	}
	if _, err := os.Stat(filepath.Join(dir, id+".mine.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("a successful re-mine left its checkpoint: stat err %v", err)
	}
}
