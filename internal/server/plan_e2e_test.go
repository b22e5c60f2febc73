package server_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pincer/internal/server"
)

// TestE2EBudgetsPerMiner submits every miner with each budget on its own:
// a miner with no limit for a budget refuses it with 400 bad_budget rather
// than run to completion and cache a full answer under a bounded
// request's key; a budget a miner does honour stops it early with its
// anytime result. The deadline is accepted for every miner (load
// generators stamp one on every job), and miner=auto accepts every budget.
func TestE2EBudgetsPerMiner(t *testing.T) {
	_, hs := newTestServer(t, nil)
	budgets := []struct {
		name string
		set  func(*server.JobRequest)
	}{
		{"deadline_ms", func(r *server.JobRequest) { r.DeadlineMS = 60_000 }},
		{"max_passes", func(r *server.JobRequest) { r.MaxPasses = 1 }},
		{"max_candidates_per_pass", func(r *server.JobRequest) { r.MaxCandidatesPerPass = 1 }},
		{"max_memory_bytes", func(r *server.JobRequest) { r.MaxMemoryBytes = 1 }},
	}
	// want holds, per budget above, "400" for a refusal, "done", or the
	// partial reason the job stops with.
	const refused, done = "400", "done"
	want := map[string][4]string{
		server.MinerPincer:   {done, "max-passes", "max-candidates", "memory-budget"},
		server.MinerParallel: {done, "max-passes", "max-candidates", "memory-budget"},
		server.MinerApriori:  {done, refused, "max-candidates", refused},
		server.MinerTopdown:  {done, "max-passes", refused, refused},
		server.MinerVertical: {done, refused, refused, refused},
		server.MinerFPMax:    {done, refused, refused, refused},
		// testBaskets resolves to the vertical miner, which has none of
		// these limits.
		server.MinerAuto: {done, done, done, done},
	}
	for miner, outcomes := range want {
		for i, b := range budgets {
			t.Run(miner+"/"+b.name, func(t *testing.T) {
				spec := server.JobRequest{Baskets: testBaskets, MinSupport: testMinSupport, Miner: miner}
				b.set(&spec)
				var body struct {
					ID     string `json:"id"`
					Reason string `json:"reason"`
				}
				code := doJSON(t, http.MethodPost, hs.URL+"/v1/jobs", spec, &body)
				if outcomes[i] == refused {
					if code != http.StatusBadRequest || body.Reason != server.ReasonBadBudget {
						t.Fatalf("submit: status %d reason %q, want 400 %s", code, body.Reason, server.ReasonBadBudget)
					}
					return
				}
				if code != http.StatusAccepted {
					t.Fatalf("submit: status %d (%s), want 202", code, body.Reason)
				}
				v := waitStatus(t, hs.URL, body.ID, server.StatusDone, server.StatusPartial, server.StatusFailed)
				got := v.Status
				if v.Status == server.StatusPartial {
					got = v.PartialReason
				}
				if got != outcomes[i] {
					t.Errorf("ended %s (%s), want %s", got, v.Error, outcomes[i])
				}
			})
		}
	}
}

// TestE2EParallelWorkersWithEitherCounter checks the one workers rule: a
// parallel job with no workers counts on GOMAXPROCS goroutines whether it
// scans or intersects tid-lists, and a sequential tid-list job on one.
func TestE2EParallelWorkersWithEitherCounter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	srv, hs := newTestServer(t, nil)
	for _, tc := range []struct {
		miner, counter string
		workers        int
	}{
		{server.MinerParallel, "", 3},
		{server.MinerParallel, "tidlist", 3},
		{server.MinerPincer, "tidlist", 1},
	} {
		spec := server.JobRequest{Baskets: testBaskets, MinSupport: testMinSupport, Miner: tc.miner, Counter: tc.counter}
		code, v := submit(t, hs.URL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("%s/%s: submit status %d", tc.miner, tc.counter, code)
		}
		waitStatus(t, hs.URL, v.ID, server.StatusDone)
		if got := runStartWorkers(t, filepath.Join(srv.Manager().SpoolDir(), v.ID+".trace.jsonl")); got != tc.workers {
			t.Errorf("%s/%s: run_start workers = %d, want %d", tc.miner, tc.counter, got, tc.workers)
		}
	}
}

// runStartWorkers reads the worker count of a job trace's run_start event.
func runStartWorkers(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
			Run  struct {
				Workers int `json:"workers"`
			} `json:"run"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "run_start" {
			return ev.Run.Workers
		}
	}
	t.Fatalf("%s: no run_start event", path)
	return 0
}
