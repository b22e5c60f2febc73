package server_test

// Regression tests for the server hardening the load harness forced: the
// request-body byte cap (413, never an unbounded buffer), the per-remote
// in-flight cap (429 before any handler runs), and the per-route
// pincer_http_request_seconds / pincer_http_responses_total metrics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pincer/internal/server"
)

type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

func TestOversizedBodyGets413(t *testing.T) {
	_, hs := newTestServer(t, func(cfg *server.Config) {
		cfg.MaxBodyBytes = 4 << 10
	})
	// A 1 MiB body against a 4 KiB cap: the decoder must stop at the cap
	// and answer 413 with the typed reason, not buffer the whole body.
	big := strings.Repeat("1 2 3 4 5 6 7 8\n", 64<<10)
	body, err := json.Marshal(server.JobRequest{Baskets: big, MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode 413 body: %v", err)
	}
	if e.Reason != server.ReasonBodyTooLarge || e.Error == "" {
		t.Errorf("413 body = %+v, want reason %q and non-empty error", e, server.ReasonBodyTooLarge)
	}
	// A body under the cap still works.
	if code, _ := submit(t, hs.URL, server.JobRequest{Baskets: "1 2\n1 2\n", MinSupport: 0.5}); code != http.StatusAccepted {
		t.Errorf("small body after 413: status %d, want 202", code)
	}
}

func TestPerRemoteInflightCap(t *testing.T) {
	_, hs := newTestServer(t, func(cfg *server.Config) {
		cfg.MaxInflightPerRemote = 1
	})
	// Occupy the single in-flight slot with a request that takes ~1s to
	// answer (a pprof CPU profile), then race a second request from the
	// same remote host against it: the cap must answer 429 immediately.
	started := make(chan struct{})
	profileDone := make(chan error, 1)
	go func() {
		close(started)
		for {
			resp, err := http.Get(hs.URL + "/debug/pprof/profile?seconds=1")
			if err != nil {
				profileDone <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// A poll below may hold the slot when the profile arrives; the
			// profile is then the request turned away, so send it again.
			if resp.StatusCode != http.StatusTooManyRequests {
				profileDone <- nil
				return
			}
		}
	}()
	<-started
	deadline := time.Now().Add(5 * time.Second)
	got429 := false
	for time.Now().Before(deadline) && !got429 {
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = true
			if e.Reason != server.ReasonRemoteLimit {
				t.Errorf("429 reason = %q, want %q", e.Reason, server.ReasonRemoteLimit)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !got429 {
		t.Error("never observed a 429 while a request was in flight")
	}
	if err := <-profileDone; err != nil {
		t.Fatalf("profile request: %v", err)
	}
	// The slot frees after the profile completes.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after slot freed: %d, want 200", resp.StatusCode)
	}
}

func TestPerRemoteInflightCapConcurrent(t *testing.T) {
	// Hammer the limiter from many goroutines: every request must get
	// either 200 or 429, and the final in-flight count must drain to zero
	// (a leak would make later requests 429 forever).
	_, hs := newTestServer(t, func(cfg *server.Config) {
		cfg.MaxInflightPerRemote = 4
	})
	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				resp, err := http.Get(hs.URL + "/healthz")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				codes[resp.StatusCode]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for code := range codes {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Errorf("unexpected status %d under load: %v", code, codes)
		}
	}
	time.Sleep(20 * time.Millisecond)
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("limiter leaked slots: idle healthz = %d, want 200", resp.StatusCode)
	}
}

func TestHTTPMetricsExposition(t *testing.T) {
	_, hs := newTestServer(t, nil)
	code, v := submit(t, hs.URL, server.JobRequest{Baskets: testBaskets, MinSupport: testMinSupport})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitStatus(t, hs.URL, v.ID, server.StatusDone)
	// One guaranteed 4xx for the taxonomy.
	doJSON(t, http.MethodGet, hs.URL+"/v1/jobs/nope", nil, nil)

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		"# TYPE pincer_http_request_seconds histogram",
		`pincer_http_request_seconds_bucket{route="submit",le="+Inf"} 1`,
		`pincer_http_request_seconds_count{route="submit"} 1`,
		`pincer_http_responses_total{route="submit",code="2xx"} 1`,
		`pincer_http_responses_total{route="status",code="4xx"} 1`,
		"# TYPE pincer_http_inflight_limited_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The status route saw at least the polling GETs, all 2xx except the 404.
	var statusCount int64
	fmt.Sscanf(findLine(out, `pincer_http_request_seconds_count{route="status"}`),
		`pincer_http_request_seconds_count{route="status"} %d`, &statusCount)
	if statusCount < 1 {
		t.Errorf("status route count = %d, want ≥ 1", statusCount)
	}
}

// findLine returns the first exposition line starting with prefix.
func findLine(out, prefix string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}
