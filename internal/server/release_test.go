package server

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"pincer/internal/obsv"
)

// TestFinishedJobsReleaseData pins that the job table does not keep
// finished jobs' databases alive: once a job is done its inline baskets and
// parsed dataset are dropped, so with a small dataset cache the heap stays
// flat however many inline jobs have run.
func TestFinishedJobsReleaseData(t *testing.T) {
	cfg, err := Config{SpoolDir: t.TempDir(), Workers: 1, QueueSize: 4, DatasetCacheBytes: 1 << 20}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	m, err := newManager(cfg, obsv.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	// A distinct ~300 KiB inline database per job, so neither cache
	// short-cuts a submission; at 90% support nothing is frequent and the
	// mine is one pass.
	baskets := func(seed int64) string {
		r := rand.New(rand.NewSource(seed))
		var b strings.Builder
		for b.Len() < 300<<10 {
			fmt.Fprintf(&b, "%d %d %d %d %d\n", r.Intn(1000), r.Intn(1000), r.Intn(1000), r.Intn(1000), r.Intn(1000))
		}
		return b.String()
	}
	run := func(seed int64) {
		j, err := m.Submit(JobRequest{Baskets: baskets(seed), MinSupport: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Minute)
		for s := j.Status(); s == StatusQueued || s == StatusRunning; s = j.Status() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s", j.ID, s)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if s := j.Status(); s != StatusDone {
			t.Fatalf("job %s ended %s", j.ID, s)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// Warm up: fill the dataset cache to its bound first.
	for seed := int64(0); seed < 5; seed++ {
		run(seed)
	}
	before := heap()
	const jobs = 30
	for seed := int64(100); seed < 100+jobs; seed++ {
		run(seed)
	}
	after := heap()

	m.mu.Lock()
	for id, j := range m.jobs {
		j.mu.Lock()
		if j.data != nil || j.Spec.Baskets != "" {
			t.Errorf("finished job %s still holds its database (dataset %v, %d basket bytes)", id, j.data != nil, len(j.Spec.Baskets))
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	perJob := (float64(after) - float64(before)) / jobs / (1 << 20)
	t.Logf("heap growth per finished job: %.3f MiB", perJob)
	if perJob >= 0.25 {
		t.Errorf("heap grew %.2f MiB per finished job, want < 0.25 MiB", perJob)
	}
}
