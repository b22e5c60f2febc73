package loadgen

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"pincer/internal/server"
)

func TestGenerateDatasetsDeterministic(t *testing.T) {
	a := GenerateDatasets(3, 42)
	b := GenerateDatasets(3, 42)
	if len(a) != 3 {
		t.Fatalf("got %d datasets, want 3", len(a))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Baskets != b[i].Baskets {
			t.Errorf("dataset %d differs between equal-seed generations", i)
		}
		if a[i].Baskets == "" {
			t.Errorf("dataset %d is empty", i)
		}
	}
	c := GenerateDatasets(3, 43)
	if c[0].Baskets == a[0].Baskets {
		t.Error("different seeds produced identical baskets")
	}
}

func TestBuildCells(t *testing.T) {
	ds := GenerateDatasets(2, 1)
	minsups := []float64{0.2, 0.4}
	miners := []string{server.MinerPincer, server.MinerParallel}
	cells := BuildCells(ds, minsups, miners, 4)
	if len(cells) != len(ds)*len(minsups)*len(miners) {
		t.Fatalf("got %d cells, want %d", len(cells), len(ds)*len(minsups)*len(miners))
	}
	for _, c := range cells {
		if c.Miner == server.MinerParallel && c.Workers != 4 {
			t.Errorf("parallel cell %s has workers %d, want 4", c.Name(), c.Workers)
		}
		if c.Miner != server.MinerParallel && c.Workers != 0 {
			t.Errorf("sequential cell %s has workers %d, want 0", c.Name(), c.Workers)
		}
	}
}

func TestReferenceSignature(t *testing.T) {
	// {1,2} appears in 3 of 4 transactions, {3} in 2: at 50% support the
	// maximal frequent itemsets are {1 2} (support 3) and {3} (support 2).
	baskets := "1 2\n1 2 3\n1 2\n3\n"
	sig, err := ReferenceSignature(baskets, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := "1 2=3;3=2"
	if sig != want {
		t.Errorf("signature = %q, want %q", sig, want)
	}
	// Signature over the equivalent ResultDoc must canonicalize identically.
	doc := &server.ResultDoc{MFS: []server.ItemsetDoc{
		{Items: []int32{3}, Support: 2},
		{Items: []int32{1, 2}, Support: 3},
	}}
	if got := Signature(doc); got != want {
		t.Errorf("Signature(doc) = %q, want %q", got, want)
	}
}

func TestConfigValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{}); err == nil {
		t.Error("empty config did not error")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", Duration: time.Second}); err == nil {
		t.Error("config without cells did not error")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", Cells: []Cell{{}}}); err == nil {
		t.Error("config without duration did not error")
	}
	if _, err := Run(ctx, Config{
		BaseURL: "http://x", Cells: []Cell{{}}, Duration: time.Second,
		Chaos: &ChaosConfig{},
	}); err == nil {
		t.Error("chaos config without restart callback did not error")
	}
}

// TestShortClosedLoopRun drives a small in-process daemon with the full
// request mix for half a second: resubmits hit the cache, cancels hit
// DELETE, and every accepted job must land in a terminal bucket.
func TestShortClosedLoopRun(t *testing.T) {
	d, err := StartLocal(server.Config{SpoolDir: t.TempDir(), Workers: 2, QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ds := GenerateDatasets(2, 7)
	cells := BuildCells(ds, []float64{0.3, 0.6}, []string{server.MinerPincer, server.MinerApriori}, 0)
	rep, err := Run(context.Background(), Config{
		BaseURL:       d.URL(),
		Cells:         cells,
		Concurrency:   4,
		Duration:      500 * time.Millisecond,
		ResubmitRatio: 0.5,
		CancelRatio:   0.2,
		Seed:          1,
		Verify:        true,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("run made no requests")
	}
	if rep.Jobs.Lost != 0 {
		t.Errorf("lost %d jobs: %v", rep.Jobs.Lost, rep.Jobs.LostIDs)
	}
	if rep.Jobs.Failed != 0 {
		t.Errorf("%d jobs failed", rep.Jobs.Failed)
	}
	if len(rep.Jobs.Divergent) != 0 {
		t.Errorf("divergent results: %v", rep.Jobs.Divergent)
	}
	if rep.Jobs.Done > 0 && rep.Jobs.Verified == 0 {
		t.Error("jobs completed but none verified")
	}
	for code := range rep.Codes {
		if code[0] == '5' {
			t.Errorf("saw %s responses: %v", code, rep.Codes)
		}
	}
	if rep.Endpoints["submit"] == nil || rep.Endpoints["submit"].Requests == 0 {
		t.Error("no submit latencies recorded")
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report does not marshal: %v", err)
	}
}

// TestOpenLoopRun checks the fixed-arrival-rate mode: submissions keep
// arriving regardless of completions and the report flags the mode.
func TestOpenLoopRun(t *testing.T) {
	d, err := StartLocal(server.Config{SpoolDir: t.TempDir(), Workers: 2, QueueSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ds := GenerateDatasets(1, 3)
	cells := BuildCells(ds, []float64{0.5}, []string{server.MinerApriori}, 0)
	rep, err := Run(context.Background(), Config{
		BaseURL:  d.URL(),
		Cells:    cells,
		RateHz:   100,
		Duration: 400 * time.Millisecond,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" {
		t.Errorf("mode = %q, want open", rep.Mode)
	}
	if rep.Endpoints["submit"] == nil || rep.Endpoints["submit"].Requests < 10 {
		t.Errorf("open loop at 100 Hz for 400ms made too few submits: %+v", rep.Endpoints["submit"])
	}
	if rep.Jobs.Lost != 0 {
		t.Errorf("lost %d jobs: %v", rep.Jobs.Lost, rep.Jobs.LostIDs)
	}
}

// TestReportMachineContext pins the machine context a load report records,
// under the JSON names the bench harness's reports use.
func TestReportMachineContext(t *testing.T) {
	raw, err := json.Marshal((&runner{rec: newRecorder()}).buildReport(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]interface{}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]interface{}{
		"go_version": runtime.Version(),
		"cpus":       float64(runtime.NumCPU()),
		"gomaxprocs": float64(runtime.GOMAXPROCS(0)),
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("report %s = %v, want %v", k, got[k], v)
		}
	}
}
