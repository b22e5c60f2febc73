package obsv

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// feedFixedRun drives a tracer with a deterministic two-pass run so the
// exposition output is exactly reproducible.
func feedFixedRun(tr Tracer) {
	tr.RunStart(RunInfo{Algorithm: "pincer", Workers: 2, MinCount: 3, NumTransactions: 100})
	tr.PassDone(PassEvent{
		Algorithm: "pincer", Pass: 1, Phase: PhaseBottomUp,
		Candidates: 40, MFCSCandidates: 4, MFCSSize: 3,
		Frequent: 25, Infrequent: 15, MFSFound: 1,
		ScanDuration: 1500 * time.Nanosecond, Workers: 2,
	})
	EmitCheckpoint(tr, CheckpointEvent{
		Algorithm: "pincer", Pass: 1, Stage: "levelwise",
		Duration: 100 * time.Nanosecond,
	})
	tr.PassDone(PassEvent{
		Algorithm: "pincer", Pass: 2, Phase: PhaseRecovery,
		Candidates: 60, MFCSCandidates: 2, MFCSSize: 1,
		Frequent: 30, Infrequent: 30, MFSFound: 2,
		ScanDuration: 500 * time.Nanosecond, Workers: 2,
		Intersections: 7, Representation: "bitset",
	})
	EmitCheckpoint(tr, CheckpointEvent{
		Algorithm: "pincer", Pass: 2, Stage: "tail",
		Duration: 100 * time.Nanosecond,
	})
	tr.RunDone(RunSummary{
		Algorithm: "pincer", Passes: 2, Candidates: 102, MFSSize: 3,
		Duration: 2500 * time.Nanosecond,
	})
}

const wantPrometheus = `# HELP pincer_candidates_total Bottom-up candidates counted.
# TYPE pincer_candidates_total counter
pincer_candidates_total 100
# HELP pincer_checkpoints_written_total Pass-barrier checkpoints written durably.
# TYPE pincer_checkpoints_written_total counter
pincer_checkpoints_written_total 2
# HELP pincer_frequent_total Frequent itemsets discovered.
# TYPE pincer_frequent_total counter
pincer_frequent_total 55
# HELP pincer_intersections_total Tidset kernel operations performed by vertical pass counters.
# TYPE pincer_intersections_total counter
pincer_intersections_total 7
# HELP pincer_last_checkpoint_pass Pass number of the most recent checkpoint written durably.
# TYPE pincer_last_checkpoint_pass gauge
pincer_last_checkpoint_pass 2
# HELP pincer_last_run_mfs_size |MFS| of the most recently finished run.
# TYPE pincer_last_run_mfs_size gauge
pincer_last_run_mfs_size 3
# HELP pincer_last_run_passes Passes of the most recently finished run.
# TYPE pincer_last_run_passes gauge
pincer_last_run_passes 2
# HELP pincer_mfcs_candidates_total MFCS elements counted.
# TYPE pincer_mfcs_candidates_total counter
pincer_mfcs_candidates_total 6
# HELP pincer_mfs_found_total Maximal frequent itemsets established.
# TYPE pincer_mfs_found_total counter
pincer_mfs_found_total 3
# HELP pincer_mine_cancellations_total Mining runs ended early by cancellation or a resource budget.
# TYPE pincer_mine_cancellations_total counter
pincer_mine_cancellations_total 0
# HELP pincer_mining_nanoseconds_total Wall clock spent in whole mining runs.
# TYPE pincer_mining_nanoseconds_total counter
pincer_mining_nanoseconds_total 2500
# HELP pincer_passes_total Database passes completed.
# TYPE pincer_passes_total counter
pincer_passes_total 2
# HELP pincer_runs_total Mining runs started.
# TYPE pincer_runs_total counter
pincer_runs_total 1
# HELP pincer_scan_nanoseconds_total Wall clock spent in database passes.
# TYPE pincer_scan_nanoseconds_total counter
pincer_scan_nanoseconds_total 2000
# HELP pincer_workers Counting goroutines of the most recent run.
# TYPE pincer_workers gauge
pincer_workers 2
`

// TestMetricsTracerPrometheusGolden pins the full /metrics exposition of a
// deterministic run: metric names, HELP/TYPE lines, sort order, and the
// folded values.
func TestMetricsTracerPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	tr := NewMetricsTracer(reg)
	feedFixedRun(tr)
	// A paced checkpointer held this barrier in memory: it moves neither
	// the durable-write counter nor the last-written pass.
	EmitCheckpoint(tr, CheckpointEvent{
		Algorithm: "pincer", Pass: 3, Stage: "tail", Deferred: true,
		Duration: 50 * time.Nanosecond,
	})
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != wantPrometheus {
		t.Errorf("prometheus exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), wantPrometheus)
	}
}

// TestMetricsTracerExpvarExposition checks the /debug/vars half: valid JSON
// whose decoded values equal the registry snapshot.
func TestMetricsTracerExpvarExposition(t *testing.T) {
	reg := NewRegistry()
	feedFixedRun(NewMetricsTracer(reg))
	var buf bytes.Buffer
	if err := reg.WriteExpvar(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]int64
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("expvar output is not valid JSON: %v\n%s", err, buf.String())
	}
	snap := reg.Snapshot()
	if len(decoded) != len(snap) {
		t.Fatalf("expvar has %d vars, snapshot %d", len(decoded), len(snap))
	}
	for name, want := range snap {
		if decoded[name] != want {
			t.Errorf("%s = %d, want %d", name, decoded[name], want)
		}
	}
	if decoded["pincer_candidates_total"] != 100 {
		t.Errorf("pincer_candidates_total = %d, want 100", decoded["pincer_candidates_total"])
	}
}

// TestMetricsTracerCancellation checks the aborted-run counter: only
// summaries flagged Aborted increment pincer_mine_cancellations_total.
func TestMetricsTracerCancellation(t *testing.T) {
	reg := NewRegistry()
	tr := NewMetricsTracer(reg)
	feedFixedRun(tr)
	tr.RunStart(RunInfo{Algorithm: "pincer", Workers: 1, MinCount: 3, NumTransactions: 100})
	tr.RunDone(RunSummary{
		Algorithm: "pincer", Passes: 1, Candidates: 40, MFSSize: 1,
		Duration: 700 * time.Nanosecond, Aborted: true, AbortReason: "cancelled",
	})
	snap := reg.Snapshot()
	if got := snap["pincer_mine_cancellations_total"]; got != 1 {
		t.Errorf("pincer_mine_cancellations_total = %d, want 1", got)
	}
	if got := snap["pincer_runs_total"]; got != 2 {
		t.Errorf("pincer_runs_total = %d, want 2", got)
	}
	if got := snap["pincer_checkpoints_written_total"]; got != 2 {
		t.Errorf("pincer_checkpoints_written_total = %d, want 2", got)
	}
	if got := snap["pincer_last_checkpoint_pass"]; got != 2 {
		t.Errorf("pincer_last_checkpoint_pass = %d, want 2", got)
	}
}

func TestRegistryIdempotentByName(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "help")
	b := reg.Counter("x_total", "ignored")
	if a != b {
		t.Error("second registration returned a different counter")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Errorf("shared counter value = %d, want 2", b.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "wrong kind")
}
