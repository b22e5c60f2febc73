package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestRunParallelSweep(t *testing.T) {
	var progress []string
	opt := DefaultOptions()
	opt.Progress = func(l string) { progress = append(progress, l) }
	s := suiteOn(t, "parallel", tinySpec())
	s.Supports = []float64{0.12}
	rep := Run(s, 2, opt)
	if rep.Suite != "parallel" || rep.Transactions != 600 || rep.Repeats != 2 {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.CPUs < 1 || rep.GoMaxProcs < 1 || rep.GoVersion == "" {
		t.Fatalf("machine context missing: %+v", rep)
	}
	if len(rep.Cells) != 3 {
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	for i, c := range rep.Cells {
		if want := []string{"workers=1", "workers=2", "workers=4"}[i]; c.Key != want {
			t.Errorf("cell %d key = %q, want %q", i, c.Key, want)
		}
		if !c.Agree {
			t.Errorf("%s: parallel result disagrees with sequential", c.Key)
		}
		if c.Variant.Seconds <= 0 || c.Reference.Seconds <= 0 || c.Ratio <= 0 {
			t.Errorf("%s: no timing (%+v)", c.Key, c)
		}
	}
	// The ratio is a speedup only where a second CPU can make one.
	if want := parallelRatio(runtime.NumCPU()); rep.Ratio != want {
		t.Errorf("ratio = %q, want %q", rep.Ratio, want)
	}
	if parallelRatio(1) == "speedup" || parallelRatio(2) != "speedup" {
		t.Errorf("parallelRatio(1) = %q, parallelRatio(2) = %q", parallelRatio(1), parallelRatio(2))
	}
	if len(progress) != 6 {
		t.Errorf("progress lines = %d, want one per cell per replay", len(progress))
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if len(back.Cells) != 3 || back.Cells[2].Key != "workers=4" || len(back.Gates) != 1 || !back.Gates[0].Pass {
		t.Fatalf("round-tripped report: %+v", back)
	}
}

// A cancelled context must stop the suite before any run and report the
// reason instead of panicking or hanging.
func TestRunParallelSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultOptions()
	opt.Context = ctx
	rep := Run(suiteOn(t, "parallel", tinySpec()), 1, opt)
	if len(rep.Cells) != 3 {
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Skip == "" {
			t.Errorf("%s ran under a cancelled context", c.Key)
		}
	}
	var tbl bytes.Buffer
	if err := WriteTable(&tbl, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "skipped: harness context canceled") {
		t.Errorf("table does not surface the stop reason:\n%s", tbl.String())
	}
}
