package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRunVerticalSweep(t *testing.T) {
	var progress []string
	opt := DefaultOptions()
	opt.Progress = func(l string) { progress = append(progress, l) }
	rep := Run(suiteOn(t, "vertical", tinySpec()), 2, opt)
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if !c.Agree {
			t.Errorf("sup=%.4f: tidlist result disagrees with scan", c.Support)
		}
		if c.Reference.Seconds <= 0 || c.Variant.Seconds <= 0 || c.Ratio <= 0 {
			t.Errorf("sup=%.4f: no timing (%+v)", c.Support, c)
		}
		if !strings.Contains(c.Variant.Detail, "intersections") || c.Reference.Detail != "" {
			t.Errorf("sup=%.4f: intersection accounting on the wrong side (%+v)", c.Support, c)
		}
		if c.Reference.Passes != c.Variant.Passes || c.Reference.Candidates != c.Variant.Candidates {
			t.Errorf("sup=%.4f: accounting diverged (%+v vs %+v)", c.Support, c.Reference, c.Variant)
		}
	}
	if len(progress) != 4 {
		t.Errorf("progress lines = %d", len(progress))
	}
	// The strategy ratio must never be presented as a parallel speedup: it
	// compares two counters of one sequential computation.
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if rep.Ratio != "scan_over_tidlist_time" || strings.Contains(buf.String(), "speedup") {
		t.Errorf("vertical ratio must be scan_over_tidlist_time, not speedup:\n%s", buf.String())
	}
}

// A cancelled context must stop the suite before any cell and report why.
func TestRunVerticalSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultOptions()
	opt.Context = ctx
	rep := Run(suiteOn(t, "vertical", tinySpec()), 1, opt)
	for _, c := range rep.Cells {
		if c.Skip != "harness context canceled" {
			t.Errorf("cell ran under a cancelled context: %+v", c)
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

// TestRunSpecTidlistCounter exercises the Options.Counter knob end-to-end:
// the figures suite with the tid-list counter must agree with Apriori on
// every cell.
func TestRunSpecTidlistCounter(t *testing.T) {
	opt := DefaultOptions()
	opt.Counter = "tidlist"
	rep := Run(suiteOn(t, "figures", tinySpec()), 1, opt)
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if !c.measured() || !c.Agree || c.Variant.Name != "pincer-tidlist" {
			t.Errorf("sup=%.4f: %+v", c.Support, c)
		}
	}
}
