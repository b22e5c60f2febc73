package bench

import (
	"context"
	"testing"
)

// streamSpec is long enough for four batches, of which the border check
// absorbs at least one.
func streamSpec() Spec {
	s, _ := SpecByID("F4-T20I10", 2000)
	return s
}

func TestRunStreamSweep(t *testing.T) {
	var progress []string
	opt := DefaultOptions()
	opt.Progress = func(l string) { progress = append(progress, l) }
	rep := Run(suiteOn(t, "stream", streamSpec()), 2, opt)
	if len(rep.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(rep.Cells))
	}
	fast := 0
	for i, c := range rep.Cells {
		if want := []string{"seq=1", "seq=2", "seq=3", "seq=4"}[i]; c.Key != want {
			t.Errorf("cell %d key = %q, want %q", i, c.Key, want)
		}
		// The suite's whole claim rests on the maintained MFS matching the
		// from-scratch mine at every prefix.
		if !c.Agree {
			t.Errorf("%s: maintained MFS diverges from the from-scratch mine", c.Key)
		}
		if c.Reference.Seconds <= 0 || c.Variant.Seconds <= 0 {
			t.Errorf("%s: no timing (%+v)", c.Key, c)
		}
		switch c.Variant.Name {
		case "fast-path":
			fast++
		case "re-mine":
		default:
			t.Errorf("%s: variant %q is neither path", c.Key, c.Variant.Name)
		}
	}
	if fast == 0 {
		t.Error("no delta took the fast path")
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
	if len(progress) != 8 {
		t.Errorf("progress lines = %d", len(progress))
	}
}

func TestRunStreamSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultOptions()
	opt.Context = ctx
	rep := Run(suiteOn(t, "stream", streamSpec()), 1, opt)
	if len(rep.Cells) != 4 {
		t.Fatalf("cells = %d, want one skipped cell per batch", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Skip != "harness context canceled" {
			t.Errorf("%s ran under a cancelled context: %+v", c.Key, c)
		}
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
}
