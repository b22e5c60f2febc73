package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"pincer/internal/checkpoint"
)

func tinySpec() Spec {
	s := Figure4Specs(600)[0] // T20.I6, |L|=50, scaled to 600 transactions
	s.Supports = []float64{0.18, 0.12}
	return s
}

// suiteOn returns the named suite running on specs instead of its own
// databases.
func suiteOn(t *testing.T, name string, specs ...Spec) Suite {
	t.Helper()
	s, ok := SuiteByName(name, 0)
	if !ok {
		t.Fatalf("no suite %q", name)
	}
	s.Specs = specs
	return s
}

func TestSpecsCoverEveryFigureRow(t *testing.T) {
	f3 := Figure3Specs(0)
	f4 := Figure4Specs(0)
	if len(f3) != 3 || len(f4) != 3 {
		t.Fatalf("spec counts: %d + %d, want 3 + 3", len(f3), len(f4))
	}
	wantNames := map[string]string{
		"F3-T5I2":   "T5.I2.D100K (|L|=2000)",
		"F3-T10I4":  "T10.I4.D100K (|L|=2000)",
		"F3-T20I6":  "T20.I6.D100K (|L|=2000)",
		"F4-T20I6":  "T20.I6.D100K (|L|=50)",
		"F4-T20I10": "T20.I10.D100K (|L|=50)",
		"F4-T20I15": "T20.I15.D100K (|L|=50)",
	}
	for _, s := range AllSpecs(0) {
		want, ok := wantNames[s.ID]
		if !ok {
			t.Errorf("unexpected spec %q", s.ID)
			continue
		}
		if got := s.Name(); got != want {
			t.Errorf("spec %s Name = %q, want %q", s.ID, got, want)
		}
		if len(s.Supports) == 0 {
			t.Errorf("spec %s has no support sweep", s.ID)
		}
		if s.Figure != 3 && s.Figure != 4 {
			t.Errorf("spec %s figure = %d", s.ID, s.Figure)
		}
	}
	if _, ok := SpecByID("f4-t20i10", 0); !ok {
		t.Error("SpecByID case-insensitive lookup failed")
	}
	if _, ok := SpecByID("nope", 0); ok {
		t.Error("SpecByID found a ghost")
	}
}

func TestScalingOverridesD(t *testing.T) {
	s := Figure3Specs(1234)[0]
	if s.Quest.NumTransactions != 1234 {
		t.Fatalf("|D| = %d", s.Quest.NumTransactions)
	}
	s = Figure3Specs(0)[0]
	if s.Quest.NumTransactions != 100_000 {
		t.Fatalf("default |D| = %d", s.Quest.NumTransactions)
	}
	for _, s := range Suites(777) {
		for _, spec := range s.Specs {
			if spec.Quest.NumTransactions != 777 {
				t.Errorf("suite %s spec %s: |D| = %d, want 777", s.Name, spec.ID, spec.Quest.NumTransactions)
			}
		}
	}
}

func TestRunSpecProducesAgreeingCells(t *testing.T) {
	var progress []string
	opt := DefaultOptions()
	opt.Progress = func(l string) { progress = append(progress, l) }
	rep := Run(suiteOn(t, "figures", tinySpec()), 1, opt)
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if !c.measured() {
			t.Fatalf("unexpected skip: %+v", c)
		}
		if !c.Agree {
			t.Errorf("algorithms disagree at sup %v", c.Support)
		}
		if c.Reference.Name != "apriori" || c.Variant.Name != "pincer" {
			t.Errorf("sides = %s vs %s", c.Reference.Name, c.Variant.Name)
		}
		if c.Reference.Passes == 0 || c.Variant.Passes == 0 {
			t.Errorf("empty pass counts: %+v", c)
		}
		if c.Reference.Seconds <= 0 || c.Variant.Seconds <= 0 || c.Ratio <= 0 {
			t.Errorf("no timing recorded: %+v", c)
		}
	}
	// supports are swept in descending order
	if rep.Cells[0].Support < rep.Cells[1].Support {
		t.Errorf("supports not descending: %v then %v", rep.Cells[0].Support, rep.Cells[1].Support)
	}
	if len(progress) != 2 {
		t.Errorf("progress lines = %d", len(progress))
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
}

func TestBudgetSkipsHarderCells(t *testing.T) {
	opt := DefaultOptions()
	opt.Budget = time.Nanosecond // everything exceeds this after the first cell
	rep := Run(suiteOn(t, "figures", tinySpec()), 1, opt)
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	if !rep.Cells[0].measured() {
		t.Fatal("first cell must run")
	}
	if c := rep.Cells[1]; !strings.Contains(c.Skip, "budget") || c.Err != "" {
		t.Fatalf("second cell should be budget-skipped: %+v", c)
	}
	if rep.Cells[1].Ratio != 0 {
		t.Error("skipped cell reports a ratio")
	}
	// A skip the caller's own limit caused passes the gate.
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
}

func TestCancelledContextSkipsEverything(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultOptions()
	opt.Context = ctx
	rep := Run(suiteOn(t, "figures", tinySpec()), 3, opt)
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Skip != "harness context canceled" {
			t.Errorf("cell at sup %v ran under a cancelled context: %+v", c.Support, c)
		}
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
}

func TestCandidateBudgetMarksCellsSkipped(t *testing.T) {
	opt := DefaultOptions()
	opt.Apriori.MaxCandidatesPerPass = 1
	opt.Pincer.MaxCandidatesPerPass = 1
	rep := Run(suiteOn(t, "figures", tinySpec()), 1, opt)
	for _, c := range rep.Cells {
		if c.Skip == "" || c.Err != "" {
			t.Fatalf("cell at sup %v survived a 1-candidate budget: %+v", c.Support, c)
		}
	}
	// The first cell carries the abort reason; later ones inherit the skip.
	if skip := rep.Cells[0].Skip; !strings.Contains(skip, "max-candidates") {
		t.Errorf("skip = %q, want a max-candidates abort", skip)
	}
	var tbl bytes.Buffer
	if err := WriteTable(&tbl, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "skipped: ") {
		t.Errorf("table does not surface the skip reason:\n%s", tbl.String())
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
}

// TestResumeContinuesFromCheckpoint aborts a pincer cell with a pass budget,
// then reruns the suite with Resume: the resumed cell must complete and agree
// with Apriori exactly as an uninterrupted run would.
func TestResumeContinuesFromCheckpoint(t *testing.T) {
	spec := tinySpec()
	spec.Supports = spec.Supports[:1]
	suite := suiteOn(t, "figures", spec)

	cp := &checkpoint.MemCheckpointer{}
	opt := DefaultOptions()
	opt.Pincer.Checkpointer = cp
	opt.Pincer.MaxTotalPasses = 2
	rep := Run(suite, 1, opt)
	if c := rep.Cells[0]; !strings.Contains(c.Skip, "max-passes") {
		t.Fatalf("budgeted pincer cell not skipped: %+v", c)
	}
	if cp.Saves == 0 {
		t.Fatal("no checkpoint written by the aborted run")
	}

	opt.Pincer.MaxTotalPasses = 0
	opt.Resume = true
	rep = Run(suite, 1, opt)
	if c := rep.Cells[0]; !c.measured() || !c.Agree {
		t.Fatalf("resumed cell did not complete and agree: %+v", c)
	}
	// Resume ≡ uninterrupted: the restored statistics include the passes
	// counted before the abort, so the totals must match a fresh run.
	full := Run(suite, 1, DefaultOptions())
	if got, want := rep.Cells[0].Variant, full.Cells[0].Variant; got.Passes != want.Passes || got.MFSSize != want.MFSSize {
		t.Errorf("resumed cell %+v differs from uninterrupted %+v", got, want)
	}
}

func TestRunBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ten algorithms; skipped in -short mode")
	}
	s := suiteOn(t, "baselines", Figure4Specs(400)[0])
	s.Supports = []float64{0.15}
	rep := Run(s, 1, DefaultOptions())
	if len(rep.Cells) != 9 {
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	byName := map[string]Cell{}
	for _, c := range rep.Cells {
		byName[c.Key] = c
		if c.Variant.Seconds <= 0 {
			t.Errorf("%s: no timing", c.Key)
		}
		if c.Reference.Name != "apriori" {
			t.Errorf("%s: reference %s, want apriori", c.Key, c.Reference.Name)
		}
	}
	// every exact algorithm must agree with the Apriori reference
	for _, name := range []string{"pincer", "apriori+combine", "ais", "partition", "sampling", "eclat", "maxeclat"} {
		c, ok := byName[name]
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if c.Inexact != "" {
			t.Errorf("%s unexpectedly inexact: %s", name, c.Inexact)
			continue
		}
		if !c.Agree {
			t.Errorf("%s disagrees with the reference MFS", name)
		}
	}
	// the probabilistic one is labeled as such
	if byName["randmax"].Inexact == "" {
		t.Error("randmax labeled exact")
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pincer", "eclat", "agree", "probabilistic"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestWriteTableAndCSV(t *testing.T) {
	rep := Run(suiteOn(t, "figures", tinySpec()), 1, DefaultOptions())
	var tbl bytes.Buffer
	if err := WriteTable(&tbl, rep); err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"F4-T20I6", "minsup", "18%", "12%", "agree", "CPUs", "gate agree: pass", "apriori_over_pincer_time"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "suite,dataset,minsup") {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "figures,F4-T20I6,") || !strings.HasSuffix(lines[1], "true,false") {
		t.Errorf("csv row = %q", lines[1])
	}
}
