package bench

import (
	"encoding/json"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"pincer/internal/checkpoint"
	"pincer/internal/obsv"
)

// TestSuitesPassTheirGates runs every suite of the table at a tiny size
// through the one loop: every cell must be measured and agree, and every
// gate that judges answers must pass. The engines suite's two gates judge
// wall-clock times of sub-millisecond cells, which a tiny run cannot
// settle; TestGatesFail covers their logic.
func TestSuitesPassTheirGates(t *testing.T) {
	wantGates := map[string][]string{
		"figures":        {"agree"},
		"baselines":      {"agree"},
		"parallel":       {"agree"},
		"vertical":       {"agree"},
		"cluster":        {"agree", "not_degraded"},
		"engines":        {"agree", "auto_never_worst", "auto_beats_best_fixed_sum"},
		"stream":         {"agree", "fast_path"},
		"stream-cluster": {"agree", "not_degraded"},
	}
	timing := map[string]bool{"auto_never_worst": true, "auto_beats_best_fixed_sum": true}
	for _, s := range Suites(0) {
		switch s.Name {
		case "engines":
			s.Specs = engineSpecs(300)
		case "stream", "stream-cluster":
			s.Specs = []Spec{streamSpec()}
		default:
			s.Specs = []Spec{tinySpec()}
			if s.Supports != nil {
				s.Supports = []float64{0.15}
			}
		}
		t.Run(s.Name, func(t *testing.T) {
			rep := Run(s, 1, DefaultOptions())
			if len(rep.Cells) == 0 {
				t.Fatal("no cells")
			}
			for _, c := range rep.Cells {
				if !c.measured() || (!c.Agree && c.Inexact == "") {
					t.Errorf("%s: %+v", c.label(), c)
				}
			}
			var names []string
			for _, g := range rep.Gates {
				names = append(names, g.Name)
				if !g.Pass && !timing[g.Name] {
					t.Errorf("gate %s failed: %s", g.Name, g.Detail)
				}
			}
			if !slices.Equal(names, wantGates[s.Name]) {
				t.Errorf("gates = %v, want %v", names, wantGates[s.Name])
			}
		})
	}
}

// TestFailuresFailTheAgreeGate: a run that fails for any reason other than
// a limit the caller set must fail the report, whichever side failed.
func TestFailuresFailTheAgreeGate(t *testing.T) {
	broken := func(t *testing.T) Options {
		opt := DefaultOptions()
		opt.Pincer.Checkpointer = checkpoint.NewFileCheckpointer(filepath.Join(t.TempDir(), "missing", "run.ckpt"))
		return opt
	}
	cases := []struct {
		suite    string
		supports []float64
		opt      func(*testing.T) Options
	}{
		{"figures", nil, broken},
		{"parallel", []float64{0.15}, broken},
		{"vertical", nil, broken},
		{"cluster", []float64{0.15}, broken},
		{"stream", []float64{1.5}, func(*testing.T) Options { return DefaultOptions() }},
		{"stream-cluster", []float64{1.5}, func(*testing.T) Options { return DefaultOptions() }},
	}
	for _, tc := range cases {
		t.Run(tc.suite, func(t *testing.T) {
			s := suiteOn(t, tc.suite, tinySpec())
			if tc.supports != nil {
				s.Supports = tc.supports
			}
			rep := Run(s, 1, tc.opt(t))
			err := rep.Err()
			if err == nil || !strings.Contains(err.Error(), "gate agree failed") {
				t.Fatalf("Err() = %v, want the agree gate to fail", err)
			}
			for _, c := range rep.Cells {
				if c.Err == "" {
					t.Errorf("%s: failure not recorded: %+v", c.label(), c)
				}
			}
		})
	}
}

// TestGatesFail gives each gate one input it passes and one it fails.
func TestGatesFail(t *testing.T) {
	ok := Cell{Dataset: "D", Support: 0.1, Reference: Measure{Name: "ref", Seconds: 1}, Variant: Measure{Name: "var", Seconds: 1}, Agree: true}
	with := func(f func(*Cell)) []Cell {
		c := ok
		f(&c)
		return []Cell{ok, c}
	}
	engines := func(auto float64, fixed ...float64) []Cell {
		var cells []Cell
		for i, p := range enginePlans {
			c := ok
			c.Reference = Measure{Name: p.name, Seconds: fixed[i]}
			c.Variant = Measure{Name: "auto", Seconds: auto}
			cells = append(cells, c)
		}
		return cells
	}
	cases := []struct {
		name       string
		gate       func([]Cell) Gate
		pass, fail []Cell
	}{
		{"agree/error", agreeGate,
			with(func(c *Cell) { c.Skip, c.Agree = "harness context canceled", false }),
			with(func(c *Cell) { c.Err, c.Agree = "pincer: checkpoint-failure", false })},
		{"agree/exact-disagrees", agreeGate,
			with(func(c *Cell) { c.Agree, c.Inexact = false, "probabilistic" }),
			with(func(c *Cell) { c.Agree = false })},
		{"not_degraded", notDegraded,
			with(func(*Cell) {}),
			with(func(c *Cell) { c.Degraded = true })},
		{"fast_path", fastPath,
			with(func(c *Cell) { c.Variant.Name = "fast-path" }),
			with(func(c *Cell) { c.Variant.Name = "re-mine" })},
		{"auto_never_worst", autoNeverWorst,
			engines(0.5, 0.1, 0.2, 0.6, 0.3, 0.4),
			engines(1.0, 0.1, 0.2, 0.6, 0.3, 0.4)},
		{"auto_beats_best_fixed_sum", autoBeatsBestFixedSum,
			engines(0.05, 0.1, 0.2, 0.6, 0.3, 0.4),
			engines(0.15, 0.1, 0.2, 0.6, 0.3, 0.4)},
	}
	for _, tc := range cases {
		if g := tc.gate(tc.pass); !g.Pass {
			t.Errorf("%s: failed on its passing input: %s", tc.name, g.Detail)
		}
		g := tc.gate(tc.fail)
		if g.Pass {
			t.Errorf("%s: passed on its failing input: %s", tc.name, g.Detail)
		}
		rep := Report{Gates: []Gate{g}}
		if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "gate "+g.Name+" failed") {
			t.Errorf("%s: Err() = %v, want it to name the gate", tc.name, err)
		}
	}
}

// TestFoldKeepsFastest pins how replays of one cell combine.
func TestFoldKeepsFastest(t *testing.T) {
	c := Cell{Reference: Measure{Seconds: 2}, Variant: Measure{Seconds: 1}, Agree: true}
	c.fold(Cell{Reference: Measure{Seconds: 1}, Variant: Measure{Seconds: 3}, Agree: true})
	if c.Reference.Seconds != 1 || c.Variant.Seconds != 1 || !c.Agree {
		t.Errorf("fastest of each side not kept: %+v", c)
	}
	c.fold(Cell{Skip: "harness context canceled"})
	if !c.measured() {
		t.Errorf("a later skip hid a measured replay: %+v", c)
	}
	c.fold(Cell{Reference: Measure{Seconds: 1}, Variant: Measure{Seconds: 1}})
	if c.Agree {
		t.Error("one disagreeing replay must taint the cell")
	}
	c.fold(Cell{Err: "boom"})
	if c.Err != "boom" {
		t.Errorf("an error in any replay must stand: %+v", c)
	}
	s := Cell{Skip: "budget"}
	s.fold(Cell{Variant: Measure{Seconds: 1}, Agree: true})
	if !s.measured() || !s.Agree {
		t.Errorf("a measured replay must replace a skipped one: %+v", s)
	}
}

// TestReportJSONFieldNames pins the report schema every BENCH file shares.
func TestReportJSONFieldNames(t *testing.T) {
	m := Measure{Name: "n", Seconds: 1, Passes: 1, Candidates: 1, MFSSize: 1, LongestMFS: 1, Detail: "d"}
	rep := Report{
		Suite: "s", Title: "t", GoVersion: "go", CPUs: 1, GoMaxProcs: 1,
		Datasets: []string{"d"}, Transactions: 1, Repeats: 1, Ratio: "r",
		Cells: []Cell{{Dataset: "d", Support: 1, Key: "k", Reference: m, Variant: m, Ratio: 1,
			Agree: true, Inexact: "i", Degraded: true, Skip: "s", Err: "e"}},
		Gates: []Gate{{Name: "g", Pass: true, Detail: "d"}},
		Trace: []obsv.PassEvent{{}},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var paths []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				p := strings.TrimPrefix(prefix+"."+k, ".")
				paths = append(paths, p)
				if p != "trace" { // the pass events are obsv's schema
					walk(p, x)
				}
			}
		case []any:
			for _, x := range v {
				walk(prefix+"[]", x)
			}
		}
	}
	walk("", doc)
	sort.Strings(paths)
	const golden = `cells
cells[].agree
cells[].dataset
cells[].degraded
cells[].error
cells[].inexact
cells[].key
cells[].min_support
cells[].ratio
cells[].reference
cells[].reference.candidates
cells[].reference.detail
cells[].reference.longest_mfs
cells[].reference.mfs_size
cells[].reference.name
cells[].reference.passes
cells[].reference.seconds
cells[].skip
cells[].variant
cells[].variant.candidates
cells[].variant.detail
cells[].variant.longest_mfs
cells[].variant.mfs_size
cells[].variant.name
cells[].variant.passes
cells[].variant.seconds
cpus
datasets
gates
gates[].detail
gates[].name
gates[].pass
go_version
gomaxprocs
ratio
repeats
suite
title
trace
transactions`
	if got := strings.Join(paths, "\n"); got != golden {
		t.Errorf("report JSON fields changed:\n%s\nwant:\n%s", got, golden)
	}
}
