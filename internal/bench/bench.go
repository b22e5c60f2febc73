// Package bench is the evaluation harness. The paper's evaluation (§4,
// Figures 3 and 4) runs one comparison many times: Apriori against
// Pincer-Search, for each database and support, in relative time,
// candidates and passes. Every suite here is that comparison, measured one
// way: a reference run against a variant run on one dataset at one
// support, timed by the wall clock around the call that produces the
// answer (minimum over repeats), checked for the same answer, and written
// in one report schema with the suite's named gates.
package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"pincer/internal/apriori"
	"pincer/internal/cluster"
	"pincer/internal/core"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
	"pincer/internal/quest"
)

// Spec describes one experiment: a database and its support sweep — one
// row of Figure 3 or Figure 4.
type Spec struct {
	ID       string // experiment id, e.g. "F4-T20I10"
	Figure   int    // 3 (scattered) or 4 (concentrated); 0 for other datasets
	Quest    quest.Params
	Supports []float64 // minimum supports, fractions, descending
	// Headline describes the paper's reported shape for this row.
	Headline string
}

// Name returns the conventional database name with the |L| annotation.
func (s Spec) Name() string {
	return fmt.Sprintf("%s (|L|=%d)", s.Quest.Name(), s.Quest.Defaults().NumPatterns)
}

// Figure3Specs returns the scattered-distribution experiments (|L| = 2000).
// numTransactions scales |D| (0 means the paper's 100K).
func Figure3Specs(numTransactions int) []Spec {
	if numTransactions <= 0 {
		numTransactions = 100_000
	}
	base := func(t, i float64) quest.Params {
		return quest.Params{
			NumTransactions: numTransactions,
			AvgTxLen:        t,
			AvgPatternLen:   i,
			NumPatterns:     2000,
			NumItems:        1000,
			Seed:            1998,
		}
	}
	return []Spec{
		{
			ID: "F3-T5I2", Figure: 3, Quest: base(5, 2),
			Supports: []float64{0.0075, 0.005, 0.0033, 0.0025},
			Headline: "Pincer counts MORE candidates (MFCS overhead, short maximal itemsets) yet stays close on time",
		},
		{
			ID: "F3-T10I4", Figure: 3, Quest: base(10, 4),
			Supports: []float64{0.02, 0.015, 0.01, 0.0075, 0.005},
			Headline: "best case ≈1.7x at 0.5%; slight loss possible near 0.75%",
		},
		{
			ID: "F3-T20I6", Figure: 3, Quest: base(20, 6),
			Supports: []float64{0.02, 0.015, 0.01},
			Headline: "moderate wins from fewer passes",
		},
	}
}

// Figure4Specs returns the concentrated-distribution experiments (|L| = 50).
func Figure4Specs(numTransactions int) []Spec {
	if numTransactions <= 0 {
		numTransactions = 100_000
	}
	base := func(i float64) quest.Params {
		return quest.Params{
			NumTransactions: numTransactions,
			AvgTxLen:        20,
			AvgPatternLen:   i,
			NumPatterns:     50,
			NumItems:        1000,
			Seed:            1998,
		}
	}
	return []Spec{
		{
			ID: "F4-T20I6", Figure: 4, Quest: base(6),
			Supports: []float64{0.18, 0.16, 0.14, 0.12, 0.11, 0.10},
			Headline: "≈2.3x at 18%; non-monotone effect at 12%→11% (Apriori adds a pass, Pincer drops to ~4)",
		},
		{
			ID: "F4-T20I10", Figure: 4, Quest: base(10),
			Supports: []float64{0.10, 0.08, 0.06},
			Headline: "≈23x at 6%: maximal itemsets up to ~16 items found in early passes",
		},
		{
			ID: "F4-T20I15", Figure: 4, Quest: base(15),
			Supports: []float64{0.10, 0.08, 0.07, 0.06},
			Headline: ">2 orders of magnitude at 6–7%; ~17-item maximal itemsets in 3 passes",
		},
	}
}

// AllSpecs returns both figures' experiments.
func AllSpecs(numTransactions int) []Spec {
	return append(Figure3Specs(numTransactions), Figure4Specs(numTransactions)...)
}

// SpecByID finds a spec by its experiment id.
func SpecByID(id string, numTransactions int) (Spec, bool) {
	for _, s := range AllSpecs(numTransactions) {
		if strings.EqualFold(s.ID, id) {
			return s, true
		}
	}
	return Spec{}, false
}

// Options configures a harness run.
type Options struct {
	// Engine is the candidate store of the scan-counting Apriori and
	// Pincer-Search runs.
	Engine counting.Engine
	// Pincer configures every Pincer-Search run (zero value: defaults),
	// including its Deadline, budgets and Checkpointer.
	Pincer core.Options
	// Apriori configures every Apriori run, including its budgets.
	Apriori apriori.Options
	// Context, when non-nil, cancels the whole harness: it is checked
	// before every run and propagated into every miner that has no context
	// of its own. Cells it stops are marked skipped.
	Context context.Context
	// Resume makes Pincer-Search runs continue from Pincer.Checkpointer's
	// saved state (when one exists and matches) instead of starting fresh.
	Resume bool
	// Budget is a soft per-algorithm wall-clock guard for the figures
	// suite: cells run from the highest support downward, and once an
	// algorithm exceeds the budget on a cell its remaining (harder) cells
	// of that spec are skipped. Zero means no guard.
	Budget time.Duration
	// Progress, when non-nil, receives one line per measured cell.
	Progress func(string)
	// Tracer, when non-nil, receives the per-pass events of the first
	// replay's Pincer-Search runs; Report.Trace folds in the same events.
	Tracer obsv.Tracer
	// Counter selects the support counting of the figures' Pincer-Search
	// runs and of the stream suites' maintainers: "" or "scan" (database
	// scans) or "tidlist" (vertical tid-list intersection, its index built
	// on the clock). The answers are identical either way.
	Counter string
	// CounterRep is the tidset representation of every tid-list counter
	// (zero value: automatic density-based choice).
	CounterRep counting.RepMode
}

// DefaultOptions returns the standard harness configuration.
func DefaultOptions() Options {
	p := core.DefaultOptions()
	p.KeepFrequent = false
	a := apriori.DefaultOptions()
	a.KeepFrequent = false
	return Options{Engine: counting.EngineHashTree, Pincer: p, Apriori: a}
}

// Report is one suite run: the machine it ran on, its workload, every cell
// and the verdict of every gate.
type Report struct {
	Suite      string `json:"suite"`
	Title      string `json:"title"`
	GoVersion  string `json:"go_version"`
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Datasets names each database the suite ran on; Transactions is the
	// size of each.
	Datasets     []string `json:"datasets"`
	Transactions int      `json:"transactions"`
	// Repeats is the number of replays; each cell keeps its fastest.
	Repeats int `json:"repeats"`
	// Ratio names what every cell's ratio divides: the reference's seconds
	// by the variant's.
	Ratio string `json:"ratio"`
	Cells []Cell `json:"cells"`
	Gates []Gate `json:"gates"`
	// Trace holds the per-pass events of the first replay's Pincer-Search
	// runs, when Options.Tracer is set.
	Trace []obsv.PassEvent `json:"trace,omitempty"`
}

// Cell is one reference measurement against one variant measurement.
type Cell struct {
	Dataset string  `json:"dataset"`
	Support float64 `json:"min_support"`
	// Key tells apart the cells on one dataset and support: a worker
	// count, a batch seq, a plan or an algorithm.
	Key       string  `json:"key,omitempty"`
	Reference Measure `json:"reference"`
	Variant   Measure `json:"variant"`
	// Ratio is Reference.Seconds / Variant.Seconds, named by Report.Ratio.
	Ratio float64 `json:"ratio,omitempty"`
	// Agree reports that the variant found the reference's answer: the
	// same MFS with the same supports and, where both sides run the same
	// miner, the same per-pass statistics.
	Agree bool `json:"agree"`
	// Inexact says why the variant is not held to the reference's answer
	// (a probabilistic or aborted baseline); the agree gate passes it.
	Inexact string `json:"inexact,omitempty"`
	// Degraded reports that a cluster variant fell below quorum and
	// counted locally, which a loopback pool never should.
	Degraded bool `json:"degraded,omitempty"`
	// Skip says which limit set by the caller stopped the cell: a miner
	// budget, the wall-clock budget or the harness context.
	Skip string `json:"skip,omitempty"`
	// Err records any other failure; it fails the agree gate.
	Err string `json:"error,omitempty"`
}

// Measure is one timed run of a cell.
type Measure struct {
	Name string `json:"name"`
	// Seconds is the wall clock around the call that produced the answer,
	// minimum over the replays; zero when the run failed.
	Seconds    float64 `json:"seconds"`
	Passes     int     `json:"passes"`
	Candidates int64   `json:"candidates"` // paper accounting
	MFSSize    int     `json:"mfs_size"`
	LongestMFS int     `json:"longest_mfs"`
	// Detail is what else the run reports: RPCs, intersections, the
	// re-mine reason, the plan the policy chose.
	Detail string `json:"detail,omitempty"`
}

// Gate is one named pass/fail verdict on the report.
type Gate struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Err names every failed gate, or returns nil when all pass.
func (r Report) Err() error {
	var failed []string
	for _, g := range r.Gates {
		if !g.Pass {
			failed = append(failed, fmt.Sprintf("gate %s failed: %s", g.Name, g.Detail))
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return errors.New(strings.Join(failed, "; "))
}

// label names a cell in progress lines and gate details.
func (c Cell) label() string {
	return strings.TrimSpace(fmt.Sprintf("%s %s %s", c.Dataset, fmtSup(c.Support), c.Key))
}

func (c Cell) measured() bool { return c.Skip == "" && c.Err == "" }

func (c Cell) ratio() float64 {
	if !c.measured() || c.Variant.Seconds <= 0 {
		return 0
	}
	return c.Reference.Seconds / c.Variant.Seconds
}

// fold merges another replay of the same cell: each side keeps its faster
// measurement, the cell agrees only if every measured replay agreed, the
// first error of any replay stands, and a skip stands only if no replay
// measured the cell.
func (c *Cell) fold(o Cell) {
	switch {
	case o.Err != "":
		if c.Err == "" {
			c.Err = o.Err
		}
	case o.Skip != "":
	case c.Err != "":
	case c.Skip != "":
		*c = o
	default:
		if o.Reference.Seconds < c.Reference.Seconds {
			c.Reference = o.Reference
		}
		if o.Variant.Seconds < c.Variant.Seconds {
			c.Variant = o.Variant
		}
		c.Agree = c.Agree && o.Agree
		c.Degraded = c.Degraded || o.Degraded
	}
}

// Run measures the suite repeats times and folds the replays cell by cell,
// then evaluates the agree gate and the suite's own gates on the result.
func Run(s Suite, repeats int, opt Options) Report {
	if repeats < 1 {
		repeats = 1
	}
	if opt.Context == nil {
		opt.Context = context.Background()
	}
	rep := Report{
		Suite: s.Name, Title: s.Title, GoVersion: runtime.Version(),
		CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Repeats: repeats, Ratio: s.Ratio,
	}
	for _, spec := range s.Specs {
		rep.Datasets = append(rep.Datasets, spec.ID+" "+spec.Name())
		rep.Transactions = spec.Quest.NumTransactions
	}
	e := &env{Options: opt, suite: &s, data: map[string]*dataset.Dataset{}, pools: map[int]*cluster.Pool{}}
	defer e.close()
	var collect *obsv.Collector
	if opt.Tracer != nil {
		collect = obsv.NewCollector()
	}
	for r := 0; r < repeats && (r == 0 || opt.Context.Err() == nil); r++ {
		e.tracer = nil
		if r == 0 && collect != nil {
			e.tracer = obsv.Multi(opt.Tracer, collect)
		}
		i := 0
		s.run(e, func(c Cell) {
			if r == 0 {
				rep.Cells = append(rep.Cells, c)
			} else if i < len(rep.Cells) {
				rep.Cells[i].fold(c)
			}
			i++
			if opt.Progress != nil {
				opt.Progress(progressLine(s, r, repeats, c))
			}
		})
	}
	for i := range rep.Cells {
		rep.Cells[i].Ratio = rep.Cells[i].ratio()
	}
	rep.Gates = append(rep.Gates, agreeGate(rep.Cells))
	for _, g := range s.gates {
		rep.Gates = append(rep.Gates, g(rep.Cells))
	}
	if collect != nil {
		rep.Trace = collect.Passes()
	}
	return rep
}

// agreeGate fails on any cell that errored or whose exact variant found a
// different answer. A cell skipped by a limit the caller set passes.
func agreeGate(cells []Cell) Gate {
	agreed, skipped, inexact := 0, 0, 0
	var why []string               // each failure once, in cell order
	where := map[string][]string{} // the cells each failure hit
	fail := func(c Cell, reason string) {
		if where[reason] == nil {
			why = append(why, reason)
		}
		where[reason] = append(where[reason], c.label())
	}
	for _, c := range cells {
		switch {
		case c.Err != "":
			fail(c, c.Err)
		case c.Skip != "":
			skipped++
		case c.Agree:
			agreed++
		case c.Inexact != "":
			inexact++
		default:
			fail(c, c.Variant.Name+" disagrees with "+c.Reference.Name)
		}
	}
	if len(why) > 0 {
		for i, reason := range why {
			why[i] = strings.Join(where[reason], ", ") + ": " + reason
		}
		return Gate{Name: "agree", Detail: strings.Join(why, "; ")}
	}
	return Gate{Name: "agree", Pass: true, Detail: fmt.Sprintf(
		"%d cells agree, %d inexact, %d skipped by a limit", agreed, inexact, skipped)}
}

// agree reports whether the variant found the reference's answer: the
// same MFS with the same supports and, when samePasses (both sides ran the
// same miner), the same per-pass statistics.
func agree(ref, v *mfi.Result, samePasses bool) bool {
	if len(ref.MFS) != len(v.MFS) {
		return false
	}
	supports := make(map[string]int64, len(ref.MFS))
	for i, m := range ref.MFS {
		supports[m.Key()] = ref.MFSSupports[i]
	}
	for i, m := range v.MFS {
		if s, ok := supports[m.Key()]; !ok || s != v.MFSSupports[i] {
			return false
		}
	}
	if !samePasses {
		return true
	}
	a, b := ref.Stats, v.Stats
	return a.Passes == b.Passes && a.Candidates == b.Candidates &&
		a.MFCSCandidates == b.MFCSCandidates && slices.Equal(a.PassDetails, b.PassDetails)
}

// env is the state of one Run shared by its replays.
type env struct {
	Options
	suite  *Suite
	tracer obsv.Tracer // the first replay's only
	// data holds each generated database, so replays share it.
	data    map[string]*dataset.Dataset
	pools   map[int]*cluster.Pool
	jobs    int
	closers []func()
}

func (e *env) close() {
	for _, f := range e.closers {
		f()
	}
}

// each calls f for every dataset and support of the suite, highest
// support first.
func (e *env) each(f func(spec Spec, d *dataset.Dataset, sup float64)) {
	for _, spec := range e.suite.Specs {
		d, ok := e.data[spec.ID]
		if !ok {
			d = quest.Generate(spec.Quest)
			e.data[spec.ID] = d
		}
		sups := spec.Supports
		if e.suite.Supports != nil {
			sups = e.suite.Supports
		}
		sups = slices.Clone(sups)
		sort.Sort(sort.Reverse(sort.Float64Slice(sups)))
		for _, sup := range sups {
			f(spec, d, sup)
		}
	}
}

// stopped returns the skip reason once the harness context is done.
func (e *env) stopped() string {
	if err := e.Context.Err(); err != nil {
		return "harness " + err.Error()
	}
	return ""
}

// limitErr stops a run on a limit the harness enforces itself, such as the
// figures' wall-clock budget.
type limitErr string

func (l limitErr) Error() string { return string(l) }

// outcome sorts a failed run: a limit the caller set — a miner budget or
// deadline, the wall-clock budget or the harness context — skips the cell;
// anything else fails it. A miner's abort is always such a limit, except a
// checkpoint it could not write.
func (e *env) outcome(name string, err error) (skip, failure string) {
	var pe *mfi.PartialResultError
	var le limitErr
	switch {
	case e.Context.Err() != nil && errors.Is(err, e.Context.Err()):
		return "harness " + e.Context.Err().Error(), ""
	case errors.As(err, &le), errors.As(err, &pe) && pe.Reason != mfi.ReasonCheckpoint:
		return name + ": " + err.Error(), ""
	}
	return "", name + ": " + err.Error()
}

// trial is one timed call and the answer it produced.
type trial struct {
	Measure
	res *mfi.Result
	err error
}

// timed runs f under the wall clock: the one timing rule of every suite.
func timed(name string, f func() (*mfi.Result, error)) trial {
	start := time.Now()
	res, err := f()
	r := trial{Measure: Measure{Name: name, Seconds: time.Since(start).Seconds()}, res: res, err: err}
	if err != nil {
		r.Seconds = 0
		return r
	}
	r.Passes, r.Candidates = res.Stats.Passes, res.Stats.Candidates
	r.MFSSize, r.LongestMFS = len(res.MFS), res.LongestMFS()
	return r
}

// cell compares a variant run with its reference run. A failure on either
// side outranks a skip on the other.
func (e *env) cell(spec Spec, sup float64, key string, ref, v trial, samePasses bool) Cell {
	c := Cell{Dataset: spec.ID, Support: sup, Key: key, Reference: ref.Measure, Variant: v.Measure}
	for _, r := range []trial{ref, v} {
		if r.err == nil {
			continue
		}
		skip, failure := e.outcome(r.Name, r.err)
		if failure != "" {
			c.Skip, c.Err = "", failure
			break
		}
		if c.Skip == "" {
			c.Skip = skip
		}
	}
	if c.measured() && ref.res != nil && v.res != nil {
		c.Agree = agree(ref.res, v.res, samePasses)
	}
	return c
}

// skipped is a cell that did not run, for the given reason.
func skipped(spec Spec, sup float64, key, reason string) Cell {
	return Cell{Dataset: spec.ID, Support: sup, Key: key, Skip: reason}
}

// pincer mines d with the harness's Pincer-Search options. counter, when
// non-nil, builds the run's support counter on the clock.
func (e *env) pincer(name string, d *dataset.Dataset, sup float64, counter func() (core.PassCounter, error)) trial {
	return timed(name, func() (*mfi.Result, error) {
		opt := e.Pincer
		opt.Engine = e.Engine
		opt.KeepFrequent = false
		opt.Algorithm = name
		if opt.Context == nil {
			opt.Context = e.Context
		}
		if e.tracer != nil {
			opt.Tracer = e.tracer
		}
		if counter != nil {
			c, err := counter()
			if err != nil {
				return nil, err
			}
			opt.Counter = c
		}
		if e.Resume && opt.Checkpointer != nil {
			return core.MineResume(dataset.NewScanner(d), dataset.MinCountFor(d.Len(), sup), opt)
		}
		return core.Mine(dataset.NewScanner(d), sup, opt)
	})
}

// apriori mines d with the harness's Apriori options.
func (e *env) apriori(d *dataset.Dataset, sup float64) trial {
	return timed("apriori", func() (*mfi.Result, error) {
		opt := e.Apriori
		opt.Engine = e.Engine
		opt.KeepFrequent = false
		if opt.Context == nil {
			opt.Context = e.Context
		}
		return apriori.Mine(dataset.NewScanner(d), sup, opt)
	})
}

func progressLine(s Suite, replay, repeats int, c Cell) string {
	head := s.Name + " " + c.label()
	if repeats > 1 {
		head += fmt.Sprintf(" [%d/%d]", replay+1, repeats)
	}
	switch {
	case c.Err != "":
		return head + ": error: " + c.Err
	case c.Skip != "":
		return head + ": skipped (" + c.Skip + ")"
	}
	return fmt.Sprintf("%s: %s %.4fs vs %s %.4fs, %s %.2fx, agree=%v",
		head, c.Reference.Name, c.Reference.Seconds, c.Variant.Name, c.Variant.Seconds,
		s.Ratio, c.ratio(), c.Agree)
}

func fmtSup(s float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", s*100), "0"), ".") + "%"
}
