package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"pincer/internal/core"
	"pincer/internal/dataset"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
	"pincer/internal/parallel"
	"pincer/internal/quest"
)

// ParallelMeasure is one workers setting of a count-distribution sweep.
type ParallelMeasure struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	// Speedup is sequential seconds / this setting's seconds (> 1 means the
	// parallel run wins). It is withheld — zero, omitted from the JSON, and
	// SpeedupInvalidReason set — when the machine cannot give the comparison
	// meaning (a single CPU: every "parallel" run is a time-sliced sequential
	// run plus goroutine overhead, and reporting a ratio would dress
	// scheduler noise up as a parallelism measurement).
	Speedup float64 `json:"speedup,omitempty"`
	// SpeedupInvalidReason explains a withheld Speedup, e.g. "cpus=1".
	SpeedupInvalidReason string `json:"speedup_invalid_reason,omitempty"`
	// Agree reports the built-in correctness check: identical MFS, supports,
	// and per-pass candidate statistics against the sequential run.
	Agree bool `json:"agree"`
	// Err records why this setting produced no measurement (cancellation
	// or a mining failure); Seconds and Agree are meaningless when set.
	Err string `json:"error,omitempty"`
}

// ParallelReport is one spec's sequential-vs-parallel wall-clock sweep.
type ParallelReport struct {
	SpecID       string  `json:"spec"`
	Database     string  `json:"database"`
	Support      float64 `json:"min_support"`
	Transactions int     `json:"transactions"`
	// CPUs and GoMaxProcs record the hardware context: count distribution
	// cannot beat the sequential run on a single-CPU machine, so speedups
	// are only meaningful relative to these.
	CPUs       int `json:"cpus"`
	GoMaxProcs int `json:"gomaxprocs"`
	// Repeats is the measurements per setting; Seconds values are the
	// minimum over the repeats.
	Repeats           int               `json:"repeats"`
	SequentialSeconds float64           `json:"sequential_seconds"`
	Passes            int               `json:"passes"`
	Candidates        int64             `json:"candidates"`
	MFSSize           int               `json:"mfs_size"`
	Runs              []ParallelMeasure `json:"runs"`
	// Err records why the sweep stopped before producing its runs (for
	// example a cancelled sequential baseline).
	Err string `json:"error,omitempty"`
	// Trace holds the per-pass span events of the first sequential repeat
	// and the first repeat of each worker setting, populated only when
	// Options.Tracer is set.
	Trace []obsv.PassEvent `json:"trace,omitempty"`
}

// speedupInvalidReason reports why parallel-vs-sequential wall-clock ratios
// must not be emitted ("" when they are valid). On a single-CPU machine the
// sweep still runs — the correctness check and per-setting timings are
// meaningful — but the protocol refuses to call any ratio a speedup.
func speedupInvalidReason() string {
	if runtime.NumCPU() <= 1 {
		return "cpus=1"
	}
	return ""
}

// sameMiningResults checks the equivalence RunParallelSweep certifies:
// identical MFS with identical supports, and identical pass/candidate
// statistics.
func sameMiningResults(a, b *mfi.Result) bool {
	if len(a.MFS) != len(b.MFS) {
		return false
	}
	for i := range a.MFS {
		if !a.MFS[i].Equal(b.MFS[i]) || a.MFSSupports[i] != b.MFSSupports[i] {
			return false
		}
	}
	if a.Stats.Passes != b.Stats.Passes || a.Stats.Candidates != b.Stats.Candidates ||
		a.Stats.MFCSCandidates != b.Stats.MFCSCandidates {
		return false
	}
	for i, p := range a.Stats.PassDetails {
		if p != b.Stats.PassDetails[i] {
			return false
		}
	}
	return true
}

// RunParallelSweep generates the spec's database once, runs sequential
// Pincer-Search, then count-distribution parallel Pincer-Search at each
// worker count, verifying every parallel run against the sequential result.
// Each setting is measured `repeats` times and the minimum wall clock is
// reported (the standard noise-robust statistic for speedup curves).
func RunParallelSweep(spec Spec, support float64, workerCounts []int, repeats int, opt Options) ParallelReport {
	if repeats < 1 {
		repeats = 1
	}
	d := quest.Generate(spec.Quest)
	rep := ParallelReport{
		SpecID: spec.ID, Database: spec.Name(), Support: support,
		Transactions: d.Len(), CPUs: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Repeats: repeats,
	}

	popt := opt.Pincer
	popt.Engine = opt.Engine
	popt.KeepFrequent = false

	// When tracing is requested, the first repeat of every configuration
	// also feeds a local collector whose pass events fold into the report.
	// Repeats beyond the first stay untraced so the timing loop is not
	// perturbed.
	var collect *obsv.Collector
	if opt.Tracer != nil {
		collect = obsv.NewCollector()
	}
	tracerFor := func(i int) obsv.Tracer {
		if collect == nil || i > 0 {
			return nil
		}
		return obsv.Multi(opt.Tracer, collect)
	}

	if popt.Context == nil {
		popt.Context = opt.Context
	}

	var seq *mfi.Result
	best := time.Duration(0)
	for i := 0; i < repeats; i++ {
		ropt := popt
		ropt.Tracer = tracerFor(i)
		res, err := core.Mine(dataset.NewScanner(d), support, ropt)
		if err != nil {
			// Without an uninterrupted sequential baseline there is nothing
			// to compare the parallel runs against; stop the sweep here.
			rep.Err = err.Error()
			return rep
		}
		if seq == nil || res.Stats.Duration < best {
			seq, best = res, res.Stats.Duration
		}
	}
	rep.SequentialSeconds = best.Seconds()
	rep.Passes = seq.Stats.Passes
	rep.Candidates = seq.Stats.Candidates
	rep.MFSSize = len(seq.MFS)

	for _, w := range workerCounts {
		if opt.cancelled() {
			rep.Runs = append(rep.Runs, ParallelMeasure{Workers: w, Err: opt.Context.Err().Error()})
			continue
		}
		var par *mfi.Result
		var runErr error
		pbest := time.Duration(0)
		for i := 0; i < repeats; i++ {
			ropt := popt
			ropt.Algorithm = "pincer-parallel"
			ropt.Counter = parallel.NewPassCounter(d, w)
			ropt.Tracer = tracerFor(i)
			res, err := core.Mine(dataset.NewScanner(d), support, ropt)
			if err != nil {
				runErr = err
				break
			}
			if par == nil || res.Stats.Duration < pbest {
				par, pbest = res, res.Stats.Duration
			}
		}
		if runErr != nil {
			rep.Runs = append(rep.Runs, ParallelMeasure{Workers: w, Err: runErr.Error()})
			continue
		}
		m := ParallelMeasure{
			Workers: w, Seconds: pbest.Seconds(),
			Agree: sameMiningResults(par, seq),
		}
		if reason := speedupInvalidReason(); reason != "" {
			m.SpeedupInvalidReason = reason
		} else if pbest > 0 {
			m.Speedup = best.Seconds() / pbest.Seconds()
		}
		if opt.Progress != nil {
			sp := fmt.Sprintf("%.2fx", m.Speedup)
			if m.SpeedupInvalidReason != "" {
				sp = "speedup n/a: " + m.SpeedupInvalidReason
			}
			opt.Progress(fmt.Sprintf("%s sup=%.4f workers=%d: %v (%s vs sequential %v), agree=%v",
				spec.ID, support, w, pbest.Round(time.Millisecond), sp,
				best.Round(time.Millisecond), m.Agree))
		}
		rep.Runs = append(rep.Runs, m)
	}
	if collect != nil {
		rep.Trace = collect.Passes()
	}
	return rep
}

// WriteParallelTable renders a sweep as a human-readable table.
func WriteParallelTable(w io.Writer, rep ParallelReport) error {
	fmt.Fprintf(w, "%s — parallel Pincer-Search — %s at minsup %s (|D|=%d, %d CPUs, GOMAXPROCS=%d)\n",
		rep.SpecID, rep.Database, fmtSup(rep.Support), rep.Transactions, rep.CPUs, rep.GoMaxProcs)
	fmt.Fprintf(w, "sequential: %.3fs over %d passes, %d candidates, |MFS|=%d (min of %d runs)\n",
		rep.SequentialSeconds, rep.Passes, rep.Candidates, rep.MFSSize, rep.Repeats)
	if rep.Err != "" {
		fmt.Fprintf(w, "sweep stopped: %s\n\n", rep.Err)
		return nil
	}
	if len(rep.Runs) > 0 && rep.Runs[0].SpeedupInvalidReason != "" {
		fmt.Fprintf(w, "speedup withheld: %s\n", rep.Runs[0].SpeedupInvalidReason)
	}
	fmt.Fprintf(w, "%-8s | %10s %8s %6s\n", "workers", "seconds", "speedup", "agree")
	for _, m := range rep.Runs {
		if m.Err != "" {
			fmt.Fprintf(w, "%-8d | skipped: %s\n", m.Workers, m.Err)
			continue
		}
		sp := fmt.Sprintf("%7.2fx", m.Speedup)
		if m.SpeedupInvalidReason != "" {
			sp = fmt.Sprintf("%8s", "n/a")
		}
		fmt.Fprintf(w, "%-8d | %10.3f %s %6v\n", m.Workers, m.Seconds, sp, m.Agree)
	}
	fmt.Fprintln(w)
	return nil
}

// WriteParallelJSON writes sweeps as an indented JSON document.
func WriteParallelJSON(w io.Writer, reps []ParallelReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reps)
}
