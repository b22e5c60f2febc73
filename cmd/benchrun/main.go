// Command benchrun runs one suite of the evaluation harness and prints its
// report. The default suite regenerates the paper's evaluation figures:
// for every benchmark database and minimum support it runs Apriori and
// Pincer-Search and prints the three panels the paper plots — relative
// execution time, number of candidates, and number of passes. Every other
// suite is the same reference-against-variant comparison on its own
// workload, written in the same report schema and judged by the same
// agree gate plus its own.
//
// Usage:
//
//	benchrun                        # both figures at the default |D|=10K scale
//	benchrun -figure 4              # concentrated distributions only
//	benchrun -spec F4-T20I15        # one experiment
//	benchrun -d 100000              # paper-scale |D|
//	benchrun -budget 120s           # skip cells after an algorithm exceeds 2 min
//	benchrun -csv results.csv       # machine-readable output too
//	benchrun -suite parallel -json BENCH_parallel.json   # another suite, JSON report
//	benchrun -suite baselines       # every other miner against Apriori (§5)
//	benchrun -counter tidlist       # figure cells count by tid-list intersection
//	benchrun -timeout 10m           # stop cleanly after 10 minutes (Ctrl-C does the same)
//	benchrun -checkpoint run.ckpt -resume   # continue pincer runs from an interrupted run
//
// The suites are figures, baselines, parallel, vertical, cluster, engines,
// stream and stream-cluster. Each fixes its own databases, supports, worker
// counts and batch size; -d and -spec replace its database size and
// database. The command exits non-zero, naming the gate, when any gate
// fails. A cell skipped by -budget, -max-candidates, -timeout or Ctrl-C
// passes; any other failure does not.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"pincer/internal/bench"
	"pincer/internal/checkpoint"
	"pincer/internal/counting"
	"pincer/internal/obsv"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var names []string
	for _, s := range bench.Suites(0) {
		names = append(names, s.Name)
	}
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	suiteName := fs.String("suite", "figures", "suite to run: "+strings.Join(names, ", "))
	figure := fs.Int("figure", 0, "figures suite: run only figure 3 (scattered) or 4 (concentrated); 0 = both")
	specID := fs.String("spec", "", "run the suite on this experiment's database, e.g. F4-T20I10")
	numTx := fs.Int("d", 0, "|D|: transactions per database (0 = the suite's own; paper scale: 100000)")
	budget := fs.Duration("budget", 5*time.Minute, "figures suite: per-algorithm time budget; harder cells are skipped once exceeded (0 = unlimited)")
	engineName := fs.String("engine", "hashtree", "counting engine: hashtree, list, or trie")
	counterName := fs.String("counter", "scan", "support counting of the figure cells and stream maintainers: scan or tidlist[:bitset|list|diffset]; the representation also applies to the vertical suite")
	pure := fs.Bool("pure", false, "use pure (non-adaptive) Pincer-Search")
	csvPath := fs.String("csv", "", "also write the cells as CSV to this file")
	quiet := fs.Bool("q", false, "suppress per-cell progress lines")
	repeats := fs.Int("repeats", 0, "replays of the suite; each cell keeps its fastest (0 = the suite's own: 1 for figures and baselines, 3 otherwise)")
	jsonPath := fs.String("json", "", "also write the report as JSON to this file")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof/ on this address while the benchmark runs (e.g. localhost:6060)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	traceJSON := fs.String("trace-json", "", "trace the first replay's per-pass events — written as JSON lines to this file (\"-\" for stderr) and folded into the -json report")
	timeout := fs.Duration("timeout", 0, "overall wall-clock limit: the harness is cancelled and the remaining cells are marked skipped (0 = none)")
	maxCandidates := fs.Int("max-candidates", 0, "per-pass candidate budget for Apriori and Pincer-Search; a cell whose pass exceeds it is marked skipped (0 = unlimited)")
	ckptPath := fs.String("checkpoint", "", "Pincer-Search runs persist a resumable checkpoint to this file at every pass boundary")
	resume := fs.Bool("resume", false, "Pincer-Search runs continue from a matching -checkpoint file instead of starting fresh")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *repeats < 0 || *numTx < 0 {
		return fmt.Errorf("-repeats and -d must not be negative")
	}
	suite, ok := bench.SuiteByName(*suiteName, *numTx)
	if !ok {
		return fmt.Errorf("unknown suite %q (want one of %s)", *suiteName, strings.Join(names, ", "))
	}
	if *specID != "" {
		spec, ok := bench.SpecByID(*specID, suite.Specs[0].Quest.NumTransactions)
		if !ok {
			return fmt.Errorf("unknown spec %q (want one of F3-T5I2, F3-T10I4, F3-T20I6, F4-T20I6, F4-T20I10, F4-T20I15)", *specID)
		}
		suite.Specs = []bench.Spec{spec}
	}
	if *figure != 0 {
		if suite.Name != "figures" || (*figure != 3 && *figure != 4) {
			return fmt.Errorf("-figure must be 3 or 4, with the figures suite")
		}
		var specs []bench.Spec
		for _, s := range suite.Specs {
			if s.Figure == *figure {
				specs = append(specs, s)
			}
		}
		if len(specs) == 0 {
			return fmt.Errorf("-spec %s is not in figure %d", *specID, *figure)
		}
		suite.Specs = specs
	}
	if *repeats == 0 {
		*repeats = suite.Repeats
	}
	engine, err := counting.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	tidlist, counterRep, err := counting.ParseCounterSpec(*counterName)
	if err != nil {
		return err
	}

	// Ctrl-C (or -timeout) cancels the harness: in-flight cells stop at the
	// next cancellation point and the report shows what finished.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	prof, err := obsv.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", perr)
		}
	}()
	var tracer obsv.Tracer
	if *metricsAddr != "" {
		reg := obsv.NewRegistry()
		tracer = obsv.NewMetricsTracer(reg)
		srv, err := obsv.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "benchrun: serving metrics on http://%s/metrics (expvar /debug/vars, pprof /debug/pprof/)\n", srv.Addr)
	}
	if *traceJSON != "" {
		w := io.Writer(os.Stderr)
		if *traceJSON != "-" {
			f, err := os.Create(*traceJSON)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		tracer = obsv.Multi(tracer, obsv.NewJSONTracer(w))
	}

	opt := bench.DefaultOptions()
	opt.Engine = engine
	opt.Budget = *budget
	opt.Pincer.Pure = *pure
	opt.Pincer.MaxCandidatesPerPass = *maxCandidates
	opt.Apriori.MaxCandidatesPerPass = *maxCandidates
	if tidlist {
		opt.Counter = "tidlist"
	}
	opt.CounterRep = counterRep
	opt.Context = ctx
	opt.Resume = *resume
	opt.Tracer = tracer
	if *ckptPath != "" {
		opt.Pincer.Checkpointer = checkpoint.NewFileCheckpointer(*ckptPath)
	}
	if !*quiet {
		opt.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	rep := bench.Run(suite, *repeats, opt)
	if err := bench.WriteTable(os.Stdout, rep); err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, rep, bench.WriteJSON); err != nil {
			return err
		}
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, rep, bench.WriteCSV); err != nil {
			return err
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "benchrun: stopped early (%v); unfinished cells are marked skipped\n", ctx.Err())
	}
	return rep.Err()
}

func writeFile(path string, rep bench.Report, write func(io.Writer, bench.Report) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
