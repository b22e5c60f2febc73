// Command perfbench is the repository's benchmark: it drives an in-process
// pincerd over loopback HTTP from closed-loop clients, checks every answer,
// and prints end-to-end metrics (untraced run) or per-layer metrics (traced
// run). Build and run it through run.sh from the checkout root:
//
//	bash perfbench/run.sh --workload jobs-dense --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// run context. A correctness mismatch exits 1.
//
//	bash perfbench/run.sh compare OLD NEW
//
// compares two files of saved outputs, refusing when the CPU count or
// GOMAXPROCS of any run differs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"pincer/internal/server"
)

func main() {
	start := time.Now()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(start, os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContext is recorded with every result. Results whose cpus or
// gomaxprocs differ are not comparable.
type runContext struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Trace          bool    `json:"trace"`
	CPUs           int     `json:"cpus"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	Commit         string  `json:"commit"`
	SpoolFS        string  `json:"spool_fs"`
	PollIntervalMS float64 `json:"poll_interval_ms"`
	Clients        int     `json:"clients"`
	WindowS        float64 `json:"window_s"`
	Ops            int     `json:"ops"`
}

func benchMain(start time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: jobs-dense, jobs-sparse, stream-window or stream-cluster")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := workloadByName(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := runConfig{wl: wl, sz: sizingFor(wl), seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, start: start}
	res, ctx, err := runOnce(cfg, filepath.Join(".bench_build", "runs"), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	report(stdout, cfg, res, ctx)
	if !res.Correct {
		return 1
	}
	return 0
}

// runOnce runs the benchmark in a fresh scratch directory under parent and
// removes the directory afterwards.
func runOnce(cfg runConfig, parent string, stderr io.Writer) (*result, *runContext, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(parent, cfg.wl.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.dir, err = filepath.Abs(dir); err != nil {
		return nil, nil, err
	}
	var res *result
	var windows []*served
	if cfg.trace {
		res, windows, err = tracedRun(cfg, stderr)
	} else {
		res, windows, err = untracedRun(cfg, stderr)
	}
	if err != nil {
		return nil, nil, err
	}
	ctx := &runContext{
		Workload: cfg.wl.name, Seed: cfg.seed, Trace: cfg.trace,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), SpoolFS: filesystemOf(cfg.dir),
		PollIntervalMS: float64(pollInterval) / float64(time.Millisecond), Clients: clients,
		Ops: res.Attempted,
	}
	for _, w := range windows {
		ctx.WindowS += w.wall.Seconds()
	}
	return res, ctx, nil
}

// untracedRun sets up sz.setups times, keeping the last system, and
// measures one window on it.
func untracedRun(cfg runConfig, stderr io.Writer) (*result, []*served, error) {
	var setups []float64
	var sys *system
	for i := 0; i < cfg.sz.setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = cfg.start
		}
		s, err := setup(cfg, fmt.Sprintf("setup%d", i), nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.sz.setups-1 {
			if err := s.teardown(); err != nil {
				return nil, nil, err
			}
			continue
		}
		sys = s
	}
	sv, err := sys.serve(cfg.seconds)
	tornDown := time.Now()
	if terr := sys.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, nil, err
	}
	res := &result{Metrics: map[string]metricValue{}}
	checked := time.Now()
	res.Attempted, res.Failed = sys.verify(sv, stderr)
	fmt.Fprintf(stderr, "perfbench: %d set-ups took %.1f s, the window %.1f s, the teardown %.1f s, the checks %.1f s\n",
		len(setups), sum(setups), sv.wall.Seconds(), checked.Sub(tornDown).Seconds(), time.Since(checked).Seconds())
	lats := latencies(sv.ops)
	p50, err := percentile(lats, 0.5)
	if err != nil {
		return nil, nil, err
	}
	p95, err := percentile(lats, 0.95)
	if err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{
		"setup_s":     median(setups),
		"op_p50_ms":   p50,
		"op_p95_ms":   p95,
		"ops_per_s":   float64(len(lats)) / sv.wall.Seconds(),
		"peak_rss_mb": sv.rssMiB,
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	res.Correct = res.Failed == 0
	return res, []*served{sv}, nil
}

// tracedRun measures an untraced window and a traced one, half the run
// each and each on a fresh system, then replays the traced window's
// operations through the library and derives the per-layer metrics.
func tracedRun(cfg runConfig, stderr io.Writer) (*result, []*served, error) {
	half := cfg.seconds / 2
	u, err := setup(cfg, "untraced", nil)
	if err != nil {
		return nil, nil, err
	}
	usv, err := u.serve(half)
	if terr := u.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, nil, err
	}
	log := newSpanLog()
	t, err := setup(cfg, "traced", log)
	if err != nil {
		return nil, nil, err
	}
	tsv, err := t.serve(half)
	if err == nil {
		// The replay needs only the cluster workers, not the daemon.
		err = t.f.closeDaemon()
	}
	if err != nil {
		t.teardown()
		return nil, nil, err
	}
	res := &result{Metrics: map[string]metricValue{}}
	ua, uf := u.verify(usv, stderr)
	ta, tf := t.verify(tsv, stderr)
	res.Attempted, res.Failed = ua+ta, uf+tf
	var jobs []jobReplay
	var batches []batchReplay
	var failures []error
	if cfg.wl.stream {
		batches, failures = replayStreams(log, t, tsv.final, t.dir)
		for _, sent := range t.sent {
			res.Attempted += len(sent) + 1 // every batch, and the final answer
		}
	} else {
		jobs, failures = replayJobs(log, t, tsv.ops, t.dir)
		res.Attempted += len(jobs) + len(failures)
	}
	res.Failed += len(failures)
	reportFailures(stderr, failures)
	if err := t.teardown(); err != nil {
		return nil, nil, err
	}
	spans, err := log.snapshot()
	if err != nil {
		return nil, nil, err
	}
	vals, err := layerMetrics(cfg.wl, tsv, usv, spans, jobs, batches)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	res.Correct = res.Failed == 0
	return res, []*served{usv, tsv}, nil
}

// verify checks every answer of a window and returns the operations
// attempted and failed. A stream's final answer counts as one operation.
func (s *system) verify(sv *served, stderr io.Writer) (attempted, failed int) {
	for _, cops := range sv.ops {
		attempted += len(cops)
	}
	var errs []error
	if !s.cfg.wl.stream {
		checkJobs(s, sv.ops)
	} else {
		checkBatches(s.cfg.sz, sv.ops)
		// One goroutine per client: the single-node replay of a clustered
		// stream costs about as much as the stream's share of the window.
		streamErrs := make([]error, len(sv.final))
		var wg sync.WaitGroup
		for c, doc := range sv.final {
			attempted++
			wg.Add(1)
			go func(c int, doc *server.StreamMFSDoc) {
				defer wg.Done()
				m := mirror{sz: s.cfg.sz, sent: s.sent[c]}
				err := checkStream(m, doc)
				if err == nil && s.cfg.wl.cluster {
					err = checkLocalEquivalent(m, doc)
				}
				streamErrs[c] = err
			}(c, doc)
		}
		wg.Wait()
		for _, err := range streamErrs {
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	for _, cops := range sv.ops {
		for _, o := range cops {
			if o.err != nil {
				errs = append(errs, o.err)
			}
		}
	}
	reportFailures(stderr, errs)
	return attempted, len(errs)
}

// reportFailures prints the first few failures.
func reportFailures(stderr io.Writer, errs []error) {
	for i, err := range errs {
		if i == 5 {
			fmt.Fprintf(stderr, "perfbench: ... and %d more failures\n", len(errs)-i)
			break
		}
		fmt.Fprintln(stderr, "perfbench: FAIL:", err)
	}
}

// teardown stops the system and removes its directory.
func (s *system) teardown() error {
	return errors.Join(s.f.close(), os.RemoveAll(s.dir))
}

// aliases are the per-workload names of the end-to-end latency and rate
// metrics, printed beside them: an op is a job on jobs-* and a batch on
// stream-*.
var aliases = map[bool]map[string]string{
	false: {"op_p50_ms": "job_p50_ms", "op_p95_ms": "job_p95_ms", "ops_per_s": "jobs_per_s"},
	true:  {"op_p50_ms": "batch_p50_ms", "op_p95_ms": "batch_p95_ms", "ops_per_s": "batches_per_s"},
}

// report prints the metrics one per line, the run context, and the result.
func report(w io.Writer, cfg runConfig, res *result, ctx *runContext) {
	fmt.Fprintf(w, "perfbench %s seed %d trace %t: %d operations attempted, %d failed, %.3f s measured\n",
		cfg.wl.name, cfg.seed, cfg.trace, res.Attempted, res.Failed, ctx.WindowS)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		label := d.name
		if a := aliases[cfg.wl.stream][d.name]; a != "" {
			label += " (" + a + ")"
		}
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", label, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "  %-36s %14.4f 1\n", "error_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))
	line, _ := json.Marshal(map[string]*runContext{"context": ctx})
	fmt.Fprintln(w, string(line))
	line, _ = json.Marshal(res)
	fmt.Fprintln(w, string(line))
}

// commit reads the checked-out commit from .git, if the run directory is a
// git checkout; "unknown" otherwise.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if h, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(h))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
