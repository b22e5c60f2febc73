package obsv

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

type metric struct {
	name, labels, help, kind string
	value                    func() int64
	hist                     *Histogram
}

// key is the registry map key: the family name plus the label set, so one
// family ("pincer_http_request_seconds") can carry many labeled series.
func metricKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "\xff" + labels
}

// seriesName renders the exposition name of a counter/gauge series.
func (m *metric) seriesName() string {
	if m.labels == "" {
		return m.name
	}
	return m.name + "{" + m.labels + "}"
}

// Registry is a named collection of counters and gauges with two text
// expositions: the Prometheus format (WritePrometheus, for /metrics) and a
// flat expvar-style JSON object (WriteExpvar, merged into /debug/vars).
// Registration is idempotent by name; registering an existing name with a
// different kind panics (a programmer error caught at startup).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	vars    map[string]interface{} // name -> *Counter or *Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}, vars: map[string]interface{}{}}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	return r.LabeledCounter(name, "", help)
}

// LabeledCounter returns the counter series of a family with a constant
// Prometheus label set (e.g. `route="submit",code="2xx"`; "" means no
// labels). Series of one family share HELP and TYPE in the exposition.
func (r *Registry) LabeledCounter(name, labels, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := metricKey(name, labels)
	if m, ok := r.metrics[key]; ok {
		if m.kind != kindCounter {
			panic(fmt.Sprintf("obsv: metric %q registered as %s, requested as counter", name, m.kind))
		}
		return r.vars[key].(*Counter)
	}
	c := &Counter{}
	r.metrics[key] = &metric{name: name, labels: labels, help: help, kind: kindCounter, value: c.Value}
	r.vars[key] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := metricKey(name, "")
	if m, ok := r.metrics[key]; ok {
		if m.kind != kindGauge {
			panic(fmt.Sprintf("obsv: metric %q registered as %s, requested as gauge", name, m.kind))
		}
		return r.vars[key].(*Gauge)
	}
	g := &Gauge{}
	r.metrics[key] = &metric{name: name, help: help, kind: kindGauge, value: g.Value}
	r.vars[key] = g
	return g
}

// Histogram returns the log-bucketed histogram series of a family with a
// constant label set ("" means no labels), creating it if needed. The
// Prometheus exposition renders it as a native histogram family in seconds
// (_bucket/_sum/_count); the expvar exposition and Snapshot carry only its
// observation count, under "<name>_count" (plus the label clause).
func (r *Registry) Histogram(name, labels, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := metricKey(name, labels)
	if m, ok := r.metrics[key]; ok {
		if m.kind != kindHistogram {
			panic(fmt.Sprintf("obsv: metric %q registered as %s, requested as histogram", name, m.kind))
		}
		return m.hist
	}
	h := &Histogram{}
	r.metrics[key] = &metric{name: name, labels: labels, help: help, kind: kindHistogram, value: h.Count, hist: h}
	return h
}

// sorted returns the metrics in (name, labels) order, keeping every family's
// series contiguous (exposition must be stable).
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labels < ms[j].labels
	})
	return ms
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4), names sorted; HELP and TYPE are emitted once per
// family, ahead of its first series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, m := range r.sorted() {
		if m.name != lastFamily {
			lastFamily = m.name
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
				return err
			}
		}
		if m.kind == kindHistogram {
			if err := m.hist.writePrometheus(w, m.name, m.labels); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", m.seriesName(), m.value()); err != nil {
			return err
		}
	}
	return nil
}

// expvarName renders a metric's key in the flat expvar/Snapshot views:
// counters and gauges keep their series name, histograms appear as their
// observation count under "<name>_count" (plus the label clause).
func (m *metric) expvarName() string {
	name := m.name
	if m.kind == kindHistogram {
		name += "_count"
	}
	if m.labels == "" {
		return name
	}
	return name + "{" + m.labels + "}"
}

// WriteExpvar writes every metric as one flat JSON object in the style of
// expvar's /debug/vars (names sorted; integer values).
func (r *Registry) WriteExpvar(w io.Writer) error {
	if _, err := fmt.Fprint(w, "{"); err != nil {
		return err
	}
	for i, m := range r.sorted() {
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%q: %d", sep, m.expvarName(), m.value()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprint(w, "\n}\n")
	return err
}

// Snapshot returns a name → value map of every metric.
func (r *Registry) Snapshot() map[string]int64 {
	out := map[string]int64{}
	for _, m := range r.sorted() {
		out[m.expvarName()] = m.value()
	}
	return out
}

// MetricsTracer is a Tracer that folds the event stream into a Registry's
// counters and gauges — the bridge between per-run tracing and long-lived
// process metrics.
type MetricsTracer struct {
	runs, passes, candidates, mfcsCandidates *Counter
	frequent, mfsFound, intersections        *Counter
	scanNanos, miningNanos                   *Counter
	cancellations, checkpointsWritten        *Counter
	workers, lastPasses, lastMFSSize         *Gauge
	lastCheckpointPass                       *Gauge
}

// NewMetricsTracer registers the standard mining metrics on reg and returns
// the tracer feeding them.
func NewMetricsTracer(reg *Registry) *MetricsTracer {
	return &MetricsTracer{
		runs:           reg.Counter("pincer_runs_total", "Mining runs started."),
		passes:         reg.Counter("pincer_passes_total", "Database passes completed."),
		candidates:     reg.Counter("pincer_candidates_total", "Bottom-up candidates counted."),
		mfcsCandidates: reg.Counter("pincer_mfcs_candidates_total", "MFCS elements counted."),
		frequent:       reg.Counter("pincer_frequent_total", "Frequent itemsets discovered."),
		intersections:  reg.Counter("pincer_intersections_total", "Tidset kernel operations performed by vertical pass counters."),
		mfsFound:       reg.Counter("pincer_mfs_found_total", "Maximal frequent itemsets established."),
		scanNanos:      reg.Counter("pincer_scan_nanoseconds_total", "Wall clock spent in database passes."),
		miningNanos:    reg.Counter("pincer_mining_nanoseconds_total", "Wall clock spent in whole mining runs."),
		workers:        reg.Gauge("pincer_workers", "Counting goroutines of the most recent run."),
		lastPasses:     reg.Gauge("pincer_last_run_passes", "Passes of the most recently finished run."),
		lastMFSSize:    reg.Gauge("pincer_last_run_mfs_size", "|MFS| of the most recently finished run."),

		cancellations:      reg.Counter("pincer_mine_cancellations_total", "Mining runs ended early by cancellation or a resource budget."),
		checkpointsWritten: reg.Counter("pincer_checkpoints_written_total", "Pass-barrier checkpoints written durably."),
		lastCheckpointPass: reg.Gauge("pincer_last_checkpoint_pass", "Pass number of the most recent checkpoint written durably."),
	}
}

// RunStart implements Tracer.
func (t *MetricsTracer) RunStart(info RunInfo) {
	t.runs.Inc()
	t.workers.Set(int64(info.Workers))
}

// PassDone implements Tracer.
func (t *MetricsTracer) PassDone(ev PassEvent) {
	t.passes.Inc()
	t.candidates.Add(int64(ev.Candidates))
	t.mfcsCandidates.Add(int64(ev.MFCSCandidates))
	t.frequent.Add(int64(ev.Frequent))
	t.mfsFound.Add(int64(ev.MFSFound))
	t.intersections.Add(ev.Intersections)
	t.scanNanos.Add(ev.ScanDuration.Nanoseconds())
}

// RunDone implements Tracer.
func (t *MetricsTracer) RunDone(sum RunSummary) {
	t.miningNanos.Add(sum.Duration.Nanoseconds())
	t.lastPasses.Set(int64(sum.Passes))
	t.lastMFSSize.Set(int64(sum.MFSSize))
	if sum.Aborted {
		t.cancellations.Inc()
	}
}

// CheckpointDone implements CheckpointTracer. A deferred checkpoint did
// not reach disk, so it moves neither metric.
func (t *MetricsTracer) CheckpointDone(ev CheckpointEvent) {
	if ev.Deferred {
		return
	}
	t.checkpointsWritten.Inc()
	t.lastCheckpointPass.Set(int64(ev.Pass))
}
