// Package obsv is the miners' observability layer: per-pass trace events,
// process-level counters and gauges with expvar- and Prometheus-compatible
// exposition, and an HTTP endpoint bundling both with net/http/pprof.
//
// The paper's evaluation (§4) is organized around per-pass behavior —
// candidate counts, MFCS size, passes over the database — so the unit of
// tracing here is the database pass: every miner emits one PassEvent per
// pass, mirroring its Stats.PassDetails entry exactly, plus a RunStart /
// RunDone pair bracketing the run. A nil Tracer in the mining options
// disables everything; the miners guard each emission with a single nil
// check, so the untraced hot path pays nothing.
//
// Everything here is standard library only.
package obsv

import (
	"sync"
	"time"
)

// Phase tags what a database pass was spent on.
type Phase string

const (
	// PhaseBottomUp is a level-wise candidate-counting pass (Apriori and
	// the bottom-up half of Pincer-Search, possibly with MFCS elements
	// piggybacked).
	PhaseBottomUp Phase = "bottom-up"
	// PhaseMFCSCount is a pass counting only top-down candidates: MFCS
	// elements in Pincer-Search, the frontier in the pure top-down miner.
	PhaseMFCSCount Phase = "mfcs-count"
	// PhaseRecovery is a bottom-up pass whose candidates include itemsets
	// reconstructed by the recovery procedure (paper §3.4).
	PhaseRecovery Phase = "recovery"
	// PhaseTail is an MFCS-only pass after the bottom-up search exhausted
	// (the termination fix of DESIGN.md §2 issue 2).
	PhaseTail Phase = "tail"
)

// RunInfo describes a mining run as it starts.
type RunInfo struct {
	Algorithm       string `json:"algorithm"`
	Workers         int    `json:"workers"`
	MinCount        int64  `json:"min_count"`
	NumTransactions int    `json:"transactions"`
}

// PassEvent is the span record of one completed database pass. Pass,
// Candidates, MFCSCandidates, Frequent, and MFSFound agree exactly with the
// run's Stats.PassDetails entry of the same pass number; the remaining
// fields add what Stats does not record (phase, MFCS size, scan wall-clock,
// worker count).
type PassEvent struct {
	Algorithm string `json:"algorithm"`
	Pass      int    `json:"pass"`
	Phase     Phase  `json:"phase"`
	// Candidates is the number of bottom-up candidates counted.
	Candidates int `json:"candidates"`
	// MFCSCandidates is the number of MFCS elements counted this pass.
	MFCSCandidates int `json:"mfcs_candidates"`
	// MFCSSize is |MFCS| after the pass (0 once the adaptive policy
	// abandons the structure, and for miners without an MFCS).
	MFCSSize int `json:"mfcs_size"`
	// Frequent / Infrequent split the counted bottom-up candidates.
	Frequent   int `json:"frequent"`
	Infrequent int `json:"infrequent"`
	// MFSFound is the number of maximal frequent itemsets established.
	MFSFound int `json:"mfs_found"`
	// ScanDuration is the wall clock of the pass's database read.
	ScanDuration time.Duration `json:"scan_ns"`
	// Workers is the number of counting goroutines (1 = sequential).
	Workers int `json:"workers"`
	// Intersections is the number of tidset kernel operations the pass
	// performed when counting ran on a vertical (tid-list) counter instead
	// of a database scan; 0 — and omitted — for scan counters.
	Intersections int64 `json:"intersections,omitempty"`
	// Representation labels the tidset representation those operations used
	// ("bitset", "list", or "mixed", with a "+diffset" suffix when diffsets
	// were involved); empty for scan counters.
	Representation string `json:"representation,omitempty"`
}

// RunSummary describes a finished run.
type RunSummary struct {
	Algorithm  string        `json:"algorithm"`
	Passes     int           `json:"passes"`
	Candidates int64         `json:"candidates"`
	MFSSize    int           `json:"mfs_size"`
	Duration   time.Duration `json:"duration_ns"`
	// Aborted marks a run cut short by cancellation or a resource budget;
	// AbortReason carries the mfi.Reason* constant. The summary then
	// describes the partial anytime result.
	Aborted     bool   `json:"aborted,omitempty"`
	AbortReason string `json:"abort_reason,omitempty"`
}

// CheckpointEvent records one pass-barrier checkpoint handed to the run's
// Checkpointer.
type CheckpointEvent struct {
	Algorithm string `json:"algorithm"`
	// Pass is the number of completed passes captured by the checkpoint.
	Pass int `json:"pass"`
	// Stage is the phase the checkpoint re-enters on resume.
	Stage string `json:"stage"`
	// Deferred marks a checkpoint that a pacing Checkpointer encoded but
	// held in memory instead of writing durably.
	Deferred bool `json:"deferred,omitempty"`
	// Duration is the wall clock spent encoding and persisting the state.
	Duration time.Duration `json:"duration_ns"`
}

// SelectionEvent records one adaptive engine-selection decision: the plan
// the policy chose and the profile features that drove it. Emitted before
// RunStart by runs whose engine was delegated to the dataset-adaptive
// policy; fixed-engine runs never emit it.
type SelectionEvent struct {
	// Algorithm, Engine, and Counter are the selected plan (the server's
	// miner/engine/counter vocabulary).
	Algorithm string `json:"algorithm"`
	Engine    string `json:"engine,omitempty"`
	Counter   string `json:"counter,omitempty"`
	// Rationale is the policy's one-line explanation.
	Rationale string `json:"rationale,omitempty"`
	// The dataset profile features the policy keyed on.
	Transactions int     `json:"transactions"`
	Universe     int     `json:"universe"`
	Density      float64 `json:"density"`
	Skew         float64 `json:"skew"`
}

// ClusterEvent records one distributed-mining control-plane transition: a
// worker declared dead or rejoined, a shard reassigned or counted locally,
// or the coordinator degrading to single-node counting. The data plane (the
// per-pass count merges) stays in PassEvent; only state changes are traced,
// so a healthy cluster run emits no cluster events at all.
type ClusterEvent struct {
	// Event is the transition: "worker_dead", "worker_rejoin", "reassign",
	// "local_count", or "degraded".
	Event string `json:"event"`
	// Pass is the pass barrier at which the transition was observed.
	Pass int `json:"pass"`
	// Worker is the affected worker's address, when one is involved.
	Worker string `json:"worker,omitempty"`
	// Shard is the affected shard's content address (SHA-256 hex prefix).
	Shard string `json:"shard,omitempty"`
	// Reason explains the transition (an RPC error class, "quorum", ...).
	Reason string `json:"reason,omitempty"`
	// Live is the live-worker count after the transition.
	Live int `json:"live"`
}

// StreamEvent records one delta applied to an incrementally maintained
// stream: a batch absorbed on the border-unmoved fast path or a triggered
// re-mine. Re-mines additionally emit the usual run events through the same
// tracer; StreamEvent carries the delta-level decision those runs can't see.
type StreamEvent struct {
	// Stream identifies the maintained stream (the server's stream id).
	Stream string `json:"stream"`
	// Seq is the 1-based batch sequence number.
	Seq int64 `json:"seq"`
	// Appended and Evicted count the transactions entering and leaving the
	// window in this delta.
	Appended int `json:"appended"`
	Evicted  int `json:"evicted,omitempty"`
	// Transactions is the window length after the delta.
	Transactions int `json:"transactions"`
	// Checked is the number of maintained itemsets (MFS and border, both
	// delta sides) counted to decide the delta.
	Checked int `json:"checked"`
	// Remined reports whether a full mine ran; Reason explains why
	// ("initial", "mfs-infrequent", "border-frequent", "new-item-frequent")
	// and is empty on the fast path.
	Remined bool   `json:"remined"`
	Reason  string `json:"reason,omitempty"`
	// VerifyMillis is the delta-verification wall clock; MineMillis the
	// re-mine wall clock (0 on the fast path).
	VerifyMillis float64 `json:"verify_ms"`
	MineMillis   float64 `json:"mine_ms,omitempty"`
	// Cluster reports the delta counting was fanned out over a worker
	// cluster; the remaining fields summarize that batch's distribution
	// (ClusterDegraded: the batch fell below quorum and counted locally).
	Cluster          bool  `json:"cluster,omitempty"`
	ClusterWorkers   int   `json:"cluster_workers,omitempty"`
	ClusterRPCs      int64 `json:"cluster_rpcs,omitempty"`
	ClusterFailovers int64 `json:"cluster_failovers,omitempty"`
	ClusterDegraded  bool  `json:"cluster_degraded,omitempty"`
}

// StreamTracer is optionally implemented by Tracers that also want the
// incremental-maintenance delta stream, following the same
// optional-interface pattern as CheckpointTracer.
type StreamTracer interface {
	StreamDelta(ev StreamEvent)
}

// EmitStream forwards ev to tr if it implements StreamTracer; a nil or
// plain Tracer is a no-op.
func EmitStream(tr Tracer, ev StreamEvent) {
	if st, ok := tr.(StreamTracer); ok {
		st.StreamDelta(ev)
	}
}

// ClusterTracer is optionally implemented by Tracers that also want the
// distributed-mining event stream, following the same optional-interface
// pattern as CheckpointTracer.
type ClusterTracer interface {
	ClusterChange(ev ClusterEvent)
}

// EmitCluster forwards ev to tr if it implements ClusterTracer; a nil or
// plain Tracer is a no-op.
func EmitCluster(tr Tracer, ev ClusterEvent) {
	if ct, ok := tr.(ClusterTracer); ok {
		ct.ClusterChange(ev)
	}
}

// Tracer receives the event stream of a mining run. Implementations must be
// safe for concurrent use: parallel miners emit from the mining goroutine
// only, but one Tracer may be shared by several concurrent runs.
type Tracer interface {
	RunStart(info RunInfo)
	PassDone(ev PassEvent)
	RunDone(sum RunSummary)
}

// CheckpointTracer is optionally implemented by Tracers that also want the
// checkpoint event stream; the miners feed it with a type assertion, so
// plain Tracers keep working unchanged.
type CheckpointTracer interface {
	CheckpointDone(ev CheckpointEvent)
}

// EmitCheckpoint forwards ev to tr if it implements CheckpointTracer; a nil
// or plain Tracer is a no-op. Miners call this at every checkpoint.
func EmitCheckpoint(tr Tracer, ev CheckpointEvent) {
	if ct, ok := tr.(CheckpointTracer); ok {
		ct.CheckpointDone(ev)
	}
}

// SelectionTracer is optionally implemented by Tracers that also want the
// adaptive engine-selection decisions, following the same optional-
// interface pattern as CheckpointTracer.
type SelectionTracer interface {
	SelectionDone(ev SelectionEvent)
}

// EmitSelection forwards ev to tr if it implements SelectionTracer; a nil
// or plain Tracer is a no-op.
func EmitSelection(tr Tracer, ev SelectionEvent) {
	if st, ok := tr.(SelectionTracer); ok {
		st.SelectionDone(ev)
	}
}

// Multi fans every event out to each tracer in order.
func Multi(tracers ...Tracer) Tracer {
	// Flatten nils so callers can pass optional tracers unconditionally.
	var ts []Tracer
	for _, t := range tracers {
		if t != nil {
			ts = append(ts, t)
		}
	}
	if len(ts) == 1 {
		return ts[0]
	}
	return multiTracer(ts)
}

type multiTracer []Tracer

func (m multiTracer) RunStart(info RunInfo) {
	for _, t := range m {
		t.RunStart(info)
	}
}

func (m multiTracer) PassDone(ev PassEvent) {
	for _, t := range m {
		t.PassDone(ev)
	}
}

func (m multiTracer) RunDone(sum RunSummary) {
	for _, t := range m {
		t.RunDone(sum)
	}
}

// CheckpointDone implements CheckpointTracer, forwarding to the members
// that implement it.
func (m multiTracer) CheckpointDone(ev CheckpointEvent) {
	for _, t := range m {
		EmitCheckpoint(t, ev)
	}
}

// SelectionDone implements SelectionTracer, forwarding to the members that
// implement it.
func (m multiTracer) SelectionDone(ev SelectionEvent) {
	for _, t := range m {
		EmitSelection(t, ev)
	}
}

// ClusterChange implements ClusterTracer, forwarding to the members that
// implement it.
func (m multiTracer) ClusterChange(ev ClusterEvent) {
	for _, t := range m {
		EmitCluster(t, ev)
	}
}

// StreamDelta implements StreamTracer, forwarding to the members that
// implement it.
func (m multiTracer) StreamDelta(ev StreamEvent) {
	for _, t := range m {
		EmitStream(t, ev)
	}
}

// Collector is a Tracer that accumulates the event stream in memory, for
// tests and for benchrun's report folding.
type Collector struct {
	mu          sync.Mutex
	runs        []RunInfo
	passes      []PassEvent
	done        []RunSummary
	checkpoints []CheckpointEvent
	selections  []SelectionEvent
	cluster     []ClusterEvent
	stream      []StreamEvent
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// RunStart implements Tracer.
func (c *Collector) RunStart(info RunInfo) {
	c.mu.Lock()
	c.runs = append(c.runs, info)
	c.mu.Unlock()
}

// PassDone implements Tracer.
func (c *Collector) PassDone(ev PassEvent) {
	c.mu.Lock()
	c.passes = append(c.passes, ev)
	c.mu.Unlock()
}

// RunDone implements Tracer.
func (c *Collector) RunDone(sum RunSummary) {
	c.mu.Lock()
	c.done = append(c.done, sum)
	c.mu.Unlock()
}

// Runs returns a copy of the collected run starts.
func (c *Collector) Runs() []RunInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RunInfo(nil), c.runs...)
}

// Passes returns a copy of the collected pass events.
func (c *Collector) Passes() []PassEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]PassEvent(nil), c.passes...)
}

// Summaries returns a copy of the collected run summaries.
func (c *Collector) Summaries() []RunSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RunSummary(nil), c.done...)
}

// CheckpointDone implements CheckpointTracer.
func (c *Collector) CheckpointDone(ev CheckpointEvent) {
	c.mu.Lock()
	c.checkpoints = append(c.checkpoints, ev)
	c.mu.Unlock()
}

// Checkpoints returns a copy of the collected checkpoint events.
func (c *Collector) Checkpoints() []CheckpointEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CheckpointEvent(nil), c.checkpoints...)
}

// SelectionDone implements SelectionTracer.
func (c *Collector) SelectionDone(ev SelectionEvent) {
	c.mu.Lock()
	c.selections = append(c.selections, ev)
	c.mu.Unlock()
}

// Selections returns a copy of the collected selection events.
func (c *Collector) Selections() []SelectionEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SelectionEvent(nil), c.selections...)
}

// ClusterChange implements ClusterTracer.
func (c *Collector) ClusterChange(ev ClusterEvent) {
	c.mu.Lock()
	c.cluster = append(c.cluster, ev)
	c.mu.Unlock()
}

// ClusterEvents returns a copy of the collected cluster events.
func (c *Collector) ClusterEvents() []ClusterEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ClusterEvent(nil), c.cluster...)
}

// StreamDelta implements StreamTracer.
func (c *Collector) StreamDelta(ev StreamEvent) {
	c.mu.Lock()
	c.stream = append(c.stream, ev)
	c.mu.Unlock()
}

// StreamEvents returns a copy of the collected stream delta events.
func (c *Collector) StreamEvents() []StreamEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]StreamEvent(nil), c.stream...)
}

// Reset discards everything collected so far.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.runs, c.passes, c.done, c.checkpoints, c.selections = nil, nil, nil, nil, nil
	c.cluster, c.stream = nil, nil
	c.mu.Unlock()
}
