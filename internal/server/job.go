package server

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"time"

	"pincer/internal/checkpoint"
	"pincer/internal/cluster"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/plan"
)

// Miner names accepted by JobRequest.Miner. Every miner answers the same
// question — the maximum frequent set at a minimum support — and the
// conformance corpus pins them to identical answers; which one is fastest
// depends on the dataset shape, so the choice is the client's. What each
// miner accepts is the plan table's (internal/plan).
const (
	MinerPincer   = plan.Pincer   // sequential adaptive Pincer-Search
	MinerApriori  = plan.Apriori  // sequential Apriori baseline
	MinerTopdown  = plan.Topdown  // pure top-down search (concentrated data only)
	MinerVertical = plan.Vertical // depth-first maximal Eclat (no database passes)
	MinerParallel = plan.Parallel // count-distribution parallel Pincer-Search
	MinerFPMax    = plan.FPMax    // FP-tree maximal miner (two passes, then in-memory)
	// MinerAuto delegates the whole plan — miner, counter, and counting
	// structure — to the dataset-adaptive policy (counting.SelectEngine),
	// resolved from the dataset's profile on the worker. The resolved plan
	// is recorded in the result doc's "selection" field.
	MinerAuto = plan.Auto
)

// EngineAuto delegates the counting-engine choice to the dataset-adaptive
// policy. With no miner set it is equivalent to miner=auto (the whole plan
// is delegated); with a fixed level-wise miner only the counting structure
// (and, when unset, the counter) are selected.
const EngineAuto = plan.Auto

// JobRequest is the body of POST /v1/jobs. Exactly one of DatasetPath and
// Baskets names the database. miner=auto accepts every budget; the plan it
// resolves to honours the ones that plan accepts.
type JobRequest struct {
	// DatasetPath is a server-side database file (basket text or the
	// library's binary format, sniffed automatically).
	DatasetPath string `json:"dataset_path,omitempty"`
	// Baskets is an inline database in the basket text format (one
	// transaction of space-separated item ids per line).
	Baskets string `json:"baskets,omitempty"`
	// MinSupport is the fractional minimum support in (0, 1].
	MinSupport float64 `json:"min_support"`
	// Miner selects the algorithm (Miner* constants; default pincer).
	Miner string `json:"miner,omitempty"`
	// Workers is the counting-goroutine count (parallel miner only;
	// 0 = GOMAXPROCS, with scan and tid-list counting alike).
	Workers int `json:"workers,omitempty"`
	// Engine selects the support-counting structure: hashtree, list, or
	// trie (pincer, apriori, and parallel; default hashtree).
	Engine string `json:"engine,omitempty"`
	// Counter selects the support-counting strategy: "" or "scan" (database
	// passes) or "tidlist" (vertical tid-list intersection, optionally
	// "tidlist:bitset|list|diffset" to force the representation). Pincer and
	// parallel miners only; the result is identical either way.
	Counter string `json:"counter,omitempty"`
	// Cluster distributes the pincer miner's support counting over the
	// daemon's worker cluster (pincerd -role coordinator -peers ...). The
	// result is byte-identical to a single-node run; the result doc's
	// "cluster" field records the distribution (and any degradation).
	// Requires miner=pincer with a fixed scan counter and engine.
	Cluster bool `json:"cluster,omitempty"`
	// DeadlineMS bounds the mining wall clock in milliseconds; expiry ends
	// the job with its partial anytime result (0 = unlimited). Every miner
	// accepts it, but only pincer, parallel, apriori and topdown are
	// bounded by it: vertical and fpmax have no cancellation points and
	// run to completion.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxPasses bounds the number of database passes (pincer, parallel and
	// topdown; 0 = unlimited).
	MaxPasses int `json:"max_passes,omitempty"`
	// MaxCandidatesPerPass bounds any single pass's candidate set
	// (pincer, apriori, parallel; 0 = unlimited).
	MaxCandidatesPerPass int `json:"max_candidates_per_pass,omitempty"`
	// MaxMemoryBytes is the approximate heap ceiling checked at pass
	// boundaries (pincer and parallel; 0 = unlimited).
	MaxMemoryBytes int64 `json:"max_memory_bytes,omitempty"`
}

// normalize fills defaults and validates the request shape (everything that
// can be rejected before touching the dataset) against the plan table.
// Every rejection is a *ValidationError carrying a machine-readable Reason*
// constant, so clients can branch on the failing field without parsing
// prose.
func (r *JobRequest) normalize() error {
	if r.Miner == "" {
		if r.Engine == EngineAuto {
			// engine=auto with no miner delegates the whole plan.
			r.Miner = MinerAuto
		} else {
			r.Miner = MinerPincer
		}
	}
	if served := plan.Miners(true); !slices.Contains(served, r.Miner) {
		return invalidf(ReasonBadMiner, "unknown miner %q (want %s)", r.Miner, strings.Join(served, ", "))
	}
	if (r.DatasetPath == "") == (r.Baskets == "") {
		return invalidf(ReasonBadDataset, "exactly one of dataset_path and baskets is required")
	}
	if r.MinSupport <= 0 || r.MinSupport > 1 {
		return invalidf(ReasonBadSupport, "min_support must be in (0, 1], got %v", r.MinSupport)
	}
	if r.Workers < 0 {
		return invalidf(ReasonBadWorkers, "workers must be ≥ 0, got %d", r.Workers)
	}
	if r.Workers != 0 && r.Miner == MinerApriori {
		return invalidf(ReasonBadWorkers, "workers applies to the parallel miner only: pincerd runs apriori sequentially")
	}
	opt := r.options()
	if opt.Deadline > 0 && !plan.Accepts(r.Miner, plan.DeadlineBound) {
		// Accepted for every miner (load generators stamp one on every
		// job), though it bounds only those that accept it.
		opt.Deadline = 0
	}
	if err := plan.Check(opt); err != nil {
		var pe *plan.Error
		errors.As(err, &pe)
		reason := map[plan.Feature]string{plan.Distribution: ReasonBadWorkers, plan.EngineChoice: ReasonBadEngine, plan.TidLists: ReasonBadCounter}[pe.Feature]
		if pe.Feature&plan.Budgets != 0 {
			reason = ReasonBadBudget
		}
		return invalidf(reason, "%v", err)
	}
	if r.Miner == MinerAuto {
		// miner=auto already delegates everything; canonicalize the engine
		// away so both spellings share one cache key.
		r.Engine = ""
	}
	if r.Cluster {
		if !plan.Accepts(r.Miner, plan.OwnCounter) {
			return invalidf(ReasonBadCluster, "cluster applies to the pincer miner only, not %q", r.Miner)
		}
		if r.Counter != "" && r.Counter != "scan" {
			return invalidf(ReasonBadCluster, "cluster counting is scan-based; counter %q does not apply", r.Counter)
		}
		if r.Engine == EngineAuto {
			return invalidf(ReasonBadCluster, "cluster requires a fixed engine, not engine=auto")
		}
	}
	return nil
}

// options maps the request onto the plan table's options; the manager
// adds the per-job checkpointer, tracer and counter.
func (r *JobRequest) options() plan.Options {
	return plan.Options{
		Miner:         r.Miner,
		Engine:        r.Engine,
		Counter:       r.Counter,
		Workers:       r.Workers,
		Deadline:      time.Duration(r.DeadlineMS) * time.Millisecond,
		MaxPasses:     r.MaxPasses,
		MaxCandidates: r.MaxCandidatesPerPass,
		MaxMemory:     r.MaxMemoryBytes,
	}
}

// checkpointable reports whether the miner supports pass-barrier
// checkpoints (and therefore restart-resume and anytime status snapshots).
// miner=auto answers true: the worker checkpoints iff the resolved miner
// does, and clearing a checkpoint that was never written is a no-op.
func (r *JobRequest) checkpointable() bool {
	return plan.Accepts(r.Miner, plan.Checkpoints)
}

// Job statuses, in lifecycle order. A job is terminal in StatusDone,
// StatusPartial, StatusCancelled, or StatusFailed; StatusInterrupted marks
// a job whose daemon died (or was killed) mid-mine — its spool entry and
// checkpoint survive, and the next daemon start resumes it.
const (
	StatusQueued      = "queued"
	StatusRunning     = "running"
	StatusDone        = "done"
	StatusPartial     = "partial" // ended early by a deadline or budget; result is the anytime answer
	StatusCancelled   = "cancelled"
	StatusFailed      = "failed"
	StatusInterrupted = "interrupted"
)

// ItemsetDoc is the wire form of one itemset with its support count
// (-1 when the support was not determined, e.g. an anytime snapshot
// element whose count lives only in a pass the job hasn't replayed).
type ItemsetDoc struct {
	Items   []int32 `json:"items"`
	Support int64   `json:"support"`
}

func itemsetDoc(m itemset.Itemset, support int64) ItemsetDoc {
	items := make([]int32, len(m))
	for i, it := range m {
		items[i] = int32(it)
	}
	return ItemsetDoc{Items: items, Support: support}
}

// PartialDoc describes a run that ended early, mirroring
// *mfi.PartialResultError: the reason, the completed passes, and — for
// miners that maintain one — the MFCS upper bound on the true MFS.
type PartialDoc struct {
	Reason string    `json:"reason"`
	Pass   int       `json:"pass"`
	MFCS   [][]int32 `json:"mfcs_upper_bound,omitempty"`
}

// ResultDoc is the body of GET /v1/results/{id}. For a partial run the MFS
// field holds the anytime lower bound (every element is frequent, but more
// or larger maximal sets may exist) and Partial explains the stop.
type ResultDoc struct {
	ID        string `json:"id"`
	Miner     string `json:"miner"`
	Algorithm string `json:"algorithm"`
	Counter   string `json:"counter,omitempty"`
	// Engine is the counting structure the run used, when one applies.
	Engine       string      `json:"engine,omitempty"`
	MinSupport   float64     `json:"min_support"`
	MinCount     int64       `json:"min_count"`
	Transactions int         `json:"transactions"`
	Passes       int         `json:"passes"`
	Candidates   int64       `json:"candidates"`
	DurationNS   int64       `json:"duration_ns"`
	Cached       bool        `json:"cached,omitempty"`
	Partial      *PartialDoc `json:"partial,omitempty"`
	// Selection records the adaptive policy's decision for delegated
	// (miner=auto / engine=auto) jobs; nil for fully fixed plans. Miner
	// still echoes the request ("auto"); Selection.Miner is the plan run.
	Selection *SelectionDoc `json:"selection,omitempty"`
	// Cluster records the distributed-counting run for cluster jobs: shard
	// and RPC accounting, node-loss handling, and whether the run degraded
	// to local counting.
	Cluster *cluster.Doc `json:"cluster,omitempty"`
	MFS     []ItemsetDoc `json:"maximal_frequent_itemsets"`
}

// buildDoc renders a mining result (and the PartialResultError that cut it
// short, if any) into the wire form. sel is the adaptive selection the job
// resolved, nil when nothing was delegated.
func buildDoc(id string, spec JobRequest, sel *SelectionDoc, res *mfi.Result, pe *mfi.PartialResultError) *ResultDoc {
	doc := &ResultDoc{
		ID:           id,
		Miner:        spec.Miner,
		Algorithm:    res.Stats.Algorithm,
		Counter:      spec.Counter,
		Engine:       spec.Engine,
		MinSupport:   spec.MinSupport,
		MinCount:     res.MinCount,
		Transactions: res.NumTransactions,
		Passes:       res.Stats.Passes,
		Candidates:   res.Stats.Candidates,
		DurationNS:   res.Stats.Duration.Nanoseconds(),
		MFS:          make([]ItemsetDoc, 0, len(res.MFS)),
	}
	if sel != nil {
		doc.Counter = sel.Counter
		doc.Engine = sel.Engine
		doc.Selection = sel
	}
	for i, m := range res.MFS {
		doc.MFS = append(doc.MFS, itemsetDoc(m, res.MFSSupports[i]))
	}
	if pe != nil {
		p := &PartialDoc{Reason: pe.Reason, Pass: pe.Pass}
		for _, m := range pe.MFCS {
			p.MFCS = append(p.MFCS, itemsetDoc(m, 0).Items)
		}
		doc.Partial = p
	}
	return doc
}

// SelectionDoc records an adaptive engine-selection decision in the result
// document: what the client delegated, the concrete plan the policy chose,
// its one-line rationale, and the dataset profile the decision keyed on.
// The profile is a pure function of the dataset bytes, so a job resumed
// after a daemon restart re-derives the identical plan.
type SelectionDoc struct {
	// Requested names what was delegated: "miner" for miner=auto (the whole
	// plan), "engine" for a fixed level-wise miner with engine=auto.
	Requested string `json:"requested"`
	// Miner, Engine, and Counter are the resolved plan, in the request
	// vocabulary. Engine and Counter are empty where they do not apply
	// (e.g. the vertical and fpmax miners have no counting engine).
	Miner   string `json:"miner"`
	Engine  string `json:"engine,omitempty"`
	Counter string `json:"counter,omitempty"`
	// Rationale is the policy's one-line explanation of the choice.
	Rationale string `json:"rationale,omitempty"`
	// Profile is the dataset profile the policy keyed on.
	Profile dataset.Profile `json:"profile"`
}

// JobView is the body of GET /v1/jobs/{id}: the job's lifecycle state plus,
// while a checkpointable miner is running, the anytime snapshot published
// at the last pass barrier — a lower bound on the final MFS.
type JobView struct {
	ID         string  `json:"id"`
	Status     string  `json:"status"`
	Miner      string  `json:"miner"`
	MinSupport float64 `json:"min_support"`
	Cached     bool    `json:"cached,omitempty"`
	Error      string  `json:"error,omitempty"`
	// Pass is the number of pass barriers the running job has checkpointed.
	Pass int `json:"pass,omitempty"`
	// AnytimeMFS holds the maximal itemsets among the frequent sets the
	// running job has discovered so far.
	AnytimeMFS []ItemsetDoc `json:"anytime_mfs,omitempty"`
	// PartialReason is set on terminal jobs that stopped early.
	PartialReason string `json:"partial_reason,omitempty"`
	CreatedAt     string `json:"created_at,omitempty"`
	FinishedAt    string `json:"finished_at,omitempty"`
}

// Job is one mining request moving through the manager. All mutable fields
// are guarded by mu; the immutable identity (ID, Spec, Key) is set before
// the job is shared.
type Job struct {
	ID   string
	Spec JobRequest
	// Key is the content-addressed cache key (dataset SHA-256 + options).
	Key string
	// resume marks a job recovered from the spool at startup: its miner
	// re-enters at the checkpointed pass barrier instead of pass 1.
	resume bool

	// data is the parsed dataset; nil for spool-recovered jobs until the
	// worker re-reads the spec, and again once the job has left the queue
	// (see release). prof is its shape profile, memoized by the dataset
	// cache at insert time (zero until data is set).
	data *dataset.Dataset
	prof dataset.Profile

	mu          sync.Mutex
	status      string
	err         string
	doc         *ResultDoc
	sel         *SelectionDoc // resolved adaptive plan; nil if nothing delegated
	clusterDoc  *cluster.Doc  // distributed-counting summary; nil off-cluster
	cancel      func()
	cancelAsked bool
	anytimePass int
	anytimeMFS  []ItemsetDoc
	created     time.Time
	finished    time.Time
}

// release drops the job's inline baskets and parsed dataset once it has
// left the queue for good. The job table keeps every finished job, so a
// database held here would stay reachable after the dataset cache evicted
// it and escape that cache's byte bound; the .job spool file still holds
// the spec, and nothing else reads either field again.
func (j *Job) release() {
	j.mu.Lock()
	j.Spec.Baskets = ""
	j.data = nil
	j.mu.Unlock()
}

// setStatus transitions the job (no validation: the manager owns the
// lifecycle).
func (j *Job) setStatus(s string) {
	j.mu.Lock()
	j.status = s
	if s != StatusQueued && s != StatusRunning {
		j.finished = time.Now()
	}
	j.mu.Unlock()
}

// Status returns the current status.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// requestCancel asks a queued or running job to stop; it reports whether
// the job was still live. The worker observes the context; a queued job is
// finalized by the worker when it reaches the front of the queue.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusQueued, StatusRunning:
		j.cancelAsked = true
		if j.cancel != nil {
			j.cancel()
		}
		return true
	}
	return false
}

// view renders the job for the status endpoint.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:         j.ID,
		Status:     j.status,
		Miner:      j.Spec.Miner,
		MinSupport: j.Spec.MinSupport,
	}
	if !j.created.IsZero() {
		v.CreatedAt = j.created.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	v.Error = j.err
	if j.doc != nil {
		v.Cached = j.doc.Cached
		if j.doc.Partial != nil {
			v.PartialReason = j.doc.Partial.Reason
		}
	}
	if j.status == StatusRunning {
		v.Pass = j.anytimePass
		v.AnytimeMFS = j.anytimeMFS
	}
	return v
}

// publishAnytime folds a freshly written checkpoint into the job's anytime
// view: the completed passes and the maximal sets among everything the run
// has established as frequent, with supports where the checkpoint carries
// them (singleton counts and the k ≥ 3 support cache; elements whose count
// lives only in the pass-2 triangle report -1).
func (j *Job) publishAnytime(st *checkpoint.State) {
	sets := make([]itemset.Itemset, 0, len(st.MFS)+len(st.AllFrequent))
	sets = append(sets, st.MFS...)
	sets = append(sets, st.AllFrequent...)
	maximal := itemset.MaximalOnly(sets)
	docs := make([]ItemsetDoc, 0, len(maximal))
	for _, m := range maximal {
		support := int64(-1)
		if c, ok := st.Cache[m.Key()]; ok {
			support = c
		} else if len(m) == 1 && int(m[0]) < len(st.ItemCounts) {
			support = st.ItemCounts[m[0]]
		}
		docs = append(docs, itemsetDoc(m, support))
	}
	j.mu.Lock()
	j.anytimePass = st.Stats.Passes
	j.anytimeMFS = docs
	j.mu.Unlock()
}

// snapshotCheckpointer tees every checkpoint into the job's anytime view on
// its way to the durable store, so GET /v1/jobs/{id} can report partial
// progress while the job runs.
type snapshotCheckpointer struct {
	inner checkpoint.Checkpointer
	job   *Job
}

func (s *snapshotCheckpointer) Save(st *checkpoint.State) error {
	if err := s.inner.Save(st); err != nil {
		return err
	}
	s.job.publishAnytime(st)
	return nil
}

func (s *snapshotCheckpointer) Load() (*checkpoint.State, error) { return s.inner.Load() }
func (s *snapshotCheckpointer) Clear() error                     { return s.inner.Clear() }
