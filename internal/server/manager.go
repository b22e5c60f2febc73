package server

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pincer/internal/apriori"
	"pincer/internal/checkpoint"
	"pincer/internal/cluster"
	"pincer/internal/core"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/fpmax"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
	"pincer/internal/parallel"
	"pincer/internal/topdown"
	"pincer/internal/vertical"
)

// Submission outcomes the HTTP layer maps to status codes.
var (
	// ErrQueueFull rejects a submission because the bounded run queue is
	// saturated — the backpressure signal behind 429.
	ErrQueueFull = errors.New("server: job queue is full")
	// ErrShuttingDown rejects submissions once a drain or abort has begun.
	ErrShuttingDown = errors.New("server: shutting down")
)

// manager lifecycle states.
const (
	stateAccepting = iota
	stateDraining  // SIGTERM: no new jobs, queued jobs still run
	stateAborting  // SIGINT: running jobs cancelled, queue left on disk
)

// Manager owns the job lifecycle: a bounded queue feeding a bounded worker
// pool, the content-addressed result cache in front of it, and the spool
// directory that makes in-flight jobs survive a daemon restart.
type Manager struct {
	cfg    Config
	sp     spool
	reg    *obsv.Registry
	met    *metricsSet
	tracer obsv.Tracer // MetricsTracer shared by every job's mining run

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue   chan *Job
	wg      sync.WaitGroup
	running atomic.Int64

	mu            sync.Mutex
	state         int
	queueClosed   bool
	jobs          map[string]*Job
	streams       map[string]*Stream
	seq           int64
	cache         *resultCache
	dsc           *datasetCache
	lastEvictions int64
}

// newManager builds the manager, re-enqueues the spool's incomplete jobs,
// and starts the worker pool.
func newManager(cfg Config, reg *obsv.Registry) (*Manager, error) {
	if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: spool: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		sp:         spool{dir: cfg.SpoolDir},
		reg:        reg,
		met:        newMetricsSet(reg),
		tracer:     obsv.NewMetricsTracer(reg),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		streams:    map[string]*Stream{},
		cache:      newResultCache(cfg.CacheMaxBytes),
		dsc:        newDatasetCache(cfg.DatasetCacheBytes),
	}
	pending, records, err := m.sp.scan()
	if err != nil {
		cancel()
		return nil, err
	}
	// Size the queue to fit the configured bound and every job being
	// recovered, so a restart never 429s its own backlog.
	capacity := cfg.QueueSize
	if n := len(pending); n > capacity {
		capacity = n
	}
	m.queue = make(chan *Job, capacity)
	for _, jf := range pending {
		if rec := records[jf.ID]; rec != nil {
			// Terminal before the restart: reload so GET keeps answering,
			// without the inline baskets a finished job never reads again.
			j := &Job{ID: jf.ID, Spec: jf.Spec, Key: jf.Key, status: rec.Status, err: rec.Error, doc: rec.Doc}
			j.Spec.Baskets = ""
			m.jobs[jf.ID] = j
			continue
		}
		// Queued or running when the previous daemon died: resume. The
		// miner re-enters at the checkpointed pass barrier (or pass 1 when
		// the job never reached one), reproducing the uninterrupted run.
		j := &Job{ID: jf.ID, Spec: jf.Spec, Key: jf.Key, resume: true, status: StatusQueued, created: time.Now()}
		m.jobs[jf.ID] = j
		m.queue <- j
		m.met.jobsResumed.Inc()
		m.logf("resuming job %s (%s) from spool", j.ID, j.Spec.Miner)
	}
	m.met.queueDepth.Set(int64(len(m.queue)))
	if err := m.recoverStreams(); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// SpoolDir reports the durability root the manager was configured with.
func (m *Manager) SpoolDir() string { return m.cfg.SpoolDir }

func (m *Manager) logf(format string, args ...interface{}) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// nextID returns a sortable unique job id; the timestamp prefix keeps
// restart order deterministic across daemon generations.
func (m *Manager) nextID() string {
	m.mu.Lock()
	m.seq++
	seq := m.seq
	m.mu.Unlock()
	return fmt.Sprintf("j%016x-%04d", time.Now().UnixNano(), seq)
}

// Submit validates a request, answers it from the result cache when the
// content-addressed key hits, and otherwise persists and enqueues a job.
// ErrQueueFull reports saturation (HTTP 429); ErrShuttingDown a draining
// daemon (503); any other error is a bad request (400).
func (m *Manager) Submit(spec JobRequest) (*Job, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	if spec.Cluster && m.cfg.Cluster == nil {
		return nil, invalidf(ReasonBadCluster, "this daemon has no worker cluster (start with -role coordinator -peers ...)")
	}
	data, err := loadDatasetBytes(spec)
	if err != nil {
		return nil, err
	}
	key := CacheKey(data, spec)
	id := m.nextID()

	m.mu.Lock()
	if m.state != stateAccepting {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	m.met.jobsSubmitted.Inc()
	if doc, ok := m.cache.get(key); ok {
		hit := *doc // shallow copy: the MFS slice is shared read-only
		hit.ID = id
		hit.Cached = true
		j := &Job{ID: id, Spec: spec, Key: key, status: StatusDone, doc: &hit, created: time.Now()}
		j.Spec.Baskets = "" // finished on arrival: the bytes are never read again
		j.finished = j.created
		m.jobs[id] = j
		m.met.cacheHits.Inc()
		m.mu.Unlock()
		m.logf("job %s: cache hit (%s)", id, key[:12])
		return j, nil
	}
	m.mu.Unlock()

	// Cache miss: only now pay for parsing the database (a hit never needs
	// the parsed form, just the bytes' hash). Repeats of a known database
	// come out of the dataset cache with their profile already computed.
	d, prof, err := m.datasetFor(data)
	if err != nil {
		return nil, err
	}
	j := &Job{ID: id, Spec: spec, Key: key, data: d, prof: prof, status: StatusQueued, created: time.Now()}
	if err := m.sp.saveJob(j); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.state != stateAccepting {
		m.mu.Unlock()
		m.sp.dropJob(id)
		return nil, ErrShuttingDown
	}
	select {
	case m.queue <- j:
		m.jobs[id] = j
		m.met.cacheMisses.Inc()
		m.met.queueDepth.Set(int64(len(m.queue)))
		m.mu.Unlock()
		return j, nil
	default:
		m.met.jobsRejected.Inc()
		m.mu.Unlock()
		m.sp.dropJob(id)
		return nil, ErrQueueFull
	}
}

// RetryAfterSeconds estimates how long a 429-rejected client should wait
// before retrying, instead of a hardcoded constant: one second of slack plus
// the queued backlog spread over the worker pool (a queue this side of
// saturation drains roughly one job per worker per moment), clamped to 30s
// so a long backlog never tells clients to go away for minutes.
func (m *Manager) RetryAfterSeconds() int {
	workers := m.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	sec := 1 + len(m.queue)/workers
	if sec > 30 {
		sec = 30
	}
	return sec
}

// datasetFor returns the parsed dataset and its shape profile for the raw
// database bytes, memoized in the dataset cache: the same database submitted
// at many thresholds (or re-loaded for a spool-resumed job) is parsed and
// profiled exactly once. The profile is computed here — at cache-insert time
// — rather than by each job that happens to delegate its plan.
func (m *Manager) datasetFor(data []byte) (*dataset.Dataset, dataset.Profile, error) {
	sum := sha256.Sum256(data)
	m.mu.Lock()
	if d, prof, ok := m.dsc.get(sum); ok {
		m.mu.Unlock()
		m.met.datasetCacheHits.Inc()
		return d, prof, nil
	}
	m.mu.Unlock()
	// Parse and profile outside the lock: both are linear in the database
	// and must not stall submissions of other datasets. A racing duplicate
	// submission at worst parses twice; the second put wins harmlessly.
	d, err := parseDataset(data)
	if err != nil {
		return nil, dataset.Profile{}, err
	}
	prof := d.Profile()
	m.met.datasetCacheMisses.Inc()
	m.mu.Lock()
	m.dsc.put(sum, d, prof, int64(len(data)))
	m.met.datasetCacheEntries.Set(int64(m.dsc.len()))
	m.met.datasetCacheBytes.Set(m.dsc.bytes)
	m.mu.Unlock()
	return d, prof, nil
}

// Job returns the job by id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// JobViews lists every known job, newest first.
func (m *Manager) JobViews() []JobView {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID > jobs[k].ID })
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	return views
}

// Cancel stops a queued or running job via the context seam. A queued job
// is finalized immediately; a running one unwinds at its next cancellation
// point and keeps the partial anytime result. The second return reports
// whether the job exists at all.
func (m *Manager) Cancel(id string) (cancelled, exists bool) {
	j, ok := m.Job(id)
	if !ok {
		return false, false
	}
	j.mu.Lock()
	if j.status == StatusQueued {
		j.status = StatusCancelled
		j.cancelAsked = true
		j.finished = time.Now()
		j.mu.Unlock()
		m.met.jobsCancelled.Inc()
		if err := m.sp.saveResult(j, StatusCancelled, "", nil); err != nil {
			m.logf("job %s: record cancel: %v", id, err)
		}
		return true, true
	}
	j.mu.Unlock()
	return j.requestCancel(), true
}

// worker drains the queue until it is closed.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.met.queueDepth.Set(int64(len(m.queue)))
		switch {
		case m.currentState() == stateAborting:
			// Leave the spool entry and checkpoint: the next daemon start
			// resumes this job exactly where its checkpoint left it.
			if j.Status() == StatusQueued {
				j.setStatus(StatusInterrupted)
			}
		case j.Status() != StatusQueued:
			// cancelled while waiting; already finalized
		default:
			m.runJob(j)
		}
		j.release()
	}
}

func (m *Manager) currentState() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// runJob executes one job end to end: dataset (re)load for spool-recovered
// jobs, the mining dispatch, and finalization.
func (m *Manager) runJob(j *Job) {
	if j.data == nil {
		data, err := loadDatasetBytes(j.Spec)
		var d *dataset.Dataset
		var prof dataset.Profile
		if err == nil {
			d, prof, err = m.datasetFor(data)
		}
		if err != nil {
			m.finalize(j, nil, err)
			return
		}
		j.data, j.prof = d, prof
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	j.status = StatusRunning
	asked := j.cancelAsked
	j.mu.Unlock()
	if asked {
		cancel()
	}
	m.met.jobsStarted.Inc()
	m.met.jobsRunning.Set(m.running.Add(1))
	defer func() { m.met.jobsRunning.Set(m.running.Add(-1)) }()
	m.logf("job %s: mining (%s, minsup %g, %d tx)", j.ID, j.Spec.Miner, j.Spec.MinSupport, j.data.Len())

	res, err := m.mine(ctx, j)
	m.finalize(j, res, err)
}

// jobTracer combines the process-wide metrics tracer with the job's JSONL
// trace file.
func (m *Manager) jobTracer(j *Job) (obsv.Tracer, func()) {
	f, err := os.Create(m.sp.tracePath(j.ID))
	if err != nil {
		m.logf("job %s: trace file: %v", j.ID, err)
		return m.tracer, func() {}
	}
	return obsv.Multi(m.tracer, obsv.NewJSONTracer(f)), func() { f.Close() }
}

// mine dispatches to the requested miner with the job's options mapped in.
func (m *Manager) mine(ctx context.Context, j *Job) (*mfi.Result, error) {
	spec := j.Spec
	d := j.data
	tracer, closeTrace := m.jobTracer(j)
	defer closeTrace()
	if sel := resolveSelection(&spec, j.prof); sel != nil {
		j.mu.Lock()
		j.sel = sel
		j.mu.Unlock()
		m.met.engineSelected(sel.Miner)
		obsv.EmitSelection(tracer, obsv.SelectionEvent{
			Algorithm:    sel.Miner,
			Engine:       sel.Engine,
			Counter:      sel.Counter,
			Rationale:    sel.Rationale,
			Transactions: sel.Profile.Transactions,
			Universe:     sel.Profile.Universe,
			Density:      sel.Profile.Density,
			Skew:         sel.Profile.Skew,
		})
		m.logf("job %s: auto plan: miner=%s engine=%s counter=%s (%s)",
			j.ID, sel.Miner, sel.Engine, sel.Counter, sel.Rationale)
	}
	minCount := dataset.MinCountFor(d.Len(), spec.MinSupport)
	var sc dataset.Scanner = dataset.NewScanner(d)
	if m.cfg.WrapScanner != nil {
		sc = m.cfg.WrapScanner(j.ID, sc)
	}
	var ckpt checkpoint.Checkpointer
	if spec.checkpointable() {
		ckpt = &snapshotCheckpointer{
			inner: checkpoint.NewFileCheckpointer(m.sp.checkpointPath(j.ID)),
			job:   j,
		}
	}
	switch spec.Miner {
	case MinerPincer, MinerParallel:
		// The parallel miner is the pincer miner counting each pass over
		// Workers goroutines (0 = GOMAXPROCS); tid-list counting, when
		// asked for, takes the workers instead.
		opt := core.DefaultOptions()
		opt.Engine = spec.engine()
		opt.KeepFrequent = false
		opt.Tracer = tracer
		opt.Context = ctx
		opt.Deadline = spec.deadline()
		opt.MaxTotalPasses = spec.MaxPasses
		opt.MaxCandidatesPerPass = spec.MaxCandidatesPerPass
		opt.MaxMemoryBytes = spec.MaxMemoryBytes
		opt.Checkpointer = ckpt
		if spec.Miner == MinerParallel {
			opt.Algorithm = "pincer-parallel"
		}
		if tidlist, rep := spec.counter(); tidlist {
			opt.Counter = counting.NewTidListCounter(d, counting.TidListOptions{Workers: spec.Workers, Rep: rep})
		} else if spec.Miner == MinerParallel {
			opt.Counter = parallel.NewPassCounter(d, spec.Workers)
		}
		if spec.Cluster {
			coord, cerr := cluster.NewCoordinator(j.ID, d, m.cfg.Cluster, tracer)
			if cerr != nil {
				return nil, cerr
			}
			opt.Counter = coord
			// Record the distribution summary however the run ends — the
			// doc of a degraded or partial run is exactly what matters.
			defer func() {
				cdoc := coord.Doc()
				j.mu.Lock()
				j.clusterDoc = cdoc
				j.mu.Unlock()
			}()
		}
		if j.resume {
			return core.MineResume(sc, minCount, opt)
		}
		return core.MineCount(sc, minCount, opt)
	case MinerApriori:
		opt := apriori.DefaultOptions()
		opt.Engine = spec.engine()
		opt.KeepFrequent = false
		opt.Tracer = tracer
		opt.Context = ctx
		opt.Deadline = spec.deadline()
		opt.MaxCandidatesPerPass = spec.MaxCandidatesPerPass
		opt.Checkpointer = ckpt
		if j.resume {
			return apriori.MineResume(sc, minCount, opt)
		}
		return apriori.MineCount(sc, minCount, opt)
	case MinerTopdown:
		opt := topdown.DefaultOptions()
		opt.Tracer = tracer
		opt.Context = ctx
		opt.Deadline = spec.deadline()
		opt.MaxPasses = spec.MaxPasses
		tres, err := topdown.MineCount(sc, minCount, opt)
		if err != nil {
			return nil, err
		}
		if tres.Aborted {
			return nil, fmt.Errorf("topdown: frontier exceeded %d elements; this miner only suits concentrated data", opt.MaxElements)
		}
		return &tres.Result, nil
	case MinerVertical:
		// The vertical miner builds its index in a single pass and performs
		// no database scans after it, so it has no cancellation points; it
		// is also the fastest miner on anything small enough to invert.
		opt := vertical.DefaultOptions()
		opt.KeepFrequent = false
		vres := vertical.MineMaximal(d, spec.MinSupport, opt)
		return &vres.Result, nil
	case MinerFPMax:
		// Like the vertical miner, FP-max reads the database exactly twice
		// and then works purely in memory: no cancellation points and no
		// checkpoints.
		fres := fpmax.MineMaximalCount(d, minCount, fpmax.DefaultOptions())
		return &fres.Result, nil
	}
	return nil, fmt.Errorf("unknown miner %q", spec.Miner) // unreachable: normalize validated it
}

// terminalReasons are the PartialResultError reasons that genuinely end a
// job: a client cancel, an expired deadline, or a tripped budget. Any other
// abort reason reached the handler by unwinding a crash (the fault-
// injection harness kills runs exactly this way), and the job stays
// resumable instead.
var terminalReasons = map[string]bool{
	mfi.ReasonCancelled:     true,
	mfi.ReasonDeadline:      true,
	mfi.ReasonMaxPasses:     true,
	mfi.ReasonMaxCandidates: true,
	mfi.ReasonMemory:        true,
	mfi.ReasonCheckpoint:    true,
}

// finalize records a finished run: result document, terminal status, spool
// record, cache population, and metrics. Interrupted jobs (daemon abort or
// a crash-like unwind) are deliberately NOT finalized on disk — their spool
// entry and checkpoint are the restart contract.
func (m *Manager) finalize(j *Job, res *mfi.Result, err error) {
	j.mu.Lock()
	sel := j.sel
	cdoc := j.clusterDoc
	j.mu.Unlock()
	clearCheckpoint := func() {
		if j.Spec.checkpointable() {
			if cerr := checkpoint.NewFileCheckpointer(m.sp.checkpointPath(j.ID)).Clear(); cerr != nil {
				m.logf("job %s: clear checkpoint: %v", j.ID, cerr)
			}
		}
	}
	// record publishes the terminal status; each branch counts its outcome
	// first, so a client that sees the status also sees it counted.
	record := func(status string, doc *ResultDoc, errMsg string) {
		j.mu.Lock()
		j.status = status
		j.doc = doc
		j.err = errMsg
		j.finished = time.Now()
		j.mu.Unlock()
		if serr := m.sp.saveResult(j, status, errMsg, doc); serr != nil {
			m.logf("job %s: record result: %v", j.ID, serr)
		}
	}

	if err == nil {
		doc := buildDoc(j.ID, j.Spec, sel, res, nil)
		doc.Cluster = cdoc
		// Cache before announcing done: a client that sees done and
		// resubmits must hit the cache, not re-mine.
		m.mu.Lock()
		m.cache.put(j.Key, doc)
		m.met.cacheBytes.Set(m.cache.bytes)
		m.met.cacheEntries.Set(int64(m.cache.len()))
		m.met.cacheEvictions.Add(m.cache.evictions - m.lastEvictions)
		m.lastEvictions = m.cache.evictions
		m.mu.Unlock()
		m.met.jobsCompleted.Inc()
		record(StatusDone, doc, "")
		m.logf("job %s: done (%d maximal sets, %d passes)", j.ID, len(res.MFS), res.Stats.Passes)
		return
	}

	var pe *mfi.PartialResultError
	if errors.As(err, &pe) && pe.Result != nil {
		j.mu.Lock()
		asked := j.cancelAsked
		j.mu.Unlock()
		aborting := m.currentState() == stateAborting
		switch {
		case !terminalReasons[pe.Reason], aborting && !asked:
			// Crash-like unwind, or shutdown abort: keep the job resumable.
			j.setStatus(StatusInterrupted)
			m.logf("job %s: interrupted (%s) at pass %d; checkpoint retained for restart", j.ID, pe.Reason, pe.Pass)
		case asked:
			doc := buildDoc(j.ID, j.Spec, sel, pe.Result, pe)
			doc.Cluster = cdoc
			m.met.jobsCancelled.Inc()
			record(StatusCancelled, doc, "")
			clearCheckpoint()
			m.logf("job %s: cancelled at pass %d", j.ID, pe.Pass)
		default:
			doc := buildDoc(j.ID, j.Spec, sel, pe.Result, pe)
			doc.Cluster = cdoc
			m.met.jobsPartial.Inc()
			record(StatusPartial, doc, "")
			clearCheckpoint()
			m.logf("job %s: stopped early (%s) at pass %d", j.ID, pe.Reason, pe.Pass)
		}
		return
	}

	m.met.jobsFailed.Inc()
	record(StatusFailed, nil, err.Error())
	clearCheckpoint()
	m.logf("job %s: failed: %v", j.ID, err)
}

// closeQueue closes the run queue exactly once.
func (m *Manager) closeQueue() {
	m.mu.Lock()
	if !m.queueClosed {
		m.queueClosed = true
		close(m.queue)
	}
	m.mu.Unlock()
}

// Drain stops accepting new jobs, lets queued and running jobs finish, and
// waits for the pool (bounded by ctx) — the SIGTERM path.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.state == stateAccepting {
		m.state = stateDraining
	}
	m.mu.Unlock()
	m.closeQueue()
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		m.baseCancel()
		m.closeStreams()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// Abort cancels every running job (their pass-barrier checkpoints survive
// in the spool) and leaves queued jobs on disk for the next start — the
// SIGINT path. It waits for the pool to unwind, bounded by ctx.
func (m *Manager) Abort(ctx context.Context) error {
	m.mu.Lock()
	m.state = stateAborting
	m.mu.Unlock()
	m.baseCancel()
	m.closeQueue()
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		m.closeStreams()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: abort: %w", ctx.Err())
	}
}
