package server

// The stream resource surfaces internal/incremental through the daemon:
//
//	POST   /v1/streams               open a live dataset (StreamRequest)
//	GET    /v1/streams               list streams, newest first
//	GET    /v1/streams/{id}          stream status + last delta
//	POST   /v1/streams/{id}/batches  append a transaction batch (BatchRequest)
//	GET    /v1/streams/{id}/mfs      the maintained MFS, delta-fresh (no mining)
//	DELETE /v1/streams/{id}          drop the stream and its spool files
//
// Durability follows the job spool's contract, adapted to a resource that
// never terminates. Each stream owns:
//
//	<id>.stream             the opening spec
//	<id>.b<seq>.batch       one journal entry per batch, written BEFORE apply
//	<id>.state              the maintainer snapshot, written AFTER apply
//	<id>.mine.ckpt          the re-mine pass-barrier checkpoint, paced
//	<id>.stream.trace.jsonl stream + mining trace events (append-only)
//
// The journal entry and the state snapshot are written and fsynced on
// every batch. The re-mine checkpoint is not: a re-mine offers a barrier at
// every pass, but the stream's checkpoint.PacedCheckpointer writes one only
// when the re-mine's last durable write, or its start, is at least
// checkpoint.DurableInterval (1 s) old, so a batch whose re-mine finishes
// inside the interval makes no checkpoint write at all. When an apply
// fails (cancel, DELETE, abort, a killed re-mine), the held barrier is
// flushed before the stream is marked interrupted, so the restart resumes
// the re-mine where it stopped. Only a process death loses re-mine work,
// at most one interval plus one pass; it loses no acknowledged batch.
//
// Because the batch journal is written before the maintainer moves and the
// state snapshot after, a daemon killed anywhere in between restarts into a
// consistent position: the snapshot restores the last committed state
// without counting anything, journaled batches past it replay through the
// normal Append path (resuming an interrupted re-mine at its pass-barrier
// checkpoint, which only the batch that wrote it may resume), and a batch
// is never folded in twice because its seq is already part of the
// snapshot. A POST whose apply fails mid-flight leaves the journal entry
// behind and marks the stream interrupted — further appends get 503 until
// a restart replays the journal.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pincer/internal/checkpoint"
	"pincer/internal/cluster"
	"pincer/internal/core"
	"pincer/internal/dataset"
	"pincer/internal/incremental"
	"pincer/internal/itemset"
	"pincer/internal/obsv"
)

// Stream-specific reasons, extending the Reason* vocabulary in server.go.
const (
	ReasonBadWindow = "bad_window" // negative sliding-window size
	ReasonBadBatch  = "bad_batch"  // unparsable or empty batch
	ReasonBadSeq    = "bad_seq"    // batch sequence number out of order
	// ReasonStreamInterrupted answers appends to a stream whose journal and
	// state diverged (a batch apply failed mid-flight); a daemon restart
	// replays the journal and clears the condition.
	ReasonStreamInterrupted = "stream_interrupted"
)

// errStreamInterrupted is the sentinel behind ReasonStreamInterrupted.
var errStreamInterrupted = errors.New("server: stream interrupted; restart the daemon to replay its journal")

// StreamRequest is the body of POST /v1/streams.
type StreamRequest struct {
	// MinSupport is the maintained threshold, a fraction of the CURRENT
	// window length (the absolute count moves as transactions arrive).
	MinSupport float64 `json:"min_support"`
	// Window keeps only the most recent Window transactions live; 0 keeps
	// everything (append-only stream).
	Window int `json:"window,omitempty"`
	// Counter picks the delta-counting strategy: "scan" (default) or
	// "tidlist".
	Counter string `json:"counter,omitempty"`
	// Workers parallelizes re-mines (1 = sequential).
	Workers int `json:"workers,omitempty"`
	// Cluster pins the stream to the daemon's worker cluster: delta
	// verification and re-mine passes fan out over the pool (requires a
	// coordinator-role daemon). Results are byte-identical to local
	// counting.
	Cluster bool `json:"cluster,omitempty"`
}

// normalize validates the spec, tagging rejections with field reasons.
func (r *StreamRequest) normalize() error {
	if r.MinSupport <= 0 || r.MinSupport > 1 {
		return invalidf(ReasonBadSupport, "min_support must be in (0, 1], got %g", r.MinSupport)
	}
	if r.Window < 0 {
		return invalidf(ReasonBadWindow, "window must be >= 0, got %d", r.Window)
	}
	switch r.Counter {
	case "", incremental.CounterScan, incremental.CounterTidList:
	default:
		return invalidf(ReasonBadCounter, "unknown counter %q (want %q or %q)",
			r.Counter, incremental.CounterScan, incremental.CounterTidList)
	}
	if r.Workers < 0 {
		return invalidf(ReasonBadWorkers, "workers must be >= 0, got %d", r.Workers)
	}
	if r.Workers == 0 {
		r.Workers = 1
	}
	return nil
}

// BatchRequest is the body of POST /v1/streams/{id}/batches.
type BatchRequest struct {
	// Baskets holds the batch in the whitespace basket text format, one
	// transaction per line.
	Baskets string `json:"baskets"`
	// Seq optionally asserts the batch's position (1-based). 0 auto-assigns
	// the next slot; an already-applied seq is acknowledged as a duplicate
	// without re-applying (safe client retries); a future seq is rejected.
	Seq int64 `json:"seq,omitempty"`
}

// maxStreamItem caps the item universe a batch may declare. The maintainer
// sizes singleton structures by the largest item id ever seen, so one
// adversarial line ("999999999") would otherwise commit the daemon to a
// billion-item universe.
const maxStreamItem = 1 << 20

// parseBatchBaskets decodes the basket text into transactions.
func parseBatchBaskets(baskets string) ([]dataset.Transaction, error) {
	d, err := dataset.ReadBasket(bytes.NewReader([]byte(baskets)))
	if err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, errors.New("batch has no transactions")
	}
	if d.NumItems() > maxStreamItem {
		return nil, fmt.Errorf("batch item ids reach %d; streams cap the universe at %d", d.NumItems()-1, maxStreamItem)
	}
	return d.Transactions(), nil
}

// StreamDeltaDoc is the wire form of one applied batch (incremental.Delta).
type StreamDeltaDoc struct {
	Seq          int64   `json:"seq"`
	Appended     int     `json:"appended"`
	Evicted      int     `json:"evicted,omitempty"`
	Transactions int     `json:"transactions"`
	MinCount     int64   `json:"min_count"`
	Remined      bool    `json:"remined"`
	Reason       string  `json:"reason,omitempty"`
	Checked      int     `json:"checked,omitempty"`
	Duplicate    bool    `json:"duplicate,omitempty"`
	VerifyMillis float64 `json:"verify_ms"`
	MineMillis   float64 `json:"mine_ms,omitempty"`
	// Cluster summarizes the batch's distributed counting (clustered
	// streams only): shard/RPC accounting, failovers, and any quorum
	// degradation, plus the distribution of a triggered re-mine.
	Cluster *cluster.StreamDoc `json:"cluster,omitempty"`
}

func streamDeltaDoc(d incremental.Delta) *StreamDeltaDoc {
	return &StreamDeltaDoc{
		Seq:          d.Seq,
		Appended:     d.Appended,
		Evicted:      d.Evicted,
		Transactions: d.Transactions,
		MinCount:     d.MinCount,
		Remined:      d.Remined,
		Reason:       d.Reason,
		Checked:      d.Checked,
		VerifyMillis: float64(d.VerifyDuration) / float64(time.Millisecond),
		MineMillis:   float64(d.MineDuration) / float64(time.Millisecond),
	}
}

// StreamView is the status body of a stream.
type StreamView struct {
	ID           string          `json:"id"`
	MinSupport   float64         `json:"min_support"`
	Window       int             `json:"window,omitempty"`
	Counter      string          `json:"counter,omitempty"`
	Workers      int             `json:"workers,omitempty"`
	Cluster      bool            `json:"cluster,omitempty"`
	Seq          int64           `json:"seq"`
	Transactions int             `json:"transactions"`
	NumItems     int             `json:"num_items"`
	MinCount     int64           `json:"min_count"`
	MFSSize      int             `json:"mfs_size"`
	BorderSize   int             `json:"border_size"`
	Batches      int64           `json:"batches"`
	FastPath     int64           `json:"fast_path"`
	Remines      int64           `json:"remines"`
	Interrupted  bool            `json:"interrupted,omitempty"`
	Error        string          `json:"error,omitempty"`
	Resumed      bool            `json:"resumed,omitempty"`
	CreatedAt    string          `json:"created_at"`
	LastDelta    *StreamDeltaDoc `json:"last_delta,omitempty"`
}

// StreamMFSDoc is the body of GET /v1/streams/{id}/mfs: the live maintained
// answer, read straight out of the maintainer — never a re-mine.
type StreamMFSDoc struct {
	ID           string       `json:"id"`
	Seq          int64        `json:"seq"`
	Transactions int          `json:"transactions"`
	MinSupport   float64      `json:"min_support"`
	MinCount     int64        `json:"min_count"`
	MFS          []ItemsetDoc `json:"maximal_frequent_itemsets"`
	BorderSize   int          `json:"border_size"`
	Border       []ItemsetDoc `json:"negative_border,omitempty"`
}

// Stream is one live dataset under incremental maintenance. The maintainer
// is single-threaded by design; mu serializes batch applies and reads.
type Stream struct {
	ID      string
	Spec    StreamRequest
	created time.Time
	resumed bool

	mu          sync.Mutex
	mt          *incremental.Maintainer
	ckpt        *checkpoint.PacedCheckpointer // the maintainer's re-mine checkpointer
	lastDelta   *StreamDeltaDoc
	interrupted bool
	errMsg      string
	tracer      obsv.Tracer
	trace       *os.File

	// sc fans delta counting out over the worker cluster (clustered
	// streams only); mineCoords collects the per-re-mine coordinators of
	// the current batch, drained into the delta doc after each apply. Both
	// are touched only on the apply path, which mu (or startup recovery's
	// single thread) serializes.
	sc         *cluster.StreamCoordinator
	mineCoords []*cluster.Coordinator

	// cancel ends the stream's context, a child of the daemon's.
	cancel context.CancelFunc
}

// view renders the stream's status.
func (st *Stream) view() StreamView {
	st.mu.Lock()
	defer st.mu.Unlock()
	stats := st.mt.Stats()
	return StreamView{
		ID:           st.ID,
		MinSupport:   st.Spec.MinSupport,
		Window:       st.Spec.Window,
		Counter:      st.Spec.Counter,
		Workers:      st.Spec.Workers,
		Cluster:      st.Spec.Cluster,
		Seq:          st.mt.Seq(),
		Transactions: st.mt.Len(),
		NumItems:     st.mt.NumItems(),
		MinCount:     st.mt.MinCount(),
		MFSSize:      len(st.mt.MFS()),
		BorderSize:   len(st.mt.Border()),
		Batches:      stats.Batches,
		FastPath:     stats.FastPath,
		Remines:      stats.Remines,
		Interrupted:  st.interrupted,
		Error:        st.errMsg,
		Resumed:      st.resumed,
		CreatedAt:    st.created.UTC().Format(time.RFC3339),
		LastDelta:    st.lastDelta,
	}
}

// mfsDoc renders the maintained answer; withBorder includes the negative
// border sets themselves (they can dwarf the MFS, so they are opt-in).
func (st *Stream) mfsDoc(withBorder bool) StreamMFSDoc {
	st.mu.Lock()
	defer st.mu.Unlock()
	doc := StreamMFSDoc{
		ID:           st.ID,
		Seq:          st.mt.Seq(),
		Transactions: st.mt.Len(),
		MinSupport:   st.Spec.MinSupport,
		MinCount:     st.mt.MinCount(),
		MFS:          make([]ItemsetDoc, 0, len(st.mt.MFS())),
		BorderSize:   len(st.mt.Border()),
	}
	for i, m := range st.mt.MFS() {
		doc.MFS = append(doc.MFS, itemsetDoc(m, st.mt.MFSSupports()[i]))
	}
	if withBorder {
		doc.Border = make([]ItemsetDoc, 0, len(st.mt.Border()))
		for i, b := range st.mt.Border() {
			doc.Border = append(doc.Border, itemsetDoc(b, st.mt.BorderSupports()[i]))
		}
	}
	return doc
}

// streamEvent maps an applied delta to the trace vocabulary; cdoc (nil on
// local streams) adds the batch's cluster distribution summary.
func streamEvent(id string, d incremental.Delta, cdoc *cluster.StreamDoc) obsv.StreamEvent {
	ev := obsv.StreamEvent{
		Stream:       id,
		Seq:          d.Seq,
		Appended:     d.Appended,
		Evicted:      d.Evicted,
		Transactions: d.Transactions,
		Checked:      d.Checked,
		Remined:      d.Remined,
		Reason:       d.Reason,
		VerifyMillis: float64(d.VerifyDuration) / float64(time.Millisecond),
		MineMillis:   float64(d.MineDuration) / float64(time.Millisecond),
	}
	if cdoc != nil {
		ev.Cluster = true
		ev.ClusterWorkers = cdoc.Workers
		ev.ClusterRPCs = cdoc.RPCs
		ev.ClusterFailovers = cdoc.Failovers
		ev.ClusterDegraded = cdoc.Degraded
		for _, md := range cdoc.Mine {
			ev.ClusterRPCs += md.RPCs
		}
	}
	return ev
}

// ---- spool layout ----

// streamFile is the persisted opening spec.
type streamFile struct {
	ID   string        `json:"id"`
	Spec StreamRequest `json:"spec"`
}

// batchFile is one journal entry, written before its batch is applied.
type batchFile struct {
	ID      string `json:"id"`
	Seq     int64  `json:"seq"`
	Baskets string `json:"baskets"`
}

func (s spool) streamPath(id string) string      { return filepath.Join(s.dir, id+".stream") }
func (s spool) streamStatePath(id string) string { return filepath.Join(s.dir, id+".state") }
func (s spool) streamCheckpointPath(id string) string {
	return filepath.Join(s.dir, id+".mine.ckpt")
}
func (s spool) streamTracePath(id string) string {
	return filepath.Join(s.dir, id+".stream.trace.jsonl")
}
func (s spool) streamBatchPath(id string, seq int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.b%08d.batch", id, seq))
}

// scanStreams enumerates persisted streams and their batch journals, IDs
// sorted and batches ordered by seq. Foreign and corrupt files are skipped,
// never fatal — same contract as the job scan.
func (s spool) scanStreams() (streams []streamFile, batches map[string][]batchFile, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("server: scan spool: %w", err)
	}
	batches = map[string][]batchFile{}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".stream"):
			data, rerr := os.ReadFile(filepath.Join(s.dir, name))
			if rerr != nil {
				return nil, nil, fmt.Errorf("server: scan spool: %w", rerr)
			}
			var sf streamFile
			if jerr := json.Unmarshal(data, &sf); jerr != nil || sf.ID == "" {
				continue
			}
			streams = append(streams, sf)
		case strings.HasSuffix(name, ".batch"):
			data, rerr := os.ReadFile(filepath.Join(s.dir, name))
			if rerr != nil {
				return nil, nil, fmt.Errorf("server: scan spool: %w", rerr)
			}
			var bf batchFile
			if jerr := json.Unmarshal(data, &bf); jerr != nil || bf.ID == "" || bf.Seq <= 0 {
				continue
			}
			batches[bf.ID] = append(batches[bf.ID], bf)
		}
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i].ID < streams[j].ID })
	for _, bs := range batches {
		sort.Slice(bs, func(i, j int) bool { return bs[i].Seq < bs[j].Seq })
	}
	return streams, batches, nil
}

// dropStream removes every spool file a stream owns.
func (s spool) dropStream(id string) {
	os.Remove(s.streamPath(id))
	os.Remove(s.streamStatePath(id))
	os.Remove(s.streamCheckpointPath(id))
	os.Remove(s.streamTracePath(id))
	if matches, err := filepath.Glob(filepath.Join(s.dir, id+".b*.batch")); err == nil {
		for _, m := range matches {
			os.Remove(m)
		}
	}
}

// ---- manager integration ----

// nextStreamID mirrors nextID with the stream prefix.
func (m *Manager) nextStreamID() string {
	m.mu.Lock()
	m.seq++
	seq := m.seq
	m.mu.Unlock()
	return fmt.Sprintf("s%016x-%04d", time.Now().UnixNano(), seq)
}

// newStream wires a maintainer to the daemon's seams: the shared metrics
// tracer plus a per-stream JSONL trace, a per-stream child of the base
// context, the paced re-mine checkpoint file, and the fault-injection
// scanner hook.
func (m *Manager) newStream(id string, spec StreamRequest, resumed bool) (*Stream, error) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	st := &Stream{ID: id, Spec: spec, created: time.Now(), resumed: resumed, tracer: m.tracer, cancel: cancel,
		ckpt: checkpoint.NewPacedCheckpointer(m.sp.streamCheckpointPath(id))}
	if f, err := os.OpenFile(m.sp.streamTracePath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
		st.trace = f
		st.tracer = obsv.Multi(m.tracer, obsv.NewJSONTracer(f))
	} else {
		m.logf("stream %s: trace file: %v", id, err)
	}
	opt := incremental.Options{
		MinSupport:       spec.MinSupport,
		Window:           spec.Window,
		Counter:          spec.Counter,
		Workers:          spec.Workers,
		Tracer:           st.tracer,
		Context:          ctx,
		MineCheckpointer: st.ckpt,
	}
	if m.cfg.WrapScanner != nil {
		opt.WrapScanner = func(sc dataset.Scanner) dataset.Scanner {
			return m.cfg.WrapScanner(id, sc)
		}
	}
	if spec.Cluster {
		if m.cfg.Cluster != nil {
			st.sc = cluster.NewStreamCoordinator(id, m.cfg.Cluster, st.tracer)
			st.sc.BindContext(ctx, 0)
			opt.DeltaCounter = func(seq int64, side string, d *dataset.Dataset, sets []itemset.Itemset) []int64 {
				return st.sc.CountSets(seq, side, d, sets)
			}
			opt.MineCounter = func(seq int64, d *dataset.Dataset) core.PassCounter {
				coord, cerr := cluster.NewCoordinator(fmt.Sprintf("%s.b%d", id, seq), d, m.cfg.Cluster, st.tracer)
				if cerr != nil {
					m.logf("stream %s: batch %d re-mine coordinator: %v; mining locally", id, seq, cerr)
					return nil
				}
				st.mineCoords = append(st.mineCoords, coord)
				return coord
			}
		} else {
			// A clustered stream resumed on a daemon started without peers:
			// keep the stream alive with local counting (byte-identical)
			// rather than refusing to replay its journal.
			m.logf("stream %s: spec wants a cluster but this daemon has none; counting locally", id)
		}
	}
	mt, err := incremental.New(opt)
	if err != nil {
		cancel()
		if st.trace != nil {
			st.trace.Close()
		}
		return nil, err
	}
	st.mt = mt
	return st, nil
}

// CreateStream validates, persists, and registers a new stream.
func (m *Manager) CreateStream(spec StreamRequest) (*Stream, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	if spec.Cluster && m.cfg.Cluster == nil {
		return nil, invalidf(ReasonBadCluster, "this daemon has no worker cluster (start with -role coordinator -peers ...)")
	}
	if m.currentState() != stateAccepting {
		return nil, ErrShuttingDown
	}
	id := m.nextStreamID()
	if err := m.sp.writeAtomic(m.sp.streamPath(id), streamFile{ID: id, Spec: spec}); err != nil {
		return nil, err
	}
	st, err := m.newStream(id, spec, false)
	if err != nil {
		m.sp.dropStream(id)
		return nil, err
	}
	m.mu.Lock()
	if m.state != stateAccepting {
		m.mu.Unlock()
		st.cancel()
		if st.trace != nil {
			st.trace.Close()
		}
		m.sp.dropStream(id)
		return nil, ErrShuttingDown
	}
	m.streams[id] = st
	active := len(m.streams)
	m.mu.Unlock()
	m.met.streamsCreated.Inc()
	m.met.streamsActive.Set(int64(active))
	m.logf("stream %s: opened (minsup %g, window %d, %s)", id, spec.MinSupport, spec.Window, spec.Counter)
	return st, nil
}

// Stream returns the stream by id.
func (m *Manager) Stream(id string) (*Stream, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.streams[id]
	return st, ok
}

// StreamViews lists every stream, newest first.
func (m *Manager) StreamViews() []StreamView {
	m.mu.Lock()
	streams := make([]*Stream, 0, len(m.streams))
	for _, st := range m.streams {
		streams = append(streams, st)
	}
	m.mu.Unlock()
	sort.Slice(streams, func(i, j int) bool { return streams[i].ID > streams[j].ID })
	views := make([]StreamView, len(streams))
	for i, st := range streams {
		views[i] = st.view()
	}
	return views
}

// DeleteStream unregisters a stream and removes its spool files. It
// cancels the stream's context before taking mu, so a batch stuck on a hung
// worker finishes its delta counts locally (and aborts any re-mine)
// instead of holding mu for an RPC timeout.
func (m *Manager) DeleteStream(id string) bool {
	m.mu.Lock()
	st, ok := m.streams[id]
	if ok {
		delete(m.streams, id)
	}
	active := len(m.streams)
	m.mu.Unlock()
	if !ok {
		return false
	}
	st.cancel()
	st.mu.Lock()
	if st.trace != nil {
		st.trace.Close()
		st.trace = nil
	}
	st.mu.Unlock()
	m.sp.dropStream(id)
	m.met.streamsActive.Set(int64(active))
	m.logf("stream %s: deleted", id)
	return true
}

// AppendBatch journals and applies one batch: journal entry first, then the
// maintainer's Append, then the state snapshot. A failed apply leaves the
// journal entry in place and marks the stream interrupted — the restart
// replay is the only path that reconciles it.
func (m *Manager) AppendBatch(st *Stream, req BatchRequest) (*StreamDeltaDoc, error) {
	if req.Seq < 0 {
		return nil, invalidf(ReasonBadSeq, "seq must be >= 0, got %d", req.Seq)
	}
	txs, err := parseBatchBaskets(req.Baskets)
	if err != nil {
		return nil, invalidf(ReasonBadBatch, "bad batch: %v", err)
	}
	if m.currentState() != stateAccepting {
		return nil, ErrShuttingDown
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.interrupted {
		return nil, errStreamInterrupted
	}
	applied := st.mt.Seq()
	if req.Seq != 0 && req.Seq <= applied {
		// Client retry of a batch already folded in: acknowledge, don't
		// re-apply (the journal has it; the snapshot includes it).
		return &StreamDeltaDoc{
			Seq:          req.Seq,
			Transactions: st.mt.Len(),
			MinCount:     st.mt.MinCount(),
			Duplicate:    true,
		}, nil
	}
	seq := applied + 1
	if req.Seq != 0 && req.Seq != seq {
		return nil, invalidf(ReasonBadSeq, "seq %d out of order (next is %d)", req.Seq, seq)
	}
	if err := m.sp.writeAtomic(m.sp.streamBatchPath(st.ID, seq), batchFile{ID: st.ID, Seq: seq, Baskets: req.Baskets}); err != nil {
		return nil, err
	}
	delta, err := st.mt.Append(txs)
	if err != nil {
		// The journal entry stays: the restart replay applies exactly this
		// batch once, resuming any interrupted re-mine at its checkpoint.
		// The flush runs under st.mu, which DeleteStream takes before it
		// removes the stream's files, so a batch in flight when its stream
		// is deleted writes its checkpoint before the files go.
		m.flushRemine(st)
		st.interrupted = true
		st.errMsg = err.Error()
		m.met.streamsInterrupted.Inc()
		m.logf("stream %s: batch %d interrupted: %v", st.ID, seq, err)
		return nil, fmt.Errorf("%w (batch %d: %v)", errStreamInterrupted, seq, err)
	}
	m.saveStreamState(st)
	cdoc := m.takeStreamClusterDoc(st)
	doc := streamDeltaDoc(delta)
	doc.Cluster = cdoc
	st.lastDelta = doc
	m.met.streamBatches.Inc()
	m.met.streamChecked.Add(int64(delta.Checked))
	if delta.Remined {
		m.met.streamRemines.Inc()
		m.met.streamMineSeconds.Observe(delta.MineDuration)
	} else {
		m.met.streamFastPath.Inc()
	}
	if delta.Seq > 1 {
		m.met.streamVerifySeconds.Observe(delta.VerifyDuration)
	}
	obsv.EmitStream(st.tracer, streamEvent(st.ID, delta, cdoc))
	m.logf("stream %s: batch %d applied (+%d/-%d tx, %s, %d mfs)",
		st.ID, seq, delta.Appended, delta.Evicted, delta.Reason, len(st.mt.MFS()))
	return doc, nil
}

// flushRemine writes the held barrier of a re-mine that just failed, so the
// restart resumes it instead of mining from pass 1. Caller holds st.mu or
// is the single-threaded recovery path. A failed write is logged: it costs
// the restart only re-mining work.
func (m *Manager) flushRemine(st *Stream) {
	if err := st.ckpt.Flush(); err != nil {
		m.logf("stream %s: flush re-mine checkpoint: %v", st.ID, err)
	}
}

// saveStreamState persists the maintainer snapshot (caller holds st.mu). A
// write failure is logged, not fatal: the journal replay reconstructs any
// state a lost snapshot described.
func (m *Manager) saveStreamState(st *Stream) {
	raw, err := incremental.EncodeState(st.mt.Snapshot())
	if err == nil {
		err = m.sp.writeAtomicBytes(m.sp.streamStatePath(st.ID), raw)
	}
	if err != nil {
		m.logf("stream %s: save state: %v", st.ID, err)
	}
}

// takeStreamClusterDoc drains the per-batch cluster accounting (delta-count
// fan-out plus any re-mine coordinator docs) for a clustered stream and folds
// it into the metrics set. Returns nil for local streams. Caller holds st.mu
// (or is the single-threaded recovery path), which also serializes
// st.mineCoords: the MineCounter closure appends on the Append caller
// goroutine because core mining is synchronous.
func (m *Manager) takeStreamClusterDoc(st *Stream) *cluster.StreamDoc {
	if st.sc == nil {
		return nil
	}
	cdoc := st.sc.TakeDoc()
	for _, coord := range st.mineCoords {
		cdoc.Mine = append(cdoc.Mine, coord.Doc())
	}
	st.mineCoords = nil
	m.met.streamCluster(cdoc)
	return cdoc
}

// recoverStreams rebuilds every persisted stream at daemon start: restore
// the state snapshot when it is intact (no counting — the window rematerializes
// from the journal), fall back to replaying the whole journal when it is
// not, then push any journaled batches past the snapshot through the normal
// Append path. An interrupted re-mine resumes at its pass-barrier
// checkpoint inside that replay.
func (m *Manager) recoverStreams() error {
	streams, batches, err := m.sp.scanStreams()
	if err != nil {
		return err
	}
	for _, sf := range streams {
		st, err := m.newStream(sf.ID, sf.Spec, true)
		if err != nil {
			m.logf("stream %s: recover: %v", sf.ID, err)
			continue
		}
		bs := batches[sf.ID]
		if raw, rerr := os.ReadFile(m.sp.streamStatePath(sf.ID)); rerr == nil {
			if snap, derr := incremental.DecodeState(raw); derr == nil {
				if window, ok := rebuildWindow(bs, snap.AppliedSeq, sf.Spec.Window); ok {
					if resterr := st.mt.Restore(snap, window); resterr != nil {
						m.logf("stream %s: restore snapshot: %v; replaying journal", sf.ID, resterr)
					}
				} else {
					m.logf("stream %s: journal does not cover snapshot seq %d; replaying journal", sf.ID, snap.AppliedSeq)
				}
			} else {
				m.logf("stream %s: state snapshot unusable (%v); replaying journal", sf.ID, derr)
			}
		}
		replayed := 0
		for _, b := range bs {
			if b.Seq <= st.mt.Seq() {
				continue
			}
			if b.Seq != st.mt.Seq()+1 {
				st.interrupted = true
				st.errMsg = fmt.Sprintf("batch journal gap: state at seq %d, next batch file is %d", st.mt.Seq(), b.Seq)
				break
			}
			txs, perr := parseBatchBaskets(b.Baskets)
			if perr != nil {
				st.interrupted = true
				st.errMsg = fmt.Sprintf("batch %d unreadable: %v", b.Seq, perr)
				break
			}
			delta, aerr := st.mt.Append(txs)
			if aerr != nil {
				m.flushRemine(st)
				st.interrupted = true
				st.errMsg = fmt.Sprintf("replay batch %d: %v", b.Seq, aerr)
				break
			}
			cdoc := m.takeStreamClusterDoc(st)
			st.lastDelta = streamDeltaDoc(delta)
			st.lastDelta.Cluster = cdoc
			obsv.EmitStream(st.tracer, streamEvent(st.ID, delta, cdoc))
			replayed++
		}
		if replayed > 0 {
			st.mu.Lock()
			m.saveStreamState(st)
			st.mu.Unlock()
			m.met.streamBatchesReplayed.Add(int64(replayed))
		}
		m.mu.Lock()
		m.streams[sf.ID] = st
		active := len(m.streams)
		m.mu.Unlock()
		m.met.streamsResumed.Inc()
		m.met.streamsActive.Set(int64(active))
		if st.interrupted {
			m.logf("stream %s: resume stopped at seq %d: %s", sf.ID, st.mt.Seq(), st.errMsg)
		} else {
			m.logf("stream %s: resumed at seq %d (%d batches replayed)", sf.ID, st.mt.Seq(), replayed)
		}
	}
	return nil
}

// rebuildWindow rematerializes the live window a snapshot describes by
// concatenating journaled batches 1..appliedSeq and keeping the most recent
// `window` transactions — the same front-eviction arithmetic the maintainer
// applies per batch, so the result is byte-identical to the window it held
// when the snapshot was written. ok is false when the journal has a hole.
func rebuildWindow(bs []batchFile, appliedSeq int64, window int) ([]dataset.Transaction, bool) {
	var txs []dataset.Transaction
	next := int64(1)
	for _, b := range bs {
		if b.Seq > appliedSeq {
			break
		}
		if b.Seq != next {
			return nil, false
		}
		next++
		batch, err := parseBatchBaskets(b.Baskets)
		if err != nil {
			return nil, false
		}
		txs = append(txs, batch...)
		if window > 0 && len(txs) > window {
			txs = txs[len(txs)-window:]
		}
	}
	if next != appliedSeq+1 {
		return nil, false
	}
	return txs, true
}

// closeStreams releases per-stream trace files at shutdown.
func (m *Manager) closeStreams() {
	m.mu.Lock()
	streams := make([]*Stream, 0, len(m.streams))
	for _, st := range m.streams {
		streams = append(streams, st)
	}
	m.mu.Unlock()
	for _, st := range streams {
		st.mu.Lock()
		if st.trace != nil {
			st.trace.Close()
			st.trace = nil
		}
		st.mu.Unlock()
	}
}

// ---- HTTP handlers ----

// handleStreamCreate implements POST /v1/streams.
func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	var spec StreamRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, ReasonBodyTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, ReasonBadJSON, "bad request body: %v", err)
		return
	}
	st, err := s.man.CreateStream(spec)
	switch {
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, ReasonShuttingDown, "%v", err)
		return
	case err != nil:
		reason := ReasonInvalid
		var ve *ValidationError
		if errors.As(err, &ve) {
			reason = ve.Reason
		}
		writeError(w, http.StatusBadRequest, reason, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, st.view())
}

// handleStreamList implements GET /v1/streams.
func (s *Server) handleStreamList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"streams": s.man.StreamViews()})
}

// handleStreamStatus implements GET /v1/streams/{id}.
func (s *Server) handleStreamStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.man.Stream(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ReasonNotFound, "no such stream")
		return
	}
	writeJSON(w, http.StatusOK, st.view())
}

// handleStreamBatch implements POST /v1/streams/{id}/batches.
func (s *Server) handleStreamBatch(w http.ResponseWriter, r *http.Request) {
	st, ok := s.man.Stream(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ReasonNotFound, "no such stream")
		return
	}
	var req BatchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, ReasonBodyTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, ReasonBadJSON, "bad request body: %v", err)
		return
	}
	doc, err := s.man.AppendBatch(st, req)
	switch {
	case errors.Is(err, errStreamInterrupted):
		writeError(w, http.StatusServiceUnavailable, ReasonStreamInterrupted, "%v", err)
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, ReasonShuttingDown, "%v", err)
		return
	case err != nil:
		var ve *ValidationError
		if errors.As(err, &ve) {
			writeError(w, http.StatusBadRequest, ve.Reason, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, ReasonStreamInterrupted, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleStreamMFS implements GET /v1/streams/{id}/mfs. Pass ?border=1 to
// include the negative border sets.
func (s *Server) handleStreamMFS(w http.ResponseWriter, r *http.Request) {
	st, ok := s.man.Stream(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ReasonNotFound, "no such stream")
		return
	}
	withBorder := r.URL.Query().Get("border") != ""
	writeJSON(w, http.StatusOK, st.mfsDoc(withBorder))
}

// handleStreamDelete implements DELETE /v1/streams/{id}.
func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.man.DeleteStream(id) {
		writeError(w, http.StatusNotFound, ReasonNotFound, "no such stream")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
