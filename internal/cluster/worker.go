package cluster

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pincer/internal/dataset"
)

// WorkerConfig tunes a Worker. The zero value is usable.
type WorkerConfig struct {
	// ID identifies the worker in ping replies and count responses
	// (default: derived from the first shard push; set it for real
	// deployments).
	ID string
	// MaxShards bounds the content-addressed shard store; beyond it the
	// least recently counted shard is evicted (the coordinator re-pushes
	// on unknown_shard). Default 128.
	MaxShards int
	// MaxBodyBytes caps a request body. Default 64 MiB.
	MaxBodyBytes int64
	// MemoSize bounds the idempotent-reply memo. Default 64.
	MemoSize int
	// Logf, when set, receives one line per shard load and error.
	Logf func(format string, args ...interface{})

	// The remaining fields are fault-injection seams for the node-loss
	// harness; production workers leave them nil.

	// Down, when set and returning true, fails every request with 503
	// reason "down" — an administratively killed node.
	Down func() bool
	// CountHook, when set, runs before each count — job passes and stream
	// delta counts alike; a non-nil error fails the request with 500
	// reason "injected" (a pass- or batch-barrier kill).
	CountHook func(req *CountRequest) error
	// TxHook, when set, runs once per scanned transaction; a non-nil
	// error aborts the scan and fails the request with 500 reason
	// "injected" (a mid-scan kill).
	TxHook func() error
}

// workerShard is one held shard: the parsed dataset wrapped in a scanner
// whose per-transaction bitsets are materialized once at load, so
// concurrent count requests over the same shard share read-only state.
type workerShard struct {
	id string
	sc *dataset.MemoryScanner
}

// Worker is the shard-holding counting node: an http.Handler serving the
// cluster wire protocol. Mount it on any mux or serve it directly
// (`pincerd -role worker`).
type Worker struct {
	cfg WorkerConfig

	mu         sync.Mutex
	shards     map[string]*workerShard
	shardOrder []string // least recently counted first
	memo       map[string]*CountResponse
	memoOrder  []string

	served atomic.Int64
}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.MaxShards <= 0 {
		cfg.MaxShards = 128
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.MemoSize <= 0 {
		cfg.MemoSize = 64
	}
	return &Worker{
		cfg:    cfg,
		shards: map[string]*workerShard{},
		memo:   map[string]*CountResponse{},
	}
}

func (w *Worker) logf(format string, args ...interface{}) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// ID returns the worker's identity.
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id()
}

func (w *Worker) id() string {
	if w.cfg.ID != "" {
		return w.cfg.ID
	}
	return "worker"
}

// ServeHTTP implements the cluster wire protocol.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if w.cfg.Down != nil && w.cfg.Down() {
		writeWireError(rw, wireErrf(http.StatusServiceUnavailable, ReasonDown, "worker is down"))
		return
	}
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/cluster/v1/ping":
		w.handlePing(rw)
	case r.Method == http.MethodPost && r.URL.Path == "/cluster/v1/shards":
		w.handleLoadShard(rw, r)
	case r.Method == http.MethodPost && r.URL.Path == "/cluster/v1/count":
		w.handleCount(rw, r)
	default:
		writeWireError(rw, wireErrf(http.StatusNotFound, ReasonBadRoute, "no route %s %s", r.Method, r.URL.Path))
	}
}

func (w *Worker) handlePing(rw http.ResponseWriter) {
	w.mu.Lock()
	shards := make([]string, 0, len(w.shards))
	for id := range w.shards {
		shards = append(shards, id)
	}
	id := w.id()
	w.mu.Unlock()
	sort.Strings(shards)
	writeWireJSON(rw, http.StatusOK, WorkerStatus{
		ID:           id,
		Shards:       shards,
		CountsServed: w.served.Load(),
	})
}

func (w *Worker) handleLoadShard(rw http.ResponseWriter, r *http.Request) {
	req, err := DecodeLoadShard(r.Body, w.cfg.MaxBodyBytes)
	if err != nil {
		writeWireError(rw, err)
		return
	}
	if sum := ShardID(req.NumItems, []byte(req.Baskets)); sum != req.ShardID {
		writeWireError(rw, wireErrf(http.StatusBadRequest, ReasonShardMismatch,
			"shard universe+bytes hash to %s, not the claimed %s", sum[:12], req.ShardID[:12]))
		return
	}

	w.mu.Lock()
	if sh, ok := w.shards[req.ShardID]; ok {
		w.mu.Unlock()
		writeWireJSON(rw, http.StatusOK, LoadShardResponse{ShardID: req.ShardID, Transactions: sh.sc.Len(), Cached: true})
		return
	}
	w.mu.Unlock()

	// Parse outside the lock; pushes of distinct shards proceed in parallel.
	d, perr := dataset.ReadBasket(strings.NewReader(req.Baskets))
	if perr != nil {
		writeWireError(rw, wireErrf(http.StatusBadRequest, ReasonBadMessage, "parse shard: %v", perr))
		return
	}
	if req.NumItems > 0 {
		if d.NumItems() > req.NumItems {
			writeWireError(rw, wireErrf(http.StatusBadRequest, ReasonBadMessage,
				"shard uses %d items but the declared universe is %d", d.NumItems(), req.NumItems))
			return
		}
		d.SetNumItems(req.NumItems)
	}
	sh := &workerShard{id: req.ShardID, sc: dataset.NewScanner(d)}

	w.mu.Lock()
	if _, ok := w.shards[req.ShardID]; !ok {
		w.shards[req.ShardID] = sh
		w.shardOrder = append(w.shardOrder, req.ShardID)
		for len(w.shards) > w.cfg.MaxShards {
			evict := w.shardOrder[0]
			w.shardOrder = w.shardOrder[1:]
			delete(w.shards, evict)
			w.logf("cluster worker: evicted shard %s", evict[:12])
		}
	}
	w.mu.Unlock()
	w.logf("cluster worker: loaded shard %s (%d tx, universe %d)", req.ShardID[:12], d.Len(), d.NumItems())
	writeWireJSON(rw, http.StatusOK, LoadShardResponse{ShardID: req.ShardID, Transactions: d.Len()})
}

func (w *Worker) handleCount(rw http.ResponseWriter, r *http.Request) {
	req, err := DecodeCount(r.Body, w.cfg.MaxBodyBytes)
	if err != nil {
		writeWireError(rw, err)
		return
	}

	key := memoKey(req)
	w.mu.Lock()
	if resp, ok := w.memo[key]; ok {
		id := w.id()
		w.mu.Unlock()
		// Duplicate delivery of a completed request: answer from the memo
		// and flag it so the coordinator can count the detection.
		dup := *resp
		dup.WorkerID = id
		dup.Memoized = true
		w.served.Add(1)
		writeWireJSON(rw, http.StatusOK, &dup)
		return
	}
	sh, ok := w.shards[req.ShardID]
	if ok {
		w.touchShard(req.ShardID)
	}
	id := w.id()
	w.mu.Unlock()
	if !ok {
		writeWireError(rw, wireErrf(http.StatusNotFound, ReasonUnknownShard, "shard %s not loaded", req.ShardID[:12]))
		return
	}
	if sh.sc.NumItems() != req.NumItems {
		writeWireError(rw, wireErrf(http.StatusBadRequest, ReasonBadMessage,
			"request universe %d does not match shard universe %d", req.NumItems, sh.sc.NumItems()))
		return
	}
	if w.cfg.CountHook != nil {
		if herr := w.cfg.CountHook(req); herr != nil {
			writeWireError(rw, wireErrf(http.StatusInternalServerError, ReasonInjected, "%v", herr))
			return
		}
	}

	resp, cerr := countShard(sh.sc, req, w.cfg.TxHook)
	if cerr != nil {
		writeWireError(rw, wireErrf(http.StatusInternalServerError, ReasonInjected, "%v", cerr))
		return
	}
	resp.WorkerID = id

	w.mu.Lock()
	if _, ok := w.memo[key]; !ok {
		w.memo[key] = resp
		w.memoOrder = append(w.memoOrder, key)
		for len(w.memo) > w.cfg.MemoSize {
			evict := w.memoOrder[0]
			w.memoOrder = w.memoOrder[1:]
			delete(w.memo, evict)
		}
	}
	w.mu.Unlock()
	w.served.Add(1)
	writeWireJSON(rw, http.StatusOK, resp)
}

// touchShard moves a shard to the recently-used end (caller holds mu).
func (w *Worker) touchShard(id string) {
	for i, s := range w.shardOrder {
		if s == id {
			copy(w.shardOrder[i:], w.shardOrder[i+1:])
			w.shardOrder[len(w.shardOrder)-1] = id
			return
		}
	}
}

// memoKey is the idempotency key of a count request: the pass stamp plus a
// digest of the full payload, so even a (buggy) payload change under a
// reused stamp cannot be answered with the wrong memo entry.
func memoKey(req *CountRequest) string {
	b, _ := json.Marshal(req) // struct marshal cannot fail
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%s|%d|%s|%s|%x", req.JobID, req.Pass, req.Kind, req.ShardID[:16], sum[:8])
}

func writeWireJSON(rw http.ResponseWriter, status int, v interface{}) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(v)
}

// writeWireError renders err as a typed ErrorDoc (non-wire errors become a
// 500 with reason "internal").
func writeWireError(rw http.ResponseWriter, err error) {
	we, ok := err.(*WireError)
	if !ok {
		we = wireErrf(http.StatusInternalServerError, "internal", "%v", err)
	}
	writeWireJSON(rw, we.Status, ErrorDoc{Error: we.Msg, Reason: we.Reason})
}
