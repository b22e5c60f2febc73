// Package server is the mining service daemon behind cmd/pincerd: an
// HTTP/JSON API (stdlib net/http only) that fronts every miner in the
// repository — Pincer-Search, Apriori, top-down, vertical/Eclat, and the
// count-distribution parallel miner — with an async job manager, a
// content-addressed result cache, and checkpoint-backed durability.
//
// # API
//
//	POST   /v1/jobs          submit a mining job (JobRequest); 202 queued,
//	                         200 when served from the result cache,
//	                         429 when the bounded queue is full
//	GET    /v1/jobs          list jobs, newest first
//	GET    /v1/jobs/{id}     status + anytime partial progress while running
//	DELETE /v1/jobs/{id}     cancel via the mining context seam
//	GET    /v1/results/{id}  the full result document of a finished job
//	GET    /healthz          liveness
//	/metrics, /debug/vars, /debug/pprof/   the obsv debug endpoints
//
// # Durability
//
// Every non-cached job is persisted to the spool directory before it is
// queued, checkpointable miners (pincer, apriori, parallel) write their
// pass-barrier state next to it, and a restarted daemon re-enqueues every
// job that never reached a terminal record — resuming checkpointed runs at
// the exact pass barrier they last completed. The result cache is keyed by
// (dataset SHA-256, minsup, miner, options), so resubmitting a finished
// query never re-mines, even if the basket file was renamed.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pincer/internal/cluster"
	"pincer/internal/dataset"
	"pincer/internal/obsv"
)

// Config configures the daemon.
type Config struct {
	// SpoolDir is the durability root: job specs, checkpoints, traces, and
	// terminal records live here, and a restart resumes from it. Required.
	SpoolDir string
	// Workers is the mining worker pool size (default 2). Each worker runs
	// one job at a time; parallel jobs additionally fan out their own
	// counting goroutines.
	Workers int
	// QueueSize bounds the run queue; a full queue rejects submissions
	// with 429 instead of buffering unboundedly (default 16).
	QueueSize int
	// CacheMaxBytes bounds the result cache (default 64 MiB; ≤ -1
	// disables caching, 0 means the default).
	CacheMaxBytes int64
	// DatasetCacheBytes bounds the parsed-dataset cache, which memoizes
	// each distinct database's parsed form and shape profile so repeat
	// submissions (same bytes, different options) skip the parse and the
	// profiling pass (default 64 MiB of raw encoding; ≤ -1 disables, 0
	// means the default).
	DatasetCacheBytes int64
	// Registry receives the daemon's metrics; a fresh registry is created
	// when nil.
	Registry *obsv.Registry
	// MaxBodyBytes caps every request body via http.MaxBytesReader; an
	// over-long POST /v1/jobs body is answered with 413 instead of being
	// buffered whole (default 8 MiB; ≤ -1 disables the cap, 0 means the
	// default).
	MaxBodyBytes int64
	// MaxInflightPerRemote caps concurrent in-flight requests per remote
	// host; excess requests are answered 429 before touching a handler
	// (0 = unlimited).
	MaxInflightPerRemote int
	// Cluster, when set, is the worker pool cluster jobs (JobRequest.Cluster)
	// distribute their support counting over; nil rejects such jobs. The
	// caller owns the pool's lifecycle (Start/Close) — pincerd builds it
	// from -peers in the coordinator role.
	Cluster *cluster.Pool
	// Logf, when set, receives one line per lifecycle event (job started,
	// finished, resumed, ...). Nil silences logging.
	Logf func(format string, args ...interface{})
	// WrapScanner, when set, wraps every sequential-scanning job's dataset
	// scanner — a seam for the fault-injection and latency tests; nil in
	// production.
	WrapScanner func(jobID string, sc dataset.Scanner) dataset.Scanner
}

// withDefaults fills unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.SpoolDir == "" {
		return c, errors.New("server: Config.SpoolDir is required")
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 16
	}
	if c.CacheMaxBytes == 0 {
		c.CacheMaxBytes = 64 << 20
	}
	if c.DatasetCacheBytes == 0 {
		c.DatasetCacheBytes = 64 << 20
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c, nil
}

// Server is the HTTP mining service. It implements http.Handler; wire it
// into an http.Server (cmd/pincerd does) or an httptest.Server.
type Server struct {
	cfg     Config
	reg     *obsv.Registry
	man     *Manager
	mux     *http.ServeMux
	hmet    *httpMetrics
	limiter *remoteLimiter
}

// New builds the service: metrics registry, result cache, job manager
// (restart-resuming the spool), and routes.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	man, err := newManager(cfg, reg)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, reg: reg, man: man, mux: http.NewServeMux(), hmet: newHTTPMetrics(reg)}
	if cfg.MaxInflightPerRemote > 0 {
		s.limiter = &remoteLimiter{max: cfg.MaxInflightPerRemote, inflight: map[string]int{}}
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	s.mux.HandleFunc("POST /v1/streams", s.handleStreamCreate)
	s.mux.HandleFunc("GET /v1/streams", s.handleStreamList)
	s.mux.HandleFunc("GET /v1/streams/{id}", s.handleStreamStatus)
	s.mux.HandleFunc("DELETE /v1/streams/{id}", s.handleStreamDelete)
	s.mux.HandleFunc("POST /v1/streams/{id}/batches", s.handleStreamBatch)
	s.mux.HandleFunc("GET /v1/streams/{id}/mfs", s.handleStreamMFS)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	obsv.RegisterDebug(s.mux, reg)
	return s, nil
}

// Manager exposes the job manager (the daemon's signal handling drives
// Drain/Abort through it).
func (s *Server) Manager() *Manager { return s.man }

// Registry exposes the metrics registry.
func (s *Server) Registry() *obsv.Registry { return s.reg }

// ServeHTTP implements http.Handler. It wraps the route table with the
// serving-layer hardening the load harness exercises: the per-remote
// in-flight cap, the request-body byte cap, and per-route latency/outcome
// metrics (pincer_http_request_seconds, pincer_http_responses_total).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r)
	start := time.Now()
	sw := &statusRecorder{ResponseWriter: w}
	defer func() {
		s.hmet.observe(route, sw.status(), time.Since(start))
	}()
	if s.limiter != nil {
		host := remoteHost(r.RemoteAddr)
		if !s.limiter.acquire(host) {
			s.hmet.inflightLimited.Inc()
			// The remote's slots free as its requests finish; submits among
			// them are bounded by the same queue the estimate keys on.
			sw.Header().Set("Retry-After", strconv.Itoa(s.man.RetryAfterSeconds()))
			writeError(sw, http.StatusTooManyRequests, ReasonRemoteLimit,
				"too many in-flight requests from %s", host)
			return
		}
		defer s.limiter.release(host)
	}
	if s.cfg.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
	}
	s.mux.ServeHTTP(sw, r)
}

// routeOf buckets a request into the fixed route vocabulary the HTTP
// metrics are labeled with.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/jobs" || p == "/v1/jobs/":
		if r.Method == http.MethodPost {
			return "submit"
		}
		return "list"
	case strings.HasPrefix(p, "/v1/jobs/"):
		if r.Method == http.MethodDelete {
			return "cancel"
		}
		return "status"
	case strings.HasPrefix(p, "/v1/results/"):
		return "result"
	case p == "/v1/streams" || p == "/v1/streams/":
		if r.Method == http.MethodPost {
			return "stream_submit"
		}
		return "stream_list"
	case strings.HasPrefix(p, "/v1/streams/"):
		switch {
		case strings.HasSuffix(p, "/batches"):
			return "stream_batch"
		case strings.HasSuffix(p, "/mfs"):
			return "stream_mfs"
		case r.Method == http.MethodDelete:
			return "stream_delete"
		}
		return "stream_status"
	case p == "/healthz":
		return "healthz"
	case p == "/metrics" || p == "/debug/vars" || strings.HasPrefix(p, "/debug/pprof"):
		return "debug"
	}
	return "other"
}

// remoteHost strips the port from a RemoteAddr.
func remoteHost(addr string) string {
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}

// statusRecorder captures the response status for the metrics middleware.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

// status returns the recorded code (200 when the handler never wrote one).
func (s *statusRecorder) status() int {
	if s.code == 0 {
		return http.StatusOK
	}
	return s.code
}

// Flush forwards to the underlying writer so streaming handlers (pprof
// profiles) keep working through the recorder.
func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// remoteLimiter caps concurrent in-flight requests per remote host.
type remoteLimiter struct {
	max      int
	mu       sync.Mutex
	inflight map[string]int
}

func (l *remoteLimiter) acquire(host string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight[host] >= l.max {
		return false
	}
	l.inflight[host]++
	return true
}

func (l *remoteLimiter) release(host string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight[host] <= 1 {
		delete(l.inflight, host)
	} else {
		l.inflight[host]--
	}
}

// Drain gracefully stops the service: no new jobs, queued and running work
// completes (SIGTERM semantics).
func (s *Server) Drain(ctx context.Context) error { return s.man.Drain(ctx) }

// Abort stops the service immediately: running jobs are cancelled at their
// next cancellation point, checkpoints and queued jobs stay in the spool
// for the next start (SIGINT semantics).
func (s *Server) Abort(ctx context.Context) error { return s.man.Abort(ctx) }

// Machine-readable reasons carried by every error response, so clients
// (and the fuzz harness) can branch without parsing prose.
const (
	ReasonBadJSON      = "bad_json"        // body is not the JobRequest JSON shape
	ReasonInvalid      = "invalid_request" // well-formed JSON, invalid field values
	ReasonBodyTooLarge = "body_too_large"  // body exceeded Config.MaxBodyBytes
	ReasonQueueFull    = "queue_full"      // bounded run queue saturated (429)
	ReasonShuttingDown = "shutting_down"   // drain/abort in progress (503)
	ReasonNotFound     = "not_found"       // unknown job or result id
	ReasonJobFailed    = "job_failed"      // result requested for a failed job
	ReasonRemoteLimit  = "remote_limit"    // per-remote in-flight cap tripped (429)

	// Field-level validation reasons: normalize rejects a request with the
	// reason naming the failing field, so clients can branch on which knob
	// was wrong instead of parsing prose. All map to 400.
	ReasonBadMiner   = "bad_miner"   // unknown miner name
	ReasonBadEngine  = "bad_engine"  // unknown engine, or engine on a miner without one
	ReasonBadCounter = "bad_counter" // unknown counter spec, or counter on a non-level-wise miner
	ReasonBadSupport = "bad_support" // min_support outside (0, 1]
	ReasonBadDataset = "bad_dataset" // not exactly one of dataset_path / baskets
	ReasonBadWorkers = "bad_workers" // negative workers, or workers on a sequential miner
	ReasonBadBudget  = "bad_budget"  // negative deadline or resource budget, or a budget the miner has no limit for
	ReasonBadCluster = "bad_cluster" // cluster on an incompatible plan, or no cluster configured
)

// ValidationError is a request-validation rejection carrying its machine-
// readable reason; handleSubmit surfaces the reason in the error doc.
type ValidationError struct {
	Reason string
	msg    string
}

func (e *ValidationError) Error() string { return e.msg }

// invalidf builds a *ValidationError with a formatted message.
func invalidf(reason, format string, args ...interface{}) error {
	return &ValidationError{Reason: reason, msg: fmt.Sprintf(format, args...)}
}

// errorDoc is the wire form of every error response: prose plus a typed
// reason from the Reason* vocabulary.
type errorDoc struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, reason, format string, args ...interface{}) {
	writeJSON(w, code, errorDoc{Error: fmt.Sprintf(format, args...), Reason: reason})
}

// handleSubmit implements POST /v1/jobs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobRequest
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
	j, err := s.man.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.man.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, ReasonQueueFull, "%v", err)
		return
	case errors.Is(err, ErrShuttingDown):
		// A shutting-down daemon is typically about to be replaced (chaos
		// restarts, rolling deploys); the backlog-derived estimate is as
		// honest a hint as exists for when the successor will answer.
		w.Header().Set("Retry-After", strconv.Itoa(s.man.RetryAfterSeconds()))
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
	v := j.view()
	code := http.StatusAccepted
	if v.Cached { // cache hit: the answer is already here
		code = http.StatusOK
	}
	writeJSON(w, code, v)
}

// handleList implements GET /v1/jobs.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": s.man.JobViews()})
}

// handleStatus implements GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.man.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ReasonNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleCancel implements DELETE /v1/jobs/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cancelled, exists := s.man.Cancel(id)
	if !exists {
		writeError(w, http.StatusNotFound, ReasonNotFound, "no such job")
		return
	}
	j, _ := s.man.Job(id)
	if !cancelled {
		// Already terminal: cancellation is a no-op, report the state.
		writeJSON(w, http.StatusConflict, j.view())
		return
	}
	writeJSON(w, http.StatusAccepted, j.view())
}

// handleResult implements GET /v1/results/{id}.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.man.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ReasonNotFound, "no such job")
		return
	}
	j.mu.Lock()
	doc := j.doc
	status := j.status
	errMsg := j.err
	j.mu.Unlock()
	if doc == nil {
		switch status {
		case StatusFailed:
			writeError(w, http.StatusInternalServerError, ReasonJobFailed, "job failed: %s", errMsg)
		default:
			writeJSON(w, http.StatusConflict, j.view())
		}
		return
	}
	writeJSON(w, http.StatusOK, doc)
}
