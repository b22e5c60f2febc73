package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"pincer/internal/obsv"
)

// PoolConfig tunes the worker pool and every coordinator built over it.
// The zero value gets the documented defaults.
type PoolConfig struct {
	// HeartbeatInterval is the ping cadence. Default 500ms.
	HeartbeatInterval time.Duration
	// LivenessDeadline declares a worker dead when no ping has succeeded
	// for this long. Default 4 × HeartbeatInterval.
	LivenessDeadline time.Duration
	// RPCTimeout bounds each count/load RPC attempt. Default 10s.
	RPCTimeout time.Duration
	// MaxAttempts is the per-worker attempt budget of one shard count
	// before the worker is declared dead. Default 3.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the capped, jittered exponential
	// backoff between attempts. Defaults 25ms and 1s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Quorum is the minimum live-worker count for distributed counting;
	// below it the coordinator degrades to local counting for the rest of
	// the job. Default 1.
	Quorum int
	// ShardsPerWorker is the sharding granularity: the dataset splits into
	// workers × ShardsPerWorker shards, so losing one worker redistributes
	// load in shard-sized pieces. Default 2.
	ShardsPerWorker int
	// Registry receives the pincer_cluster_* metrics (nil = no metrics).
	Registry *obsv.Registry
	// Logf, when set, receives cluster lifecycle lines.
	Logf func(format string, args ...interface{})
}

func (c *PoolConfig) fill() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.LivenessDeadline <= 0 {
		c.LivenessDeadline = 4 * c.HeartbeatInterval
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = time.Second
	}
	if c.Quorum <= 0 {
		c.Quorum = 1
	}
	if c.ShardsPerWorker <= 0 {
		c.ShardsPerWorker = 2
	}
}

// maxIdleConnsPerWorker is how many idle connections the pool keeps to
// each worker. http.DefaultTransport keeps 2, but concurrent fan-outs keep
// more RPCs in flight than that, so every pass closed and redialled the
// rest and left their sockets in TIME_WAIT.
const maxIdleConnsPerWorker = 64

// clusterMetrics is the pincer_cluster_* metric set, registered on the
// pool's registry (registration is idempotent, so pools may be rebuilt).
type clusterMetrics struct {
	workersLive      *obsv.Gauge
	workersKnown     *obsv.Gauge
	heartbeats       *obsv.Counter
	heartbeatMisses  *obsv.Counter
	workerDeaths     *obsv.Counter
	workerRejoins    *obsv.Counter
	rpcs             *obsv.Counter
	rpcErrors        *obsv.Counter
	rpcRetries       *obsv.Counter
	shardsPushed     *obsv.Counter
	reassignments    *obsv.Counter
	duplicateReplies *obsv.Counter
	localCounts      *obsv.Counter
	degraded         *obsv.Counter
}

// newClusterMetrics registers the set on reg; without a registry the
// metrics go to a private one nobody reads.
func newClusterMetrics(reg *obsv.Registry) *clusterMetrics {
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	return &clusterMetrics{
		workersLive:      reg.Gauge("pincer_cluster_workers_live", "Workers currently passing heartbeats."),
		workersKnown:     reg.Gauge("pincer_cluster_workers_known", "Workers configured in the pool."),
		heartbeats:       reg.Counter("pincer_cluster_heartbeats_total", "Successful heartbeat pings."),
		heartbeatMisses:  reg.Counter("pincer_cluster_heartbeat_misses_total", "Failed heartbeat pings."),
		workerDeaths:     reg.Counter("pincer_cluster_worker_deaths_total", "Workers declared dead (liveness deadline or RPC exhaustion)."),
		workerRejoins:    reg.Counter("pincer_cluster_worker_rejoins_total", "Dead workers that resumed answering pings."),
		rpcs:             reg.Counter("pincer_cluster_rpcs_total", "Count/load RPC attempts issued."),
		rpcErrors:        reg.Counter("pincer_cluster_rpc_errors_total", "Count/load RPC attempts that failed."),
		rpcRetries:       reg.Counter("pincer_cluster_rpc_retries_total", "RPC attempts beyond the first for one shard count."),
		shardsPushed:     reg.Counter("pincer_cluster_shards_pushed_total", "Shard payloads pushed to workers."),
		reassignments:    reg.Counter("pincer_cluster_reassignments_total", "Shards reassigned away from dead workers."),
		duplicateReplies: reg.Counter("pincer_cluster_duplicate_replies_total", "Memoized (duplicate-delivery) count replies detected."),
		localCounts:      reg.Counter("pincer_cluster_local_counts_total", "Shard passes counted locally by a coordinator."),
		degraded:         reg.Counter("pincer_cluster_degraded_total", "Jobs and stream batches degraded to fully local counting."),
	}
}

// workerRef is the pool's view of one worker process.
type workerRef struct {
	addr string // base URL, e.g. http://127.0.0.1:9001

	mu       sync.Mutex
	id       string
	alive    bool
	everSeen bool
	lastBeat time.Time
	// shards is the set of shard content addresses this worker is believed
	// to hold — seeded from ping replies, so a restarted worker's empty
	// store is discovered rather than assumed.
	shards map[string]bool
}

// Addr returns the worker's base URL.
func (w *workerRef) Addr() string { return w.addr }

func (w *workerRef) isAlive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.alive
}

func (w *workerRef) hasShard(id string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.shards[id]
}

func (w *workerRef) setShard(id string, held bool) {
	w.mu.Lock()
	if held {
		if w.shards == nil {
			w.shards = map[string]bool{}
		}
		w.shards[id] = true
	} else {
		delete(w.shards, id)
	}
	w.mu.Unlock()
}

// Pool manages the worker set: registration, heartbeats with liveness
// deadlines, and the HTTP client every coordinator RPC goes through. One
// pool serves all jobs of a coordinator process.
type Pool struct {
	cfg    PoolConfig
	met    *clusterMetrics
	client *http.Client

	mu      sync.Mutex
	workers []*workerRef
	stop    chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// NewPool builds a pool over the given worker base URLs (scheme required).
func NewPool(addrs []string, cfg PoolConfig) (*Pool, error) {
	cfg.fill()
	if len(addrs) == 0 {
		return nil, errors.New("cluster: pool needs at least one worker address")
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = maxIdleConnsPerWorker
	p := &Pool{
		cfg:    cfg,
		met:    newClusterMetrics(cfg.Registry),
		client: &http.Client{Timeout: cfg.RPCTimeout, Transport: transport},
		stop:   make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		a = strings.TrimRight(strings.TrimSpace(a), "/")
		if a == "" {
			continue
		}
		u, err := url.Parse(a)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: worker address %q is not a base URL", a)
		}
		if seen[a] {
			continue
		}
		seen[a] = true
		p.workers = append(p.workers, &workerRef{addr: a})
	}
	if len(p.workers) == 0 {
		return nil, errors.New("cluster: pool needs at least one worker address")
	}
	p.met.workersKnown.Set(int64(len(p.workers)))
	return p, nil
}

// Config returns the pool's effective (default-filled) configuration.
func (p *Pool) Config() PoolConfig { return p.cfg }

func (p *Pool) logf(format string, args ...interface{}) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// Start runs one synchronous heartbeat round — so callers see the initial
// live set — and then the background heartbeat loop.
func (p *Pool) Start() {
	p.heartbeatRound()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.cfg.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.heartbeatRound()
			}
		}
	}()
}

// Close stops the heartbeat loop and closes the idle worker connections.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.stopped {
		p.stopped = true
		close(p.stop)
	}
	p.mu.Unlock()
	p.wg.Wait()
	p.client.CloseIdleConnections()
}

// Workers returns every configured worker.
func (p *Pool) Workers() []*workerRef {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*workerRef(nil), p.workers...)
}

// Live returns the workers currently passing heartbeats.
func (p *Pool) Live() []*workerRef {
	p.mu.Lock()
	defer p.mu.Unlock()
	var live []*workerRef
	for _, w := range p.workers {
		if w.isAlive() {
			live = append(live, w)
		}
	}
	return live
}

// heartbeatRound pings every worker concurrently and applies the liveness
// deadline.
func (p *Pool) heartbeatRound() {
	workers := p.Workers()
	var wg sync.WaitGroup
	for _, w := range workers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A ping slower than the liveness deadline is as good as dead,
			// so that is the attempt timeout (the interval itself would be
			// too tight on a loaded machine).
			ctx, cancel := context.WithTimeout(context.Background(), p.cfg.LivenessDeadline)
			defer cancel()
			st, err := p.Ping(ctx, w)
			now := time.Now()
			w.mu.Lock()
			if err != nil {
				p.met.heartbeatMisses.Inc()
				dead := w.alive && now.Sub(w.lastBeat) > p.cfg.LivenessDeadline
				if dead {
					w.alive = false
				}
				w.mu.Unlock()
				if dead {
					p.met.workerDeaths.Inc()
					p.logf("cluster: worker %s missed its liveness deadline; declared dead", w.addr)
				}
				p.updateLiveGauge()
				return
			}
			p.met.heartbeats.Inc()
			rejoin := w.everSeen && !w.alive
			w.alive = true
			w.everSeen = true
			w.lastBeat = now
			w.id = st.ID
			// Trust the worker's own inventory: a restarted worker reports
			// an empty (or partial) store and gets re-pushed on demand.
			w.shards = map[string]bool{}
			for _, s := range st.Shards {
				w.shards[s] = true
			}
			w.mu.Unlock()
			if rejoin {
				p.met.workerRejoins.Inc()
				p.logf("cluster: worker %s rejoined", w.addr)
			}
			p.updateLiveGauge()
		}()
	}
	wg.Wait()
}

func (p *Pool) updateLiveGauge() {
	var n int64
	for _, w := range p.Workers() {
		if w.isAlive() {
			n++
		}
	}
	p.met.workersLive.Set(n)
}

// markDead records an RPC-exhaustion death (the coordinator gave up on the
// worker before the heartbeat loop noticed). It reports whether this call
// performed the alive→dead transition, so callers do not double-count a
// worker two shard fan-outs give up on concurrently.
func (p *Pool) markDead(w *workerRef, reason string) bool {
	w.mu.Lock()
	was := w.alive
	w.alive = false
	w.mu.Unlock()
	if was {
		p.met.workerDeaths.Inc()
		p.logf("cluster: worker %s declared dead (%s)", w.addr, reason)
		p.updateLiveGauge()
	}
	return was
}

// remoteError is a non-2xx wire reply.
type remoteError struct {
	Status int
	Reason string
	Msg    string
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("cluster: remote %d (%s): %s", e.Status, e.Reason, e.Msg)
}

// postJSON performs one JSON request/response RPC attempt.
func (p *Pool) postJSON(ctx context.Context, w *workerRef, path string, body, out interface{}) error {
	p.met.rpcs.Inc()
	err := p.doJSON(ctx, http.MethodPost, w.addr+path, body, out)
	if err != nil {
		p.met.rpcErrors.Inc()
	}
	return err
}

func (p *Pool) doJSON(ctx context.Context, method, url string, body, out interface{}) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var doc ErrorDoc
		if jerr := json.Unmarshal(data, &doc); jerr == nil && doc.Reason != "" {
			return &remoteError{Status: resp.StatusCode, Reason: doc.Reason, Msg: doc.Error}
		}
		return &remoteError{Status: resp.StatusCode, Reason: "http", Msg: http.StatusText(resp.StatusCode)}
	}
	return json.Unmarshal(data, out)
}

// Ping performs one heartbeat RPC.
func (p *Pool) Ping(ctx context.Context, w *workerRef) (*WorkerStatus, error) {
	var st WorkerStatus
	if err := p.doJSON(ctx, http.MethodGet, w.addr+"/cluster/v1/ping", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// loadShard pushes one shard to a worker.
func (p *Pool) loadShard(ctx context.Context, w *workerRef, req *LoadShardRequest) error {
	var resp LoadShardResponse
	if err := p.postJSON(ctx, w, "/cluster/v1/shards", req, &resp); err != nil {
		return err
	}
	if !resp.Cached {
		p.met.shardsPushed.Inc()
	}
	w.setShard(req.ShardID, true)
	return nil
}

// count performs one count RPC attempt.
func (p *Pool) count(ctx context.Context, w *workerRef, req *CountRequest) (*CountResponse, error) {
	var resp CountResponse
	if err := p.postJSON(ctx, w, "/cluster/v1/count", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
