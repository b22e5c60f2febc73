package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"pincer/internal/dataset"
	"pincer/internal/server"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	wl      workload
	sz      sizing
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string    // scratch directory of the run, removed afterwards
	start   time.Time // process start: the first setup is timed from here
}

// system is one set-up fleet with the inputs its clients send.
type system struct {
	cfg     runConfig
	dir     string
	f       *fleet
	dbs     []*database
	seqs    [][]jobReq
	spool   string
	streams []string // one stream id per client
	feeds   []*feed
	// Per client, every batch acknowledged so far (warm-up included) and
	// its delta document.
	sent   [][][]dataset.Transaction
	deltas [][]*server.StreamDeltaDoc
}

// setup builds fresh inputs and a fresh fleet in its own directory: the
// databases (or feeds), the daemon and workers, one warm-up job per database
// to fill the dataset cache, and the clients' streams.
func setup(cfg runConfig, name string, log *spanLog) (*system, error) {
	dir := filepath.Join(cfg.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &system{cfg: cfg, dir: dir, sent: make([][][]dataset.Transaction, clients), deltas: make([][]*server.StreamDeltaDoc, clients)}
	if !cfg.wl.stream {
		dbs, err := makeDatabases(cfg.wl, cfg.sz, cfg.seed, dir)
		if err != nil {
			return nil, err
		}
		s.dbs = dbs
		s.seqs = jobSequences(cfg.sz, cfg.seed)
	}
	s.spool = filepath.Join(dir, "spool")
	f, err := startFleet(s.spool, cfg.wl.cluster, log)
	if err != nil {
		return nil, err
	}
	s.f = f
	for _, db := range s.dbs {
		body, err := json.Marshal(jobSpec(cfg.wl, db, cfg.sz.warmSupport))
		if err == nil {
			_, _, _, err = f.runJob(body)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if cfg.wl.stream {
		body, err := json.Marshal(cfg.sz.stream)
		if err != nil {
			f.close()
			return nil, err
		}
		for c := 0; c < clients; c++ {
			var v server.StreamView
			if _, err := f.call(http.MethodPost, "/v1/streams", body, &v); err != nil {
				f.close()
				return nil, err
			}
			s.streams = append(s.streams, v.ID)
			s.feeds = append(s.feeds, newFeed(cfg.sz, cfg.seed, c))
			for i := 0; i < cfg.sz.stream.Window/cfg.sz.feed.NumTransactions; i++ {
				if o := s.appendBatch(c); o.err != nil {
					f.close()
					return nil, fmt.Errorf("warm-up: %w", o.err)
				}
			}
		}
	}
	return s, nil
}

// served is what one timed window measured.
type served struct {
	ops        [][]op
	wall       time.Duration
	rssMiB     float64          // peak RSS once rssAfter operations have succeeded
	counters   map[string]int64 // registry counter deltas over the window
	gcShare    float64
	cpuUtil    float64
	spoolBytes int64
	final      []*server.StreamMFSDoc // per client, the stream's answer after the window
	// logStart and logEnd bound the window on a traced fleet's span log.
	logStart, logEnd int64
}

// rssAfter is the number of successful operations after which the window
// reads the process's peak RSS: the fewest with which a run still reports a
// p95 (minTail samples beyond it). The daemon keeps every request it has
// served, so the peak grows with the operations served; reading it after a
// fixed count keeps a change in throughput from showing as one in memory.
const rssAfter = 20 * minTail

// registry counters scraped around the window.
var scraped = []string{
	"pincer_jobs_submitted_total", "pincer_cache_hits_total",
	"pincer_dataset_cache_hits_total", "pincer_dataset_cache_misses_total",
	"pincer_cluster_rpcs_total", "pincer_cluster_shards_pushed_total",
	"pincer_cluster_rpc_retries_total", "pincer_cluster_local_counts_total", "pincer_cluster_degraded_total",
}

func (s *system) counters() map[string]int64 {
	out := map[string]int64{}
	for _, name := range scraped {
		out[name] = s.f.reg.Counter(name, "").Value()
	}
	return out
}

// cpuSample reads the runtime's CPU-class estimates.
func cpuSample() (gc, total, idle float64) {
	ss := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(ss)
	return ss[0].Value.Float64(), ss[1].Value.Float64(), ss[2].Value.Float64()
}

// serve runs the closed-loop clients against the system for d.
func (s *system) serve(d time.Duration) (*served, error) {
	before := s.counters()
	gc0, total0, idle0 := cpuSample()
	out := &served{}
	if s.f.log != nil {
		out.logStart = s.f.log.now()
	}
	next := s.nextJob
	if s.cfg.wl.stream {
		next = s.nextBatch
	}
	var succeeded atomic.Int64
	out.ops, out.wall = window(d, func(c, i int) (op, bool) {
		o, more := next(c, i)
		if o.err == nil && succeeded.Add(1) == rssAfter {
			out.rssMiB = peakRSSMiB()
		}
		return o, more
	})
	gc1, total1, idle1 := cpuSample()
	if s.f.log != nil {
		out.logEnd = s.f.log.now()
	}
	if out.rssMiB == 0 {
		// Too few operations for a p95 as well: the run fails on that.
		out.rssMiB = peakRSSMiB()
	}
	if busy := (total1 - total0) - (idle1 - idle0); busy > 0 {
		out.gcShare = (gc1 - gc0) / busy
		out.cpuUtil = busy / (total1 - total0)
	}
	out.counters = map[string]int64{}
	for name, v := range s.counters() {
		out.counters[name] = v - before[name]
	}
	var err error
	if out.spoolBytes, err = dirBytes(s.spool); err != nil {
		return nil, err
	}
	for c, id := range s.streams {
		doc := new(server.StreamMFSDoc)
		if _, err := s.f.call(http.MethodGet, "/v1/streams/"+id+"/mfs?border=1", nil, doc); err != nil {
			return nil, fmt.Errorf("client %d: final answer: %w", c, err)
		}
		out.final = append(out.final, doc)
	}
	return out, nil
}

func (s *system) nextJob(c, i int) (op, bool) {
	if i >= len(s.seqs[c]) {
		// Counted as a failure: the workload is sized so that this never
		// happens, and a run that idles a client measures something else.
		return op{client: c, index: i, err: fmt.Errorf("client %d ran out of distinct requests after %d", c, i)}, false
	}
	r := s.seqs[c][i]
	o := op{client: c, index: i, job: r}
	body, err := jobBody(s.cfg.wl, s.cfg.sz, s.dbs, r)
	if err != nil {
		o.err = err
		return o, true
	}
	start := time.Now()
	o.doc, o.view, o.polls, o.err = s.f.runJob(body)
	o.lat = time.Since(start)
	return o, true
}

func (s *system) nextBatch(c, _ int) (op, bool) {
	return s.appendBatch(c), true
}

// appendBatch sends client c's next batch and, once acknowledged, records
// it in the client's mirror.
func (s *system) appendBatch(c int) op {
	txs := s.feeds[c].next()
	o := op{client: c, index: len(s.sent[c])}
	body, err := batchBody(int64(o.index+1), txs)
	if err != nil {
		o.err = err
		return o
	}
	start := time.Now()
	o.delta = new(server.StreamDeltaDoc)
	_, o.err = s.f.call(http.MethodPost, "/v1/streams/"+s.streams[c]+"/batches", body, o.delta)
	o.lat = time.Since(start)
	if o.err == nil {
		s.sent[c] = append(s.sent[c], txs)
		s.deltas[c] = append(s.deltas[c], o.delta)
	}
	return o
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			var fi os.FileInfo
			if fi, err = e.Info(); err == nil {
				n += fi.Size()
			}
		}
		if os.IsNotExist(err) {
			return nil // a temporary file renamed away mid-walk
		}
		return err
	})
	return n, err
}
