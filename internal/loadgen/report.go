package loadgen

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"pincer/internal/server"
)

// Report is one load run's result document — the shape cmd/pincerload
// writes to BENCH_serve_load.json.
type Report struct {
	Target string `json:"target"`
	Mode   string `json:"mode"` // "closed" or "open"
	// GoVersion, CPUs and GoMaxProcs record the machine the load ran from,
	// under the names every bench harness report uses.
	GoVersion       string  `json:"go_version"`
	CPUs            int     `json:"cpus"`
	GoMaxProcs      int     `json:"gomaxprocs"`
	DurationSeconds float64 `json:"duration_seconds"`
	Concurrency     int     `json:"concurrency,omitempty"`
	RateHz          float64 `json:"rate_hz,omitempty"`
	Cells           int     `json:"cells"`
	ResubmitRatio   float64 `json:"resubmit_ratio"`
	CancelRatio     float64 `json:"cancel_ratio"`

	Requests        int64            `json:"requests"`
	ThroughputRPS   float64          `json:"throughput_rps"`
	TransportErrors int64            `json:"transport_errors"`
	Codes           map[string]int64 `json:"codes"`

	Endpoints map[string]*EndpointReport `json:"endpoints"`

	Jobs          JobsReport     `json:"jobs"`
	Streams       *StreamsReport `json:"streams,omitempty"`
	ChaosRestarts int            `json:"chaos_restarts,omitempty"`
}

// StreamsReport accounts for the stream mix: every opened stream must end
// with its maintained MFS matching the client-side mirror — through chaos
// restarts included — so Failed and Divergent must stay empty.
type StreamsReport struct {
	Streams    int      `json:"streams"`
	Batches    int64    `json:"batches"`
	Duplicates int64    `json:"duplicates,omitempty"`
	Retries    int64    `json:"retries,omitempty"`
	FastPath   int64    `json:"fast_path"`
	Remines    int64    `json:"remines"`
	Clustered  int      `json:"clustered,omitempty"`
	Failed     []string `json:"failed,omitempty"`
	Verified   int64    `json:"verified,omitempty"`
	Divergent  []string `json:"divergent,omitempty"`
}

// EndpointReport is one endpoint's latency and status-code breakdown.
type EndpointReport struct {
	Requests        int64            `json:"requests"`
	Codes           map[string]int64 `json:"codes"`
	TransportErrors int64            `json:"transport_errors,omitempty"`
	P50Ms           float64          `json:"p50_ms"`
	P95Ms           float64          `json:"p95_ms"`
	P99Ms           float64          `json:"p99_ms"`
	MaxMs           float64          `json:"max_ms"`
}

// JobsReport accounts for every accepted job: each one must land in
// exactly one terminal bucket or the Lost column, which a healthy run
// keeps at zero — through chaos restarts included.
type JobsReport struct {
	Accepted  int64    `json:"accepted"`
	CacheHits int64    `json:"cache_hits"`
	Done      int64    `json:"done"`
	Partial   int64    `json:"partial"`
	Cancelled int64    `json:"cancelled"`
	Failed    int64    `json:"failed"`
	Lost      int64    `json:"lost"`
	LostIDs   []string `json:"lost_ids,omitempty"`
	Verified  int64    `json:"verified,omitempty"`
	Divergent []string `json:"divergent,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// buildReport snapshots the recorder and job tracker into a Report.
func (r *runner) buildReport(elapsed time.Duration) *Report {
	rep := &Report{
		Target:          r.cfg.BaseURL,
		Mode:            "closed",
		GoVersion:       runtime.Version(),
		CPUs:            runtime.NumCPU(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		DurationSeconds: elapsed.Seconds(),
		Concurrency:     r.cfg.Concurrency,
		Cells:           len(r.cfg.Cells),
		ResubmitRatio:   r.cfg.ResubmitRatio,
		CancelRatio:     r.cfg.CancelRatio,
		Codes:           map[string]int64{},
		Endpoints:       map[string]*EndpointReport{},
	}
	if r.cfg.RateHz > 0 {
		rep.Mode = "open"
		rep.RateHz = r.cfg.RateHz
		rep.Concurrency = 0
	}

	r.rec.mu.Lock()
	for name, e := range r.rec.endpoints {
		er := &EndpointReport{
			Requests:        e.hist.Count(),
			Codes:           map[string]int64{},
			TransportErrors: e.transport,
			P50Ms:           ms(e.hist.Quantile(0.50)),
			P95Ms:           ms(e.hist.Quantile(0.95)),
			P99Ms:           ms(e.hist.Quantile(0.99)),
			MaxMs:           ms(e.hist.Max()),
		}
		for code, n := range e.codes {
			er.Codes[code] = n
			rep.Codes[code] += n
		}
		rep.Requests += er.Requests
		rep.TransportErrors += e.transport
		rep.Endpoints[name] = er
	}
	r.rec.mu.Unlock()
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / elapsed.Seconds()
	}

	r.mu.Lock()
	rep.ChaosRestarts = r.restarts
	rep.Jobs.CacheHits = r.cacheHits
	rep.Jobs.Accepted = int64(len(r.tracked))
	for id, t := range r.tracked {
		switch t.status {
		case server.StatusDone:
			rep.Jobs.Done++
		case server.StatusPartial:
			rep.Jobs.Partial++
		case server.StatusCancelled:
			rep.Jobs.Cancelled++
		case server.StatusFailed:
			rep.Jobs.Failed++
		default: // never reached a terminal state inside the drain window
			rep.Jobs.Lost++
			rep.Jobs.LostIDs = append(rep.Jobs.LostIDs, id)
		}
	}
	r.mu.Unlock()
	sort.Strings(rep.Jobs.LostIDs)

	if r.streams != nil {
		sr := &StreamsReport{Streams: len(r.streams)}
		for i, s := range r.streams {
			sr.Batches += s.batches
			sr.Duplicates += s.duplicates
			sr.Retries += s.retries
			sr.FastPath += s.view.FastPath
			sr.Remines += s.view.Remines
			if s.view.Cluster {
				sr.Clustered++
			}
			if s.failed != "" {
				sr.Failed = append(sr.Failed, fmt.Sprintf("stream %d (%s): %s", i, s.id, s.failed))
			}
		}
		rep.Streams = sr
	}
	return rep
}
