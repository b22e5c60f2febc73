package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"pincer/internal/checkpoint"
	"pincer/internal/core"
	"pincer/internal/counting"
	"pincer/internal/itemset"
)

// span is one timed interval recorded by the benchmark's own wrappers.
// Replay spans nest (parent is the index of the enclosing span, -1 for an
// operation's root); served spans are flat.
type span struct {
	name   string
	kind   string // sub-kind: the PassCounter method, or the HTTP route
	parent int
	start  int64 // ns since the log's epoch
	end    int64
	bytes  int64
}

func (s span) dur() int64 { return s.end - s.start }

// spanLog keeps spans in memory until the run's metrics are computed.
// record is safe from any goroutine; begin and end nest spans and are
// called from the single replay goroutine only.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  []int
	err   error // the first span closed out of order
}

func newSpanLog() *spanLog {
	// Preallocated so that recording a span does not allocate, which keeps
	// the replay's allocation counts exact.
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<17)}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// record appends a flat span.
func (l *spanLog) record(name, kind string, start time.Time, bytes int64) {
	end := l.now()
	l.mu.Lock()
	l.spans = append(l.spans, span{name: name, kind: kind, parent: -1, start: int64(start.Sub(l.epoch)), end: end, bytes: bytes})
	l.mu.Unlock()
}

// begin opens a span nested in the innermost open one.
func (l *spanLog) begin(name, kind string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{name: name, kind: kind, parent: parent, start: l.now()})
	i := len(l.spans) - 1
	l.open = append(l.open, i)
	return i
}

// end closes span i, which must be the innermost open span; closing any
// other is recorded as an error that snapshot reports.
func (l *spanLog) end(i int, bytes int64) {
	t := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].end = t
	l.spans[i].bytes = bytes
	n := len(l.open)
	if n == 0 || l.open[n-1] != i {
		if l.err == nil {
			l.err = fmt.Errorf("span %s closed while it was not the innermost open span", l.spans[i].name)
		}
		return
	}
	l.open = l.open[:n-1]
}

// within runs fn inside a span.
func (l *spanLog) within(name string, fn func()) {
	i := l.begin(name, "")
	fn()
	l.end(i, 0)
}

// snapshot returns a copy of the spans recorded so far. It fails if a span
// was closed out of order or is still open.
func (l *spanLog) snapshot() ([]span, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.err
	if err == nil && len(l.open) > 0 {
		err = fmt.Errorf("span %s is still open", l.spans[l.open[len(l.open)-1]].name)
	}
	return append([]span(nil), l.spans...), err
}

// tracedHandler records one span per request around an http.Handler, named
// by route, with the request and response body bytes.
type tracedHandler struct {
	log   *spanLog
	name  string
	route func(*http.Request) string
	next  http.Handler
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body := &countingReader{r: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	h.log.record(h.name, h.route(r), start, body.n+cw.n)
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// daemonRoute names a pincerd request by its route.
func daemonRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/"):
		return "status"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/results/"):
		return "result"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/batches"):
		return "batch"
	}
	return "other"
}

// workerRoute names a cluster worker RPC by its kind.
func workerRoute(r *http.Request) string {
	return strings.TrimPrefix(r.URL.Path, "/cluster/v1/")
}

// tracedCounter decorates a core.PassCounter: every call is a span named
// after the counting layer, and the tid-list kernel operations it performed
// are drained into intersections.
type tracedCounter struct {
	inner         core.PassCounter
	log           *spanLog
	name          string
	intersections int64
}

func (c *tracedCounter) CountItems(numItems int, elems []itemset.Itemset, elemBits []*itemset.Bitset) ([]int64, []int64) {
	i := c.log.begin(c.name, "items")
	a, b := c.inner.CountItems(numItems, elems, elemBits)
	c.drain()
	c.log.end(i, 0)
	return a, b
}

func (c *tracedCounter) CountPairs(numItems int, live itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) (*counting.Triangle, []int64) {
	i := c.log.begin(c.name, "pairs")
	t, b := c.inner.CountPairs(numItems, live, elems, elemBits)
	c.drain()
	c.log.end(i, 0)
	return t, b
}

func (c *tracedCounter) CountCandidates(engine counting.Engine, candidates []itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) ([]int64, []int64) {
	i := c.log.begin(c.name, "candidates")
	a, b := c.inner.CountCandidates(engine, candidates, elems, elemBits)
	c.drain()
	c.log.end(i, 0)
	return a, b
}

// Workers reports the wrapped counter's goroutine count.
func (c *tracedCounter) Workers() int {
	if wc, ok := c.inner.(core.WorkerCounted); ok {
		return wc.Workers()
	}
	return 1
}

func (c *tracedCounter) drain() {
	if ir, ok := c.inner.(core.IntersectionReporter); ok {
		c.intersections += ir.TakeIntersections().Total
	}
}

// tracedCheckpointer decorates a checkpoint.FileCheckpointer: every save is
// a span carrying the size of the file it wrote.
type tracedCheckpointer struct {
	inner *checkpoint.FileCheckpointer
	log   *spanLog
}

func (c *tracedCheckpointer) Save(st *checkpoint.State) error {
	i := c.log.begin("checkpoint.save", "")
	err := c.inner.Save(st)
	var size int64
	if fi, serr := os.Stat(c.inner.Path()); serr == nil {
		size = fi.Size()
	}
	c.log.end(i, size)
	return err
}

func (c *tracedCheckpointer) Load() (*checkpoint.State, error) {
	i := c.log.begin("checkpoint.load", "")
	defer c.log.end(i, 0)
	return c.inner.Load()
}

func (c *tracedCheckpointer) Clear() error {
	i := c.log.begin("checkpoint.clear", "")
	defer c.log.end(i, 0)
	return c.inner.Clear()
}
