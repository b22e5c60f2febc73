package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"pincer/internal/cluster"
	"pincer/internal/obsv"
	"pincer/internal/server"
)

// fleet is one run's fresh system under test: a pincerd on a loopback
// listener with its own spool directory and metrics registry and, for
// clustered streams, two cluster workers and the pool over them. Nothing is
// shared with any other fleet.
type fleet struct {
	reg     *obsv.Registry
	srv     *server.Server
	hs      *http.Server
	base    string
	workers []*http.Server
	pool    *cluster.Pool
	client  *http.Client
	log     *spanLog // nil when untraced
}

// startFleet builds and starts a fleet spooling into spool. With a span log
// the daemon's and the workers' handlers are wrapped in span recorders.
func startFleet(spool string, withCluster bool, log *spanLog) (*fleet, error) {
	f := &fleet{
		reg: obsv.NewRegistry(),
		log: log,
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	if withCluster {
		var addrs []string
		for i := 0; i < 2; i++ {
			var h http.Handler = cluster.NewWorker(cluster.WorkerConfig{ID: fmt.Sprintf("w%d", i)})
			if log != nil {
				h = &tracedHandler{log: log, name: "cluster.worker", route: workerRoute, next: h}
			}
			hs, addr, err := listen(h)
			if err != nil {
				f.close()
				return nil, err
			}
			f.workers = append(f.workers, hs)
			addrs = append(addrs, addr)
		}
		// pincerd's default pool: every delta count and re-mine pass splits
		// into two shards per live worker.
		pool, err := cluster.NewPool(addrs, cluster.PoolConfig{Registry: f.reg})
		if err != nil {
			f.close()
			return nil, err
		}
		pool.Start()
		f.pool = pool
		if live := len(pool.Live()); live != len(addrs) {
			f.close()
			return nil, fmt.Errorf("cluster pool sees %d of %d workers live", live, len(addrs))
		}
	}
	srv, err := server.New(server.Config{SpoolDir: spool, Registry: f.reg, Cluster: f.pool})
	if err != nil {
		f.close()
		return nil, err
	}
	f.srv = srv
	var h http.Handler = srv
	if log != nil {
		h = &tracedHandler{log: log, name: "server", route: daemonRoute, next: srv}
	}
	hs, addr, err := listen(h)
	if err != nil {
		f.close()
		return nil, err
	}
	f.hs, f.base = hs, addr
	return f, nil
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// closeDaemon drains the daemon and stops its listener; the cluster, if
// any, keeps running.
func (f *fleet) closeDaemon() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.hs != nil {
		errs = append(errs, f.hs.Shutdown(ctx))
		f.hs = nil
	}
	if f.srv != nil {
		errs = append(errs, f.srv.Drain(ctx))
		f.srv = nil
	}
	f.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// close stops everything the fleet started and waits for it to end.
func (f *fleet) close() error {
	errs := []error{f.closeDaemon()}
	if f.pool != nil {
		f.pool.Close()
		f.pool = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, hs := range f.workers {
		errs = append(errs, hs.Shutdown(ctx))
	}
	f.workers = nil
	return errors.Join(errs...)
}

// call sends one request to the daemon and decodes a 2xx JSON answer into
// out. Traced runs record a client span per request.
func (f *fleet) call(method, path string, body []byte, out interface{}) (int, error) {
	start := time.Now()
	req, err := http.NewRequest(method, f.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if f.log != nil {
		f.log.record("client", daemonRoute(req), start, int64(len(body)+len(raw)))
	}
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// runJob submits one job and waits for its result document the way a
// pincerd caller does: submit, poll the status every pollInterval until the
// job is terminal, fetch the result.
func (f *fleet) runJob(body []byte) (doc *server.ResultDoc, view server.JobView, polls int, err error) {
	if _, err = f.call(http.MethodPost, "/v1/jobs", body, &view); err != nil {
		return nil, view, 0, err
	}
	for view.Status == server.StatusQueued || view.Status == server.StatusRunning {
		time.Sleep(pollInterval)
		polls++
		if _, err = f.call(http.MethodGet, "/v1/jobs/"+view.ID, nil, &view); err != nil {
			return nil, view, polls, err
		}
	}
	if view.Status != server.StatusDone {
		return nil, view, polls, fmt.Errorf("job %s ended %s %s", view.ID, view.Status, view.Error)
	}
	doc = new(server.ResultDoc)
	if _, err = f.call(http.MethodGet, "/v1/results/"+view.ID, nil, doc); err != nil {
		return nil, view, polls, err
	}
	if doc.Partial != nil {
		return nil, view, polls, fmt.Errorf("job %s returned a partial result (%s)", view.ID, doc.Partial.Reason)
	}
	return doc, view, polls, nil
}

// op is one timed client operation: a job or a stream batch.
type op struct {
	client int
	index  int           // position in the client's sequence (batch seq - 1)
	lat    time.Duration // from sending the first request to the answer
	done   time.Duration // completion, from the start of the window
	err    error

	// Jobs.
	job   jobReq
	doc   *server.ResultDoc
	view  server.JobView
	polls int

	// Batches.
	delta *server.StreamDeltaDoc
}

// window runs the closed-loop clients for d: each calls next with its
// client number and sequence position until the deadline passes or next
// reports that the client must stop. It returns the operations in
// completion order per client and the window's wall clock, which ends when
// the last in-flight operation completes.
func window(d time.Duration, next func(client, i int) (o op, more bool)) ([][]op, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	ops := make([][]op, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				o, more := next(c, i)
				o.done = time.Since(start)
				ops[c] = append(ops[c], o)
				if !more {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return ops, time.Since(start)
}
