package parallel

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pincer/internal/core"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
	"pincer/internal/quest"
)

func streamTestDB() *dataset.Dataset {
	return quest.Generate(quest.Params{
		NumTransactions: 400, AvgTxLen: 8, AvgPatternLen: 4,
		NumPatterns: 20, NumItems: 40, Seed: 7,
	})
}

func writeBasket(t *testing.T, d *dataset.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.basket")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteBasket(f, d); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// mineFile runs the Pincer-Search miner over sc at 5% support, counting
// each pass with the streaming counter over workers goroutines.
func mineFile(sc dataset.Scanner, copt core.Options, workers int) (*mfi.Result, error) {
	copt.Algorithm = "pincer-parallel"
	copt.Counter = NewStreamPassCounter(sc, workers)
	return core.Mine(sc, 0.05, copt)
}

// TestMinePincerFileMatchesSequential is the correctness property of the
// streaming count-distribution strategy: identical results and pass metrics
// to the sequential miner, at every worker count.
func TestMinePincerFileMatchesSequential(t *testing.T) {
	d := streamTestDB()
	path := writeBasket(t, d)
	copt := core.DefaultOptions()
	seq := must(core.Mine(dataset.NewScanner(d), 0.05, copt))
	for _, workers := range []int{1, 2, 4} {
		fs, err := dataset.OpenFileScanner(path)
		if err != nil {
			t.Fatal(err)
		}
		par, err := mineFile(fs, copt, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := mfi.VerifyAgainst(par.MFS, seq.MFS); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range par.MFSSupports {
			if par.MFSSupports[i] != seq.MFSSupports[i] {
				t.Fatalf("workers=%d: support(%v) = %d, want %d",
					workers, par.MFS[i], par.MFSSupports[i], seq.MFSSupports[i])
			}
		}
		if par.Stats.Passes != seq.Stats.Passes || par.Stats.Candidates != seq.Stats.Candidates {
			t.Fatalf("workers=%d: passes/candidates %d/%d, want %d/%d",
				workers, par.Stats.Passes, par.Stats.Candidates, seq.Stats.Passes, seq.Stats.Candidates)
		}
	}
}

// streamCorruptScanner appends a malformed line to the underlying file
// once a given number of passes have started.
type streamCorruptScanner struct {
	fs    *dataset.FileScanner
	path  string
	after int
	scans int
}

func (c *streamCorruptScanner) Scan(fn func(tx itemset.Itemset, bits *itemset.Bitset)) {
	c.scans++
	if c.scans == c.after+1 {
		f, err := os.OpenFile(c.path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			panic(err)
		}
		if _, err := f.WriteString("2 bogus 9\n"); err != nil {
			panic(err)
		}
		f.Close()
	}
	c.fs.Scan(fn)
}

func (c *streamCorruptScanner) Len() int      { return c.fs.Len() }
func (c *streamCorruptScanner) NumItems() int { return c.fs.NumItems() }
func (c *streamCorruptScanner) Passes() int   { return c.fs.Passes() }

// TestMinePincerFileCorruptedMidRunReturnsError is the headline regression:
// a basket file that turns corrupt after pass 1 must surface as an error
// from the parallel mining API — not a panic — at every worker count.
func TestMinePincerFileCorruptedMidRunReturnsError(t *testing.T) {
	d := streamTestDB()
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := writeBasket(t, d)
			fs, err := dataset.OpenFileScanner(path)
			if err != nil {
				t.Fatal(err)
			}
			sc := &streamCorruptScanner{fs: fs, path: path, after: 1}
			res, err := mineFile(sc, core.DefaultOptions(), workers)
			if err == nil {
				t.Fatal("mining a corrupted file reported no error")
			}
			var fse *dataset.FileScanError
			if !errors.As(err, &fse) {
				t.Fatalf("err = %T (%v), want *dataset.FileScanError", err, err)
			}
			if res != nil {
				t.Errorf("result %+v returned alongside the error", res)
			}
		})
	}
}

// TestStreamWorkerPanicSurfacesAsError drives the worker-failure protocol of
// the streaming counter: a panic inside a counting goroutine is re-raised at
// the barrier as *mfi.WorkerPanic and converted to an error at the boundary.
func TestStreamWorkerPanicSurfacesAsError(t *testing.T) {
	s := &stream{sc: dataset.NewScanner(streamTestDB()), workers: 4}
	err := func() (err error) {
		defer mfi.RecoverMiningError(&err)
		s.Pass(func(int) func(itemset.Itemset, *itemset.Bitset) {
			return func(itemset.Itemset, *itemset.Bitset) { panic("worker boom") }
		})
		return nil
	}()
	var wp *mfi.WorkerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("err = %T (%v), want *mfi.WorkerPanic", err, err)
	}
	if wp.Value != "worker boom" {
		t.Errorf("Value = %v, want the original panic value", wp.Value)
	}
	if len(wp.Stack) == 0 {
		t.Error("worker stack not captured")
	}
}

// TestPartitionWorkerPanicSurfacesAsError does the same for the partitioned
// (in-memory) counting workers.
func TestPartitionWorkerPanicSurfacesAsError(t *testing.T) {
	p := newPartitions(streamTestDB(), 4)
	err := func() (err error) {
		defer mfi.RecoverMiningError(&err)
		p.Pass(func(int) func(itemset.Itemset, *itemset.Bitset) { panic("boom") })
		return nil
	}()
	var wp *mfi.WorkerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("err = %T (%v), want *mfi.WorkerPanic", err, err)
	}
}

// TestConcurrentScrapeDuringParallelMine hammers the metrics endpoint while
// a traced parallel mine runs; with -race it proves the tracer, registry,
// and exposition are data-race free against the mining goroutines.
func TestConcurrentScrapeDuringParallelMine(t *testing.T) {
	reg := obsv.NewRegistry()
	tracer := obsv.NewMetricsTracer(reg)
	srv, err := obsv.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ep := range []string{"/metrics", "/debug/vars"} {
					resp, err := http.Get("http://" + srv.Addr + ep)
					if err != nil {
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	d := streamTestDB()
	opt := core.DefaultOptions()
	opt.Tracer = tracer
	const runs = 3
	for i := 0; i < runs; i++ {
		opt.Counter = NewPassCounter(d, 4)
		if _, err := core.Mine(dataset.NewScanner(d), 0.05, opt); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if got := reg.Snapshot()["pincer_runs_total"]; got != runs {
		t.Errorf("pincer_runs_total = %d, want %d", got, runs)
	}
}
