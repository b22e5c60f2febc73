// Package parallel implements count distribution after Agrawal & Shafer
// ("Parallel Mining of Association Rules", 1996) — the parallel-algorithms
// direction the paper surveys in §5 and to which it notes its approach
// applies.
//
// In count distribution every worker owns a horizontal part of the
// database and all workers share the candidate set; each pass, workers
// count their parts concurrently into private counters and the counts are
// summed at the pass barrier. The algorithm's pass and candidate structure
// is that of the sequential one — only wall-clock time changes — so
// parallel mining is a choice of counter, not a separate miner: the package
// provides two counting.Feeds for counting.ScanCounter, which holds the one
// pass body, and a miner (core or apriori) takes the resulting counter in
// its Options.Counter.
//
//   - NewPassCounter splits an in-memory database into one partition per
//     worker, once; every pass each worker scans its own partition.
//   - NewStreamPassCounter re-reads a Scanner every pass (typically a
//     dataset.FileScanner) on the mining goroutine and hands batches of
//     transactions to the workers.
//
// Counting is contention-free: a worker writes only its own counter shard,
// so the hot per-transaction path takes no locks and sends no messages
// beyond the stream feed's batches. A worker panic is recovered on its
// goroutine and re-raised on the mining goroutine at the barrier wrapped in
// *mfi.WorkerPanic, so the mining boundary returns it as an error instead
// of the panic killing the process from an anonymous goroutine.
package parallel

import (
	"errors"
	"runtime"
	"runtime/debug"
	"sync"

	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
)

// NewPassCounter builds the count-distribution counter over an in-memory
// database for a miner's Options.Counter. The database is split once into
// workers contiguous partitions (fewer when it has fewer transactions;
// workers ≤ 0 means GOMAXPROCS), and every pass reuses them.
func NewPassCounter(d *dataset.Dataset, workers int) counting.PassCounter {
	return counting.NewFeedCounter(newPartitions(d, resolve(workers)))
}

// NewStreamPassCounter builds the streaming count-distribution counter for
// a miner's Options.Counter. Unlike NewPassCounter it does not materialize
// the database: sc is re-scanned every pass by one reader feeding workers
// counting goroutines (workers ≤ 0 means GOMAXPROCS), making it the
// parallel counterpart of mining straight from a dataset.FileScanner.
func NewStreamPassCounter(sc dataset.Scanner, workers int) counting.PassCounter {
	return counting.NewFeedCounter(&stream{sc: sc, workers: resolve(workers)})
}

// resolve maps a requested worker count to an effective one.
func resolve(workers int) int {
	if workers > 0 {
		return workers
	}
	return max(runtime.GOMAXPROCS(0), 1)
}

// partitions is the in-memory feed: one contiguous transaction slice, with
// its precomputed bitsets, per shard. Worker w scans exactly parts[w] every
// pass.
type partitions struct {
	parts [][]itemset.Itemset
	bits  [][]*itemset.Bitset
}

func newPartitions(d *dataset.Dataset, n int) *partitions {
	p := &partitions{}
	for _, part := range d.Partitions(n) {
		p.parts = append(p.parts, part.Transactions())
		p.bits = append(p.bits, part.Bitsets())
	}
	return p
}

func (p *partitions) Shards() int { return len(p.parts) }

func (p *partitions) Pass(open func(int) func(itemset.Itemset, *itemset.Bitset)) {
	wait := start(len(p.parts), func(w int) {
		add := open(w)
		for j, tx := range p.parts[w] {
			add(tx, p.bits[w][j])
		}
	}, nil)
	if wp := wait(); wp != nil {
		panic(wp)
	}
}

// streamBatch is the number of transactions handed to a worker at once; it
// amortizes channel synchronization without holding a large fraction of the
// database in flight.
const streamBatch = 512

// errAbortScan is the sentinel the reader panics with to abandon a Scan
// mid-pass once a worker has already failed; Pass swallows it (the
// worker's panic is the one reported).
var errAbortScan = errors.New("parallel: scan aborted by worker failure")

// stream is the file-backed feed, for databases that cannot be partitioned
// up front because each pass re-reads the file. The mining goroutine scans
// sc and sends batches of transactions to a channel the workers drain.
//
// The Scanner's per-transaction bitset is a reused buffer and never crosses
// a goroutine: each worker rebuilds the dense form in a private bitset.
//
// A mid-pass *dataset.FileScanError panic arises on the mining goroutine
// and propagates from there. A worker panic makes the reader abandon the
// scan and is re-raised at the barrier wrapped in *mfi.WorkerPanic.
type stream struct {
	sc      dataset.Scanner
	workers int
}

func (s *stream) Shards() int { return s.workers }

func (s *stream) Pass(open func(int) func(itemset.Itemset, *itemset.Bitset)) {
	// Two batches in flight per worker keep the reader ahead of the
	// counters without holding much of the database in memory.
	ch := make(chan []itemset.Itemset, 2*s.workers)
	done := make(chan struct{})
	wait := start(s.workers, func(w int) {
		add := open(w)
		bits := itemset.NewBitset(s.sc.NumItems())
		for batch := range ch {
			for _, tx := range batch {
				bits.Clear()
				for _, it := range tx {
					bits.Add(it)
				}
				add(tx, bits)
			}
		}
	}, func() { close(done) })

	send := func(batch []itemset.Itemset) {
		select {
		case ch <- batch:
		case <-done:
			// A worker already failed; unwind out of sc.Scan. The sentinel
			// is swallowed below and the worker's panic reported instead.
			panic(errAbortScan)
		}
	}
	var scanPanic interface{}
	func() {
		defer close(ch)
		defer func() {
			if r := recover(); r != nil && r != errAbortScan {
				scanPanic = r
			}
		}()
		batch := make([]itemset.Itemset, 0, streamBatch)
		s.sc.Scan(func(tx itemset.Itemset, _ *itemset.Bitset) {
			batch = append(batch, tx)
			if len(batch) == streamBatch {
				send(batch)
				batch = make([]itemset.Itemset, 0, streamBatch)
			}
		})
		if len(batch) > 0 {
			send(batch)
		}
	}()
	wp := wait()
	if scanPanic != nil {
		panic(scanPanic)
	}
	if wp != nil {
		panic(wp)
	}
}

// start runs fn(w) for every w < n, each on its own goroutine, and returns
// a wait that blocks until all of them have returned. A panic is recovered
// on its worker's goroutine; wait reports the first one as an
// *mfi.WorkerPanic with that worker's stack, and failed (when non-nil) is
// called once, as soon as it happens.
func start(n int, fn func(w int), failed func()) (wait func() *mfi.WorkerPanic) {
	var wg sync.WaitGroup
	var once sync.Once
	var wp *mfi.WorkerPanic
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					stack := debug.Stack()
					once.Do(func() {
						wp = &mfi.WorkerPanic{Value: r, Stack: stack}
						if failed != nil {
							failed()
						}
					})
				}
			}()
			fn(w)
		}()
	}
	return func() *mfi.WorkerPanic {
		wg.Wait()
		return wp
	}
}
