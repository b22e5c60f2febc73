package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/quest"
	"pincer/internal/server"
)

// workload is one traffic mix the benchmark drives through pincerd. Why each
// exists, which layer it stresses and which it bypasses is recorded in
// rationale.json.
type workload struct {
	name    string
	stream  bool // clients append stream batches instead of submitting jobs
	cluster bool // streams count over two in-process cluster workers
}

var workloads = []workload{
	{name: "jobs-dense"},
	{name: "jobs-sparse"},
	{name: "stream-window", stream: true},
	{name: "stream-cluster", stream: true, cluster: true},
}

func workloadByName(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// clients is the number of closed-loop clients: one per core of the
	// 2-core machine the benchmark was sized on.
	clients = 2
	// repeatEvery makes one request in repeatEvery an exact repeat of an
	// earlier request of the same client, which should hit the result cache.
	repeatEvery = 10
	// pollInterval is how often a job client polls GET /v1/jobs/{id}.
	pollInterval = 2 * time.Millisecond
)

// sizing holds every input dimension of a workload. Production runs use
// sizingFor; the self-tests shrink it so a run takes a few seconds.
type sizing struct {
	// Jobs: the databases, the support range of the requests (fractions of
	// |D|, each request a distinct min-count in it), and the support of the
	// one warm-up request per database, which fills the dataset cache.
	dbs         int
	shape       quest.Params
	supLo       float64
	supHi       float64
	warmSupport float64
	// Streams: each client's feed shape (NumTransactions is the batch
	// length), the size of the pool its batches draw from, and the stream
	// spec. Set-up fills each stream's window with warm-up batches, so the
	// timed window measures steady state.
	feed     quest.Params
	feedPool int
	stream   server.StreamRequest
	// setups is how many times a run builds a fresh system; setup_s is
	// the median.
	setups int
}

// sizingFor returns the production sizing. The shapes are the paper's §4
// contrast: concentrated data (T20.I10, |L|=50: few, long patterns) versus
// scattered data (T10.I4, |L|=2000: many short ones).
func sizingFor(wl workload) sizing {
	dense := quest.Params{NumTransactions: 10_000, AvgTxLen: 20, AvgPatternLen: 10, NumPatterns: 50, NumItems: 1000}
	sz := sizing{setups: 3}
	switch {
	case wl.name == "jobs-dense":
		sz.dbs, sz.shape = 4, dense
		sz.supLo, sz.supHi, sz.warmSupport = 0.05, 0.10, 0.5
	case wl.name == "jobs-sparse":
		// The support range keeps a job short enough for about 22 jobs/s,
		// so a window holds enough jobs for its p95. Each database holds
		// only 51 distinct min-counts in the range, and a run must not run
		// out of distinct requests before its window ends: twelve hold half
		// again as many as the fastest run seen needs.
		sz.dbs = 12
		sz.shape = quest.Params{NumTransactions: 10_000, AvgTxLen: 10, AvgPatternLen: 4, NumPatterns: 2000, NumItems: 1000}
		sz.supLo, sz.supHi, sz.warmSupport = 0.0125, 0.0175, 0.5
	case wl.stream:
		// A small window and batch keep stream-cluster at 20-40 batches/s,
		// so a window holds enough batches for its p95.
		sz.feed = dense
		sz.feed.NumTransactions = 100
		sz.feedPool = 10_000
		sz.stream = server.StreamRequest{MinSupport: 0.2, Window: 1000, Counter: "scan", Workers: 2, Cluster: wl.cluster}
	}
	return sz
}

// subSeed derives an independent generator seed from the run seed.
func subSeed(seed int64, label string, i int) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	h.Write([]byte(label))
	return int64(h.Sum64() >> 1)
}

// database is one generated job database and how requests address it.
type database struct {
	data    *dataset.Dataset
	path    string // the basket file the daemon reads (dataset_path jobs)
	baskets string // the inline basket text (baskets jobs)
}

// variant returns n transactions of a Quest shape. The generated database,
// and so the work of mining it, is fixed by label and index; the run seed
// renames its items by a seeded permutation of the universe and shuffles
// its transactions. Renaming and reordering keep every itemset's support,
// so each seed gives different bytes, different answers and the same
// mining work, and runs with different seeds differ by request order
// alone.
func variant(p quest.Params, label string, index int, seed int64, n int) []dataset.Transaction {
	p.Seed = subSeed(0, label, index)
	p.NumTransactions = n
	base := quest.Generate(p).Transactions()
	rng := rand.New(rand.NewSource(subSeed(seed, label, index)))
	name := rng.Perm(p.NumItems)
	txs := make([]dataset.Transaction, n)
	for i, j := range rng.Perm(n) {
		items := make([]itemset.Item, len(base[j]))
		for k, it := range base[j] {
			items[k] = itemset.Item(name[it])
		}
		txs[i] = itemset.New(items...)
	}
	return txs
}

// makeDatabases generates the workload's databases. Path-addressed
// workloads also write each to a basket file under dir.
func makeDatabases(wl workload, sz sizing, seed int64, dir string) ([]*database, error) {
	dbs := make([]*database, sz.dbs)
	for i := range dbs {
		d := dataset.Empty(sz.shape.NumItems)
		for _, t := range variant(sz.shape, wl.name, i, seed, sz.shape.NumTransactions) {
			d.Append(t)
		}
		db := &database{data: d}
		if wl.name == "jobs-dense" {
			db.path = filepath.Join(dir, fmt.Sprintf("db%d.basket", i))
			if err := os.WriteFile(db.path, basketText(d.Transactions()), 0o644); err != nil {
				return nil, err
			}
		} else {
			db.baskets = string(basketText(d.Transactions()))
		}
		dbs[i] = db
	}
	return dbs, nil
}

// basketText renders transactions in the basket text format.
func basketText(txs []dataset.Transaction) []byte {
	var b []byte
	for _, t := range txs {
		for i, it := range t {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(it), 10)
		}
		b = append(b, '\n')
	}
	return b
}

// jobReq is one request of a client's job sequence.
type jobReq struct {
	DB       int
	MinCount int64
	Repeat   bool // an exact repeat of an earlier request of the same client
}

// strata is how many bands of the min-count range a job sequence cycles
// through; see jobSequences.
const strata = 10

// jobSequences deals every distinct (database, min-count) pair of the
// support range to the clients, round-robin. The pairs are drawn in rounds
// that take one pair from each of strata equal bands of the min-count range,
// the bands in an order shuffled by seed, so every stretch of a sequence
// mixes cheap (high-support) and costly (low-support) requests alike: a
// window then measures the same cost mix whatever the seed and its length.
// Every repeatEvery-th request of a client repeats one of that client's
// earlier requests, already answered, so it should hit the result cache;
// distinct pairs never collide across clients.
func jobSequences(sz sizing, seed int64) [][]jobReq {
	n := sz.shape.NumTransactions
	lo := dataset.MinCountFor(n, sz.supLo)
	hi := int64(float64(n) * sz.supHi)
	rng := rand.New(rand.NewSource(subSeed(seed, "pairs", 0)))
	bands := make([][]jobReq, strata)
	for db := 0; db < sz.dbs; db++ {
		for mc := lo; mc <= hi; mc++ {
			b := int((mc - lo) * strata / (hi - lo + 1))
			bands[b] = append(bands[b], jobReq{DB: db, MinCount: mc})
		}
	}
	for _, b := range bands {
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
	var pairs []jobReq
	for left := true; left; {
		left = false
		for _, b := range rng.Perm(strata) {
			if len(bands[b]) > 0 {
				pairs = append(pairs, bands[b][0])
				bands[b] = bands[b][1:]
				left = true
			}
		}
	}
	seqs := make([][]jobReq, clients)
	for c := range seqs {
		crng := rand.New(rand.NewSource(subSeed(seed, "repeats", c)))
		var fresh []jobReq
		for i := c; i < len(pairs); i += clients {
			if len(seqs[c])%repeatEvery == repeatEvery-1 {
				r := fresh[crng.Intn(len(fresh))]
				r.Repeat = true
				seqs[c] = append(seqs[c], r)
			}
			seqs[c] = append(seqs[c], pairs[i])
			fresh = append(fresh, pairs[i])
		}
	}
	return seqs
}

// jobBody encodes the request's POST /v1/jobs body.
func jobBody(wl workload, sz sizing, dbs []*database, r jobReq) ([]byte, error) {
	sup := float64(r.MinCount) / float64(sz.shape.NumTransactions)
	if got := dataset.MinCountFor(sz.shape.NumTransactions, sup); got != r.MinCount {
		return nil, fmt.Errorf("support %v maps to min-count %d, want %d", sup, got, r.MinCount)
	}
	return json.Marshal(jobSpec(wl, dbs[r.DB], sup))
}

// jobSpec is the request a workload sends for one database and support.
func jobSpec(wl workload, db *database, sup float64) server.JobRequest {
	if wl.name == "jobs-dense" {
		return server.JobRequest{DatasetPath: db.path, MinSupport: sup, Miner: server.MinerPincer, Counter: "tidlist"}
	}
	return server.JobRequest{Baskets: db.baskets, MinSupport: sup, Miner: server.MinerAuto}
}

// feed is one client's seeded stream of batches: each batch draws its
// transactions at random from the client's pool, a seeded variant of a
// fixed Quest database (see variant).
type feed struct {
	pool  []dataset.Transaction
	rng   *rand.Rand
	batch int
}

func newFeed(sz sizing, seed int64, client int) *feed {
	return &feed{
		pool:  variant(sz.feed, "feed", client, seed, sz.feedPool),
		rng:   rand.New(rand.NewSource(subSeed(seed, "batches", client))),
		batch: sz.feed.NumTransactions,
	}
}

// next returns the feed's next batch, normalized the way the maintainer
// normalizes transactions.
func (f *feed) next() []dataset.Transaction {
	txs := make([]dataset.Transaction, f.batch)
	for i := range txs {
		txs[i] = itemset.New(f.pool[f.rng.Intn(len(f.pool))]...)
	}
	return txs
}

// batchBody encodes a POST /v1/streams/{id}/batches body.
func batchBody(seq int64, txs []dataset.Transaction) ([]byte, error) {
	return json.Marshal(server.BatchRequest{Seq: seq, Baskets: string(basketText(txs))})
}
