package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"

	"pincer/internal/apriori"
	"pincer/internal/checkpoint"
	"pincer/internal/cluster"
	"pincer/internal/core"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/fpmax"
	"pincer/internal/incremental"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/parallel"
	"pincer/internal/server"
	"pincer/internal/vertical"
)

// The library replay re-runs every distinct served job, and every stream's
// batch sequence, one operation at a time through the layers' public
// functions with the options the server maps each request to. Decorators on
// the public seams record nested spans, so each replayed operation splits
// into per-layer self times that add up to its wall clock. Running one
// operation at a time makes the timings uncontended and the allocation
// counts exact.

// replayRoot names the root span of one replayed operation.
const replayRoot = "replay"

// jobReplay is one replayed job.
type jobReplay struct {
	root          int // index of the root span
	res           *mfi.Result
	allocs        uint64 // heap allocations of the mine
	intersections int64
}

// replayJobs replays each distinct answered job in the order the clients
// completed them and compares every replayed answer with the served one.
// It returns the replays that matched, and one error per replay that
// failed or differed.
func replayJobs(log *spanLog, s *system, ops [][]op, dir string) (out []jobReplay, failures []error) {
	type pair struct {
		db int
		mc int64
	}
	seen := map[pair]bool{}
	for _, cops := range ops {
		for _, o := range cops {
			p := pair{o.job.DB, o.job.MinCount}
			if o.err != nil || seen[p] {
				continue
			}
			seen[p] = true
			r, err := replayJob(log, s.cfg, s.dbs[p.db], p.mc, filepath.Join(dir, "replay.ckpt"))
			if err == nil {
				if d := answerOf(r.res.MFS, r.res.MFSSupports).diff(docAnswer(o.doc.MFS)); d != "" {
					err = fmt.Errorf("differs from the served answer: %s", d)
				}
			}
			if err != nil {
				failures = append(failures, fmt.Errorf("replay of job %s: %w", o.doc.ID, err))
				continue
			}
			out = append(out, r)
		}
	}
	return out, failures
}

func replayJob(log *spanLog, cfg runConfig, db *database, minCount int64, ckpt string) (r jobReplay, err error) {
	r.root = log.begin(replayRoot, "job")
	defer log.end(r.root, 0)
	var d *dataset.Dataset
	log.within("dataset.load", func() {
		if db.path != "" {
			d, err = dataset.Load(db.path)
		} else {
			d, err = dataset.ReadBasket(strings.NewReader(db.baskets))
		}
	})
	if err != nil {
		return r, err
	}
	var prof dataset.Profile
	log.within("dataset.profile", func() { prof = d.Profile() })
	spec := jobSpec(cfg.wl, db, float64(minCount)/float64(d.Len()))
	miner, counter, engine := spec.Miner, spec.Counter, counting.EngineHashTree
	if miner == server.MinerAuto {
		var sel counting.Selection
		log.within("counting.select", func() { sel = counting.SelectEngine(prof) })
		miner, counter, engine = sel.Algorithm, sel.Counter, sel.Engine
	}
	var sc *dataset.MemoryScanner
	log.within("dataset.scanner", func() { sc = dataset.NewScanner(d) })
	tidlist, rep, err := counting.ParseCounterSpec(counter)
	if err != nil {
		return r, err
	}
	ckp := &tracedCheckpointer{inner: checkpoint.NewFileCheckpointer(ckpt), log: log}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	switch miner {
	case server.MinerPincer:
		var pc core.PassCounter = core.NewScanCounter(sc)
		if tidlist {
			pc = counting.NewTidListCounter(d, counting.TidListOptions{Rep: rep})
		}
		tc := &tracedCounter{inner: pc, log: log, name: "counting.count"}
		opt := core.DefaultOptions()
		opt.Engine = engine
		opt.KeepFrequent = false
		opt.Checkpointer = ckp
		opt.Counter = tc
		log.within("core.mine", func() { r.res, err = core.MineCount(sc, minCount, opt) })
		r.intersections = tc.intersections
	case server.MinerApriori:
		opt := apriori.DefaultOptions()
		opt.Engine = engine
		opt.KeepFrequent = false
		opt.Checkpointer = ckp
		log.within("apriori.mine", func() { r.res, err = apriori.MineCount(sc, minCount, opt) })
	case server.MinerVertical:
		opt := vertical.DefaultOptions()
		opt.KeepFrequent = false
		log.within("vertical.mine", func() { r.res = &vertical.MineMaximal(d, spec.MinSupport, opt).Result })
	case server.MinerFPMax:
		log.within("fpmax.mine", func() { r.res = &fpmax.MineMaximalCount(d, minCount, fpmax.DefaultOptions()).Result })
	default:
		err = fmt.Errorf("no replay for the %s miner", miner)
	}
	runtime.ReadMemStats(&after)
	r.allocs = after.Mallocs - before.Mallocs
	return r, err
}

// batchReplay is one replayed stream batch.
type batchReplay struct {
	root  int
	delta incremental.Delta
}

// replayStreams replays each client's acknowledged batches through a fresh
// maintainer configured as the server configures the stream, comparing
// every delta and the final answer with what was served. It returns the
// batches that matched, and one error per batch or final answer that
// failed or differed.
func replayStreams(log *spanLog, s *system, final []*server.StreamMFSDoc, dir string) (out []batchReplay, failures []error) {
	for c, batches := range s.sent {
		mt, err := newReplayMaintainer(log, s, c, dir)
		if err != nil {
			failures = append(failures, fmt.Errorf("replay of client %d: %w", c, err))
			continue
		}
		for i, b := range batches {
			root := log.begin(replayRoot, "batch")
			ai := log.begin("incremental.append", "")
			delta, err := mt.Append(b)
			log.end(ai, 0)
			log.end(root, 0)
			if err == nil {
				err = sameDelta(delta, s.deltas[c][i])
			}
			if err != nil {
				failures = append(failures, fmt.Errorf("replay of client %d batch %d: %w", c, i+1, err))
				continue
			}
			out = append(out, batchReplay{root: root, delta: delta})
		}
		if string(maintainerAnswer(mt)) != string(docStreamAnswer(final[c])) {
			failures = append(failures, fmt.Errorf("replay of client %d: final answer differs from the served one", c))
		}
	}
	return out, failures
}

// newReplayMaintainer builds client c's replay maintainer with decorated
// counting seams: local streams count deltas with core's scan counter and
// re-mine over parallel's pass counter; clustered streams do both over the
// fleet's worker pool.
func newReplayMaintainer(log *spanLog, s *system, c int, dir string) (*incremental.Maintainer, error) {
	spec := s.cfg.sz.stream
	opt := incremental.Options{
		MinSupport:       spec.MinSupport,
		Window:           spec.Window,
		Counter:          spec.Counter,
		Workers:          spec.Workers,
		MineCheckpointer: &tracedCheckpointer{inner: checkpoint.NewFileCheckpointer(filepath.Join(dir, fmt.Sprintf("stream%d.ckpt", c))), log: log},
	}
	if spec.Cluster {
		id := fmt.Sprintf("replay%d", c)
		var sc *cluster.StreamCoordinator
		log.within("cluster.new", func() { sc = cluster.NewStreamCoordinator(id, s.f.pool, nil) })
		opt.DeltaCounter = func(seq int64, side string, d *dataset.Dataset, sets []itemset.Itemset) []int64 {
			i := log.begin("cluster.rpc", "delta")
			defer log.end(i, 0)
			return sc.CountSets(seq, side, d, sets)
		}
		opt.MineCounter = func(seq int64, d *dataset.Dataset) core.PassCounter {
			var coord *cluster.Coordinator
			var err error
			log.within("cluster.new", func() { coord, err = cluster.NewCoordinator(fmt.Sprintf("%s.b%d", id, seq), d, s.f.pool, nil) })
			if err != nil {
				return nil // the server, too, re-mines locally then
			}
			return &tracedCounter{inner: coord, log: log, name: "cluster.rpc"}
		}
	} else {
		opt.DeltaCounter = func(_ int64, _ string, d *dataset.Dataset, sets []itemset.Itemset) []int64 {
			i := log.begin("counting.delta", "")
			defer log.end(i, 0)
			bits := make([]*itemset.Bitset, len(sets))
			for j, set := range sets {
				bits[j] = itemset.BitsetOf(d.NumItems(), set)
			}
			_, counts := core.NewScanCounter(dataset.NewScanner(d)).CountCandidates(counting.EngineHashTree, nil, sets, bits)
			return counts
		}
		opt.MineCounter = func(_ int64, d *dataset.Dataset) core.PassCounter {
			var pc core.PassCounter
			log.within("parallel.new", func() { pc = parallel.NewPassCounter(d, spec.Workers) })
			return &tracedCounter{inner: pc, log: log, name: "parallel.count"}
		}
	}
	var mt *incremental.Maintainer
	var err error
	log.within("incremental.new", func() { mt, err = incremental.New(opt) })
	return mt, err
}

// sameDelta compares a replayed delta with the served delta document.
func sameDelta(d incremental.Delta, doc *server.StreamDeltaDoc) error {
	if d.Seq != doc.Seq || d.Appended != doc.Appended || d.Evicted != doc.Evicted ||
		d.Transactions != doc.Transactions || d.MinCount != doc.MinCount ||
		d.Remined != doc.Remined || d.Reason != doc.Reason || d.Checked != doc.Checked {
		return fmt.Errorf("delta %+v differs from the served %+v", d, *doc)
	}
	return nil
}
