package main

import (
	"fmt"
	"sort"
	"time"

	"pincer/internal/server"
)

// metricDef names one reported metric and its unit. The tables below are
// the benchmark's metric vocabulary; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

// endToEnd are what a pincerd client sees, from the untraced run. An "op"
// is a job (submit to result document) on jobs-* and a batch
// acknowledgement on stream-*.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's per-layer metrics: medians per job or per
// batch unless the name says otherwise. A layer that a workload does not
// run reports 0.
var perLayer = []metricDef{
	{"server.submit_ms", "ms"},
	{"server.status_ms", "ms"},
	{"server.polls_per_job", "count"},
	{"server.result_ms", "ms"},
	{"server.residence_ms", "ms"},
	{"server.batch_ms", "ms"},
	{"server.cache_hit_ratio", "1"},
	{"server.dataset_cache_hit_ratio", "1"},
	{"server.spool_bytes_per_op", "B"},
	{"dataset.load_ms", "ms"},
	{"dataset.profile_ms", "ms"},
	{"dataset.scanner_ms", "ms"},
	{"counting.select_us", "us"},
	{"counting.count_ms", "ms"},
	{"counting.pairs_ms", "ms"},
	{"counting.count_share", "1"},
	{"counting.intersections_per_job", "count"},
	{"core.mine_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.passes_per_job", "count"},
	{"core.candidates_per_job", "count"},
	{"core.mfcs_counted_per_job", "count"},
	{"core.allocs_per_job", "count"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.bytes_per_save", "B"},
	{"incremental.append_ms", "ms"},
	{"incremental.verify_ms", "ms"},
	{"incremental.remine_ms", "ms"},
	{"incremental.remine_ratio", "1"},
	{"incremental.checked_per_batch", "count"},
	{"parallel.count_ms", "ms"},
	{"cluster.rpc_ms", "ms"},
	{"cluster.worker_ms", "ms"},
	{"cluster.wire_ms", "ms"},
	{"cluster.rpcs_per_batch", "count"},
	{"cluster.bytes_per_batch", "B"},
	{"cluster.shard_loads_per_batch", "count"},
	{"cluster.retries", "count"},
	{"runtime.gc_cpu_share", "1"},
	{"runtime.cpu_util", "1"},
	{"trace.overhead_ms", "ms"},
}

// opTree is one replayed operation's span tree, summarized per span name.
type opTree struct {
	root  span
	dur   map[string]int64 // summed span durations by name
	self  map[string]int64 // summed self times by name
	pairs int64            // counting time spent in CountPairs
	saves []span
}

// opTrees summarizes the replayed operations whose root spans are roots,
// in that order. It fails unless the spans nest: every span ends after it
// starts, lies inside its parent, and starts no earlier than its previous
// sibling ended. Each self time (a span minus its children) is then at
// least 0, and an operation's self times sum to its wall clock.
func opTrees(spans []span, roots []int) ([]opTree, error) {
	children := map[int][]int{}
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	trees := make([]opTree, 0, len(roots))
	for _, r := range roots {
		t := opTree{root: spans[r], dur: map[string]int64{}, self: map[string]int64{}}
		var walk func(i int) error
		walk = func(i int) error {
			s := spans[i]
			if s.end < s.start {
				return fmt.Errorf("span %s ends before it starts", s.name)
			}
			self, from := s.dur(), s.start
			for _, c := range children[i] {
				if spans[c].start < from || spans[c].end > s.end {
					return fmt.Errorf("span %s in %s overlaps its parent's bounds or an earlier sibling", spans[c].name, s.name)
				}
				from = spans[c].end
				self -= spans[c].dur()
				if err := walk(c); err != nil {
					return err
				}
			}
			t.dur[s.name] += s.dur()
			t.self[s.name] += self
			if s.name == "counting.count" && s.kind == "pairs" {
				t.pairs += s.dur()
			}
			if s.name == "checkpoint.save" {
				t.saves = append(t.saves, s)
			}
			return nil
		}
		if err := walk(r); err != nil {
			return nil, fmt.Errorf("replayed %s: %w", t.root.kind, err)
		}
		trees = append(trees, t)
	}
	return trees, nil
}

// covered returns how much of [lo, hi] the spans cover.
func covered(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var n, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		n += v.b - max(v.a, end)
		end = v.b
	}
	return n
}

// layerMetrics computes every per-layer metric of a traced run from the
// traced window, the spans, the replays, and the untraced comparison window.
func layerMetrics(wl workload, tr, untraced *served, spans []span, jobs []jobReplay, batches []batchReplay) (map[string]float64, error) {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	var roots []int
	for _, j := range jobs {
		roots = append(roots, j.root)
	}
	for _, b := range batches {
		roots = append(roots, b.root)
	}
	trees, err := opTrees(spans, roots)
	if err != nil {
		return nil, err
	}
	perOp := func(f func(t opTree) float64) float64 {
		xs := make([]float64, len(trees))
		for i, t := range trees {
			xs[i] = f(t)
		}
		return median(xs)
	}
	served := map[string][]float64{}
	var workerSpans []span
	for _, s := range spans {
		switch {
		case s.name == "server" && s.start >= tr.logStart && s.end <= tr.logEnd:
			served[s.kind] = append(served[s.kind], ms(s.dur()))
		case s.name == "cluster.worker" && s.kind != "ping":
			workerSpans = append(workerSpans, s)
		}
	}
	good := successes(tr.ops)
	ops := float64(len(good))
	if ops == 0 {
		return nil, fmt.Errorf("the traced window completed no operation")
	}

	m["server.spool_bytes_per_op"] = float64(tr.spoolBytes) / ops
	m["checkpoint.save_ms"] = perOp(func(t opTree) float64 { return ms(t.dur["checkpoint.save"]) })
	var saveBytes []float64
	for _, t := range trees {
		for _, s := range t.saves {
			saveBytes = append(saveBytes, float64(s.bytes))
		}
	}
	m["checkpoint.bytes_per_save"] = median(saveBytes)
	m["runtime.gc_cpu_share"] = tr.gcShare
	m["runtime.cpu_util"] = tr.cpuUtil
	p50, err := percentile(latencies(tr.ops), 0.5)
	if err != nil {
		return nil, err
	}
	u50, err := percentile(latencies(untraced.ops), 0.5)
	if err != nil {
		return nil, err
	}
	m["trace.overhead_ms"] = p50 - u50

	if !wl.stream {
		m["server.submit_ms"] = median(served["submit"])
		m["server.status_ms"] = median(served["status"])
		m["server.result_ms"] = median(served["result"])
		var polls, residence []float64
		for _, o := range good {
			polls = append(polls, float64(o.polls))
			if r, ok := residenceMS(o.view); ok {
				residence = append(residence, r)
			}
		}
		m["server.polls_per_job"] = median(polls)
		m["server.residence_ms"] = median(residence)
		c := tr.counters
		m["server.cache_hit_ratio"] = float64(c["pincer_cache_hits_total"]) / float64(c["pincer_jobs_submitted_total"])
		if loads := c["pincer_dataset_cache_hits_total"] + c["pincer_dataset_cache_misses_total"]; loads > 0 {
			m["server.dataset_cache_hit_ratio"] = float64(c["pincer_dataset_cache_hits_total"]) / float64(loads)
		}
		m["dataset.load_ms"] = perOp(func(t opTree) float64 { return ms(t.dur["dataset.load"]) })
		m["dataset.profile_ms"] = perOp(func(t opTree) float64 { return ms(t.dur["dataset.profile"]) })
		m["dataset.scanner_ms"] = perOp(func(t opTree) float64 { return ms(t.dur["dataset.scanner"]) })
		m["counting.select_us"] = perOp(func(t opTree) float64 { return float64(t.dur["counting.select"]) / 1e3 })
		m["counting.count_ms"] = perOp(func(t opTree) float64 { return ms(t.dur["counting.count"]) })
		m["counting.pairs_ms"] = perOp(func(t opTree) float64 { return ms(t.pairs) })
		m["counting.count_share"] = perOp(func(t opTree) float64 {
			if t.dur["core.mine"] == 0 {
				return 0
			}
			return float64(t.dur["counting.count"]) / float64(t.dur["core.mine"])
		})
		m["core.mine_ms"] = perOp(func(t opTree) float64 { return ms(t.dur["core.mine"]) })
		m["core.self_ms"] = perOp(func(t opTree) float64 { return ms(t.self["core.mine"]) })
		var inter, passes, cands, mfcs, allocs []float64
		for _, j := range jobs {
			inter = append(inter, float64(j.intersections))
			passes = append(passes, float64(j.res.Stats.Passes))
			cands = append(cands, float64(j.res.Stats.Candidates))
			mfcs = append(mfcs, float64(j.res.Stats.MFCSCandidates))
			allocs = append(allocs, float64(j.allocs))
		}
		m["counting.intersections_per_job"] = median(inter)
		m["core.passes_per_job"] = median(passes)
		m["core.candidates_per_job"] = median(cands)
		m["core.mfcs_counted_per_job"] = median(mfcs)
		m["core.allocs_per_job"] = median(allocs)
		return m, nil
	}

	m["server.batch_ms"] = median(served["batch"])
	m["incremental.append_ms"] = perOp(func(t opTree) float64 { return ms(t.dur["incremental.append"]) })
	var verify, remine, checked, parallelCount []float64
	remined := 0
	for i, b := range batches {
		d := b.delta
		checked = append(checked, float64(d.Checked))
		if d.Seq > 1 {
			verify = append(verify, ms(int64(d.VerifyDuration)))
		}
		if d.Remined {
			remined++
			remine = append(remine, ms(int64(d.MineDuration)))
			parallelCount = append(parallelCount, ms(trees[i].dur["parallel.count"]))
		}
	}
	m["incremental.verify_ms"] = median(verify)
	m["incremental.remine_ms"] = median(remine)
	m["incremental.remine_ratio"] = float64(remined) / float64(len(batches))
	m["incremental.checked_per_batch"] = median(checked)
	m["parallel.count_ms"] = median(parallelCount)
	if wl.cluster {
		var rpc, worker, wire []float64
		for _, t := range trees {
			w := covered(workerSpans, t.root.start, t.root.end)
			rpc = append(rpc, ms(t.dur["cluster.rpc"]))
			worker = append(worker, ms(w))
			wire = append(wire, ms(t.dur["cluster.rpc"]-w))
		}
		m["cluster.rpc_ms"] = median(rpc)
		m["cluster.worker_ms"] = median(worker)
		m["cluster.wire_ms"] = median(wire)
		var wireBytes int64
		for _, s := range workerSpans {
			if s.start >= tr.logStart && s.end <= tr.logEnd {
				wireBytes += s.bytes
			}
		}
		c := tr.counters
		m["cluster.rpcs_per_batch"] = float64(c["pincer_cluster_rpcs_total"]) / ops
		m["cluster.bytes_per_batch"] = float64(wireBytes) / ops
		m["cluster.shard_loads_per_batch"] = float64(c["pincer_cluster_shards_pushed_total"]) / ops
		m["cluster.retries"] = float64(c["pincer_cluster_rpc_retries_total"] + c["pincer_cluster_local_counts_total"] + c["pincer_cluster_degraded_total"])
	}
	return m, nil
}

// successes returns the operations that succeeded.
func successes(ops [][]op) []op {
	var out []op
	for _, cops := range ops {
		for _, o := range cops {
			if o.err == nil {
				out = append(out, o)
			}
		}
	}
	return out
}

// latencies returns the successful operations' latencies in milliseconds.
func latencies(ops [][]op) []float64 {
	var xs []float64
	for _, o := range successes(ops) {
		xs = append(xs, ms(int64(o.lat)))
	}
	return xs
}

// residenceMS is the job's time inside the daemon, from its view's
// timestamps.
func residenceMS(v server.JobView) (float64, bool) {
	c, err1 := time.Parse(time.RFC3339Nano, v.CreatedAt)
	f, err2 := time.Parse(time.RFC3339Nano, v.FinishedAt)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return ms(int64(f.Sub(c))), true
}
