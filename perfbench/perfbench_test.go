package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"pincer/internal/checkpoint"
	"pincer/internal/cluster"
	"pincer/internal/core"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/parallel"
	"pincer/internal/quest"
)

// tinySizing shrinks a workload so that a run takes a few seconds while
// still completing enough operations for a p95: cheap jobs at high support,
// and stream feeds whose maximal sets rarely change, so most batches take
// the fast path.
func tinySizing(wl workload) sizing {
	sz := sizingFor(wl)
	sz.setups = 2
	switch {
	case wl.name == "jobs-dense":
		sz.dbs = 2
		sz.shape.NumTransactions = 1000
		sz.supLo, sz.supHi = 0.25, 0.5
	case wl.name == "jobs-sparse":
		sz.dbs = 2
		sz.shape.NumTransactions, sz.shape.NumPatterns = 1000, 200
		sz.supLo, sz.supHi = 0.05, 0.5
	default:
		sz.feed = quest.Params{NumTransactions: 20, AvgTxLen: 5, AvgPatternLen: 2, NumPatterns: 10, NumItems: 50}
		sz.feedPool = 500
		sz.stream.Window, sz.stream.MinSupport = 100, 0.5
	}
	return sz
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			sz := tinySizing(wl)
			a, b, other := inputs(t, wl, sz, 1), inputs(t, wl, sz, 1), inputs(t, wl, sz, 2)
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed gave different inputs")
			}
			if bytes.Equal(a, other) {
				t.Fatal("different seeds gave the same inputs")
			}
		})
	}
}

// inputs renders everything a workload's clients would send for a seed:
// every job request body in sequence order, or each client's first batches.
func inputs(t *testing.T, wl workload, sz sizing, seed int64) []byte {
	t.Helper()
	var out bytes.Buffer
	if wl.stream {
		for c := 0; c < clients; c++ {
			f := newFeed(sz, seed, c)
			for i := 0; i < 20; i++ {
				body, err := batchBody(int64(i+1), f.next())
				if err != nil {
					t.Fatal(err)
				}
				out.Write(body)
			}
		}
		return out.Bytes()
	}
	dir := filepath.Join(t.TempDir(), "dbs") // the same path for every call
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	dbs, err := makeDatabases(wl, sz, seed, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range dbs {
		out.Write(basketText(db.data.Transactions()))
	}
	for _, seq := range jobSequences(sz, seed) {
		for _, r := range seq {
			body, err := jobBody(wl, sz, dbs, r)
			if err != nil {
				t.Fatal(err)
			}
			out.Write(bytes.ReplaceAll(body, []byte(dir), []byte("DIR")))
		}
	}
	return out.Bytes()
}

func TestJobSequences(t *testing.T) {
	sz := sizingFor(workloads[1])
	seen := map[jobReq]bool{}
	for c, seq := range jobSequences(sz, 7) {
		var fresh []jobReq
		for i, r := range seq {
			if r.Repeat != (i%repeatEvery == repeatEvery-1) {
				t.Fatalf("client %d request %d: repeat %t", c, i, r.Repeat)
			}
			r.Repeat = false
			if seq[i].Repeat {
				if !contains(fresh, r) {
					t.Fatalf("client %d request %d repeats a request the client never sent", c, i)
				}
				continue
			}
			if seen[r] {
				t.Fatalf("client %d request %d: %+v sent twice", c, i, r)
			}
			seen[r] = true
			fresh = append(fresh, r)
		}
	}
	if want := sz.dbs * 51; len(seen) != want {
		t.Fatalf("%d distinct requests, want %d", len(seen), want)
	}
}

func contains(rs []jobReq, r jobReq) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(len(xs) - i)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Fatal("p95 of 199 samples reported with 9 beyond it")
	}
	xs = append(xs, 200)
	p95, err := percentile(xs, 0.95)
	if err != nil || p95 != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", p95, err)
	}
	if p50, err := percentile(xs, 0.5); err != nil || p50 != 100 {
		t.Fatalf("p50 of 1..200 = %v, %v; want 100", p50, err)
	}
	if _, err := percentile(xs[:15], 0.5); err == nil {
		t.Fatal("p50 of 15 samples reported with 7 beyond it")
	}
}

func TestSpanNestingIsChecked(t *testing.T) {
	// root [0,100] holding a [10,40] and b [40,90], b holding c [50,60].
	good := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 40, end: 90},
		{name: "c", parent: 2, start: 50, end: 60},
	}
	trees, err := opTrees(good, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range trees[0].self {
		total += v
	}
	if total != 100 || trees[0].self["root"] != 20 || trees[0].self["b"] != 40 {
		t.Fatalf("self times %v, want root 20, b 40, summing to 100", trees[0].self)
	}
	broken := map[string]func(s []span){
		"overlapping siblings": func(s []span) { s[2].start = 30 },
		"child escapes parent": func(s []span) { s[3].end = 95 },
		"span never closed":    func(s []span) { s[1].end = 0 },
	}
	for name, breakIt := range broken {
		s := append([]span(nil), good...)
		breakIt(s)
		if _, err := opTrees(s, []int{0}); err == nil {
			t.Errorf("%s: not detected", name)
		}
	}

	log := newSpanLog()
	outer := log.begin("outer", "")
	inner := log.begin("inner", "")
	log.end(outer, 0)
	log.end(inner, 0)
	if _, err := log.snapshot(); err == nil {
		t.Error("closing an outer span before its inner one was not detected")
	}
	log = newSpanLog()
	log.begin("outer", "")
	if _, err := log.snapshot(); err == nil {
		t.Error("a span left open was not detected")
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	var wls []string
	for _, w := range bf.Workloads {
		check(w.Name)
		wls = append(wls, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	var code []string
	for _, wl := range workloads {
		code = append(code, wl.name)
	}
	if !reflect.DeepEqual(wls, code) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", wls, code)
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		check(m.Name)
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		check(m.Name)
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) || !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json metrics differ from the code's tables")
	}

	var rat struct {
		Workloads map[string]map[string]string `json:"workloads"`
		EndToEnd  map[string]string            `json:"end_to_end"`
		PerLayer  map[string]struct {
			MeasuredAt string   `json:"measured_at"`
			Moves      string   `json:"moves"`
			On         []string `json:"on"`
		} `json:"per_layer"`
	}
	raw, err := os.ReadFile("rationale.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rat); err != nil {
		t.Fatal(err)
	}
	for _, w := range wls {
		r := rat.Workloads[w]
		if r["why"] == "" || r["stresses"] == "" || r["bypasses"] == "" {
			t.Errorf("rationale.json: workload %s lacks why, stresses or bypasses", w)
		}
	}
	for _, m := range endToEnd {
		if rat.EndToEnd[m.name] == "" {
			t.Errorf("rationale.json: no definition of %s", m.name)
		}
	}
	for _, m := range perLayer {
		r := rat.PerLayer[m.name]
		if r.MeasuredAt == "" || r.Moves == "" || len(r.On) == 0 {
			t.Errorf("rationale.json: %s lacks measured_at, moves or on", m.name)
		}
	}
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", wl.name, trace), func(t *testing.T) {
				cfg := runConfig{wl: wl, sz: tinySizing(wl), seed: 3, seconds: tinySeconds, trace: trace, start: time.Now()}
				var stderr bytes.Buffer
				res, ctx, err := runOnce(cfg, t.TempDir(), &stderr)
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("%d of %d operations failed:\n%s", res.Failed, res.Attempted, stderr.String())
				}
				var want []string
				if trace {
					for _, m := range bf.PerLayer {
						want = append(want, m.Name)
					}
				} else {
					for _, m := range bf.EndToEnd {
						want = append(want, m.Name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					}
				}
				if !trace {
					for _, m := range bf.EndToEnd {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
				if ctx.CPUs < 1 || ctx.GOMAXPROCS < 1 || ctx.Ops != res.Attempted {
					t.Errorf("bad run context %+v", ctx)
				}
				var out bytes.Buffer
				report(&out, cfg, res, ctx)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !reflect.DeepEqual(&last, res) {
					t.Errorf("last output line %q does not round-trip the result (%v)", lines[len(lines)-1], err)
				}
			})
		}
	}
}

func TestDecoratorsCountTheSame(t *testing.T) {
	d := quest.Generate(quest.Params{NumTransactions: 500, AvgTxLen: 10, AvgPatternLen: 4, NumPatterns: 30, NumItems: 60, Seed: 5})
	minCount := dataset.MinCountFor(d.Len(), 0.05)
	f, err := startFleet(filepath.Join(t.TempDir(), "spool"), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	coordinators := 0
	counters := map[string]func() core.PassCounter{
		"tidlist":  func() core.PassCounter { return counting.NewTidListCounter(d, counting.TidListOptions{}) },
		"scan":     func() core.PassCounter { return core.NewScanCounter(dataset.NewScanner(d)) },
		"parallel": func() core.PassCounter { return parallel.NewPassCounter(d, 2) },
		"cluster": func() core.PassCounter {
			coordinators++
			coord, err := cluster.NewCoordinator(fmt.Sprintf("c%d", coordinators), d, f.pool, nil)
			if err != nil {
				return nil // fails the comparison below
			}
			return coord
		},
	}
	elems := []itemset.Itemset{itemset.New(1, 2), itemset.New(3, 4, 5)}
	bits := []*itemset.Bitset{itemset.BitsetOf(d.NumItems(), elems[0]), itemset.BitsetOf(d.NumItems(), elems[1])}
	cands := []itemset.Itemset{itemset.New(1, 2, 3), itemset.New(2, 3, 4)}
	for name, mk := range counters {
		t.Run(name, func(t *testing.T) {
			plain, inner := mk(), mk()
			if plain == nil || inner == nil {
				t.Fatal("could not build the counter")
			}
			traced := &tracedCounter{inner: inner, log: newSpanLog(), name: "counting.count"}
			a1, b1 := plain.CountItems(d.NumItems(), elems, bits)
			a2, b2 := traced.CountItems(d.NumItems(), elems, bits)
			t1, c1 := plain.CountPairs(d.NumItems(), itemset.Range(0, 20), elems, bits)
			t2, c2 := traced.CountPairs(d.NumItems(), itemset.Range(0, 20), elems, bits)
			e1, f1 := plain.CountCandidates(counting.EngineHashTree, cands, elems, bits)
			e2, f2 := traced.CountCandidates(counting.EngineHashTree, cands, elems, bits)
			if !reflect.DeepEqual([][]int64{a1, b1, c1, e1, f1}, [][]int64{a2, b2, c2, e2, f2}) || !reflect.DeepEqual(t1, t2) {
				t.Fatal("the decorated counter counted differently")
			}
			if spans, err := traced.log.snapshot(); err != nil || len(spans) != 3 {
				t.Fatalf("%d spans for 3 calls (%v)", len(spans), err)
			}

			opt := core.DefaultOptions()
			opt.KeepFrequent = false
			opt.Counter = mk()
			want, err := core.MineCount(dataset.NewScanner(d), minCount, opt)
			if err != nil {
				t.Fatal(err)
			}
			log := newSpanLog()
			opt.Counter = &tracedCounter{inner: mk(), log: log, name: "counting.count"}
			opt.Checkpointer = &tracedCheckpointer{inner: checkpoint.NewFileCheckpointer(filepath.Join(t.TempDir(), "ckpt")), log: log}
			got, err := core.MineCount(dataset.NewScanner(d), minCount, opt)
			if err != nil {
				t.Fatal(err)
			}
			if diff := answerOf(got.MFS, got.MFSSupports).diff(answerOf(want.MFS, want.MFSSupports)); diff != "" {
				t.Fatalf("decorated mine differs: %s", diff)
			}
		})
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpus int) string {
		ctx, _ := json.Marshal(map[string]runContext{"context": {Workload: "jobs-dense", CPUs: cpus, GOMAXPROCS: cpus}})
		res, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"op_p50_ms": {Value: float64(cpus), Unit: "ms"}}})
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(string(ctx)+"\n"+string(res)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a", 2), write("b", 2), write("c", 4)
	if code := compareMain([]string{a, b}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("comparing like runs exited %d", code)
	}
	var stderr bytes.Buffer
	if code := compareMain([]string{a, c}, io.Discard, &stderr); code == 0 || !strings.Contains(stderr.String(), "refusing") {
		t.Fatalf("comparing 2-cpu with 4-cpu runs exited %d: %s", code, stderr.String())
	}
}
