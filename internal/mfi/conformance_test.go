package mfi_test

// Cross-miner conformance corpus: four small deterministic Quest databases
// committed under testdata/conformance/ together with golden files pinning
// the exact maximal frequent set (with supports) and the exact complete
// frequent set at two minimum supports each. Every miner of the plan table
// (internal/plan), run through plan.Run — sequential Pincer-Search
// (scan-counted and tid-list-counted at 1 and 4 workers), Apriori
// (sequential and count-distributed), the top-down miner, maximal Eclat,
// the FP-max pattern-tree miner, AIS, full Eclat, the adaptive auto plan,
// the count-distribution parallel Pincer-Search at 1 and 4 workers, and
// Pincer-Search counting over a live two-worker HTTP cluster — must
// reproduce the goldens byte for byte; the complete-frequent-set goldens are
// additionally pinned by both Apriori and full Eclat, two algorithms with no
// shared counting code.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/mfi -run TestConformance -update

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"pincer/internal/apriori"
	"pincer/internal/cluster"
	"pincer/internal/core"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/plan"
	"pincer/internal/quest"
	"pincer/internal/vertical"
)

var update = flag.Bool("update", false, "regenerate the conformance corpus and golden files")

const conformanceDir = "testdata/conformance"

// corpusEntry is one committed database with the supports it is mined at.
type corpusEntry struct {
	name    string
	params  quest.Params
	minsups []float64
}

// The corpus spans the shapes that exercise different miners: dense
// concentrated data (where top-down search shines), sparse shallow data,
// high item correlation (long maximal sets), and a wide mix of short
// patterns. Databases are deliberately small — the point is exactness, not
// scale — and item universes stay ≤ 14 because the pure top-down miner must
// also terminate: its frontier descends level by level from the full set of
// frequent items, which is combinatorial in the universe size.
var corpus = []corpusEntry{
	{
		name: "dense",
		params: quest.Params{
			NumTransactions: 300, AvgTxLen: 8, AvgPatternLen: 4,
			NumPatterns: 5, NumItems: 12, Seed: 11,
		},
		minsups: []float64{0.05, 0.15},
	},
	{
		name: "sparse",
		params: quest.Params{
			NumTransactions: 400, AvgTxLen: 5, AvgPatternLen: 3,
			NumPatterns: 10, NumItems: 14, Seed: 22,
		},
		minsups: []float64{0.05, 0.15},
	},
	{
		name: "correlated",
		params: quest.Params{
			NumTransactions: 250, AvgTxLen: 9, AvgPatternLen: 5,
			NumPatterns: 4, NumItems: 12, CorrelationLevel: 0.9, Seed: 33,
		},
		minsups: []float64{0.15, 0.3},
	},
	{
		name: "wide",
		params: quest.Params{
			NumTransactions: 500, AvgTxLen: 4, AvgPatternLen: 2,
			NumPatterns: 12, NumItems: 14, Seed: 44,
		},
		minsups: []float64{0.05, 0.2},
	},
}

func basketPath(name string) string { return filepath.Join(conformanceDir, name+".basket") }

func goldenPath(name string, minsup float64, kind string) string {
	return filepath.Join(conformanceDir, fmt.Sprintf("%s.sup%g.%s.golden", name, minsup, kind))
}

// renderSets renders itemsets with their supports into the canonical golden
// form — one "item item ...\tsupport" line per set, sorted — so any two
// miners that agree on the answer produce byte-identical output.
func renderSets(sets []itemset.Itemset, supports []int64) []byte {
	lines := make([]string, len(sets))
	for i, s := range sets {
		var b bytes.Buffer
		for j, it := range s {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", it)
		}
		fmt.Fprintf(&b, "\t%d", supports[i])
		lines[i] = b.String()
	}
	sort.Strings(lines)
	var out bytes.Buffer
	for _, l := range lines {
		out.WriteString(l)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// renderResultMFS renders a run's maximal frequent set.
func renderResultMFS(res *mfi.Result) []byte {
	return renderSets(res.MFS, res.MFSSupports)
}

// renderFrequent renders a run's complete frequent set.
func renderFrequent(freq *itemset.Set) []byte {
	sets := make([]itemset.Itemset, 0, freq.Len())
	supports := make([]int64, 0, freq.Len())
	freq.Each(func(x itemset.Itemset, c int64) {
		sets = append(sets, x)
		supports = append(supports, c)
	})
	return renderSets(sets, supports)
}

// loadCorpus reads a committed database.
func loadCorpus(t *testing.T, name string) *dataset.Dataset {
	t.Helper()
	f, err := os.Open(basketPath(name))
	if err != nil {
		t.Fatalf("open corpus %s (run with -update to generate): %v", name, err)
	}
	defer f.Close()
	d, err := dataset.ReadBasket(f)
	if err != nil {
		t.Fatalf("parse corpus %s: %v", name, err)
	}
	return d
}

// updateCorpus regenerates one database and its goldens from the reference
// miner (Apriori with the complete frequent set retained).
func updateCorpus(t *testing.T, e corpusEntry) {
	t.Helper()
	if err := os.MkdirAll(conformanceDir, 0o755); err != nil {
		t.Fatal(err)
	}
	d := quest.Generate(e.params)
	var buf bytes.Buffer
	if err := dataset.WriteBasket(&buf, d); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basketPath(e.name), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, minsup := range e.minsups {
		opt := apriori.DefaultOptions()
		opt.KeepFrequent = true
		res, err := apriori.MineCount(dataset.NewScanner(d), d.MinCount(minsup), opt)
		if err != nil {
			t.Fatalf("%s sup=%g: reference apriori: %v", e.name, minsup, err)
		}
		if err := os.WriteFile(goldenPath(e.name, minsup, "mfs"), renderResultMFS(res), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(e.name, minsup, "freq"), renderFrequent(res.Frequent), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("updated corpus %s (%d tx)", e.name, d.Len())
}

func readGolden(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	return data
}

// conformancePlans are the plans every corpus database is mined with,
// named as the golden subtests have always been named. TestConformance
// fails if a miner of the plan table has no plan here.
var conformancePlans = []struct {
	name string
	opt  plan.Options
}{
	{"pincer", plan.Options{Miner: plan.Pincer}},
	{"pincer-tidlist-w1", plan.Options{Miner: plan.Pincer, Counter: "tidlist"}},
	{"pincer-tidlist-w4", plan.Options{Miner: plan.Parallel, Counter: "tidlist", Workers: 4}},
	{"apriori", plan.Options{Miner: plan.Apriori}},
	{"topdown", plan.Options{Miner: plan.Topdown}},
	{"vertical", plan.Options{Miner: plan.Vertical}},
	{"fpmax", plan.Options{Miner: plan.FPMax}},
	{"parallel-w1", plan.Options{Miner: plan.Parallel, Workers: 1}},
	{"parallel-w4", plan.Options{Miner: plan.Parallel, Workers: 4}},
	{"apriori-parallel-w4", plan.Options{Miner: plan.Apriori, Workers: 4}},
	{"auto", plan.Options{Miner: plan.Auto}},
	{"ais", plan.Options{Miner: plan.AIS}},
	{"eclat", plan.Options{Miner: plan.Eclat}},
}

// mineOnCluster runs the pincer plan with counting distributed over a live
// coordinator/worker cluster (httptest workers, real HTTP/JSON wire): the
// distributed merge must reproduce the goldens byte for byte.
func mineOnCluster(t *testing.T, d *dataset.Dataset, minsup float64, workers int) (*mfi.Result, error) {
	t.Helper()
	var addrs []string
	var servers []*httptest.Server
	for i := 0; i < workers; i++ {
		srv := httptest.NewServer(cluster.NewWorker(cluster.WorkerConfig{ID: fmt.Sprintf("w%d", i)}))
		servers = append(servers, srv)
		addrs = append(addrs, srv.URL)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	pool, err := cluster.NewPool(addrs, cluster.PoolConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		LivenessDeadline:  5 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	pool.Start()
	defer pool.Close()
	coord, err := cluster.NewCoordinator("conformance", d, pool, nil)
	if err != nil {
		return nil, err
	}
	res, err := plan.Run(context.Background(), plan.Source{Data: d}, minsup, plan.Options{PassCounter: coord})
	if err != nil {
		return nil, err
	}
	doc := coord.Doc()
	if doc.Degraded {
		return nil, fmt.Errorf("healthy conformance cluster degraded: %s", doc.DegradedReason)
	}
	if doc.RPCs == 0 {
		return nil, fmt.Errorf("conformance cluster issued no RPCs — counting did not distribute")
	}
	return res, nil
}

func diffGolden(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("%s: output differs from golden\n--- got ---\n%s--- want ---\n%s", label, got, want)
}

// CountFrequent must equal the enumerated count on every corpus MFS.
func TestCountFrequentOnCorpus(t *testing.T) {
	for _, e := range corpus {
		d := loadCorpus(t, e.name)
		for _, minsup := range e.minsups {
			res, err := core.Mine(dataset.NewScanner(d), minsup, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := mfi.CountFrequent(res.MFS), int64(len(mfi.Expand(res.MFS, 0))); got != want {
				t.Errorf("%s at %g: CountFrequent = %d, Expand has %d", e.name, minsup, got, want)
			}
		}
	}
}

// TestConformance runs every plan against every corpus database at every
// pinned support and diffs the exact MFS + supports against the goldens.
func TestConformance(t *testing.T) {
	planned := map[string]bool{}
	for _, p := range conformancePlans {
		planned[p.opt.Miner] = true
	}
	for _, m := range plan.Miners(false) {
		if !planned[m] {
			t.Errorf("the plan table's %s miner has no conformance plan", m)
		}
	}
	if *update {
		for _, e := range corpus {
			updateCorpus(t, e)
		}
	}
	for _, e := range corpus {
		e := e
		t.Run(e.name, func(t *testing.T) {
			d := loadCorpus(t, e.name)
			for _, minsup := range e.minsups {
				minsup := minsup
				t.Run(fmt.Sprintf("sup%g", minsup), func(t *testing.T) {
					want := readGolden(t, goldenPath(e.name, minsup, "mfs"))
					minCount := d.MinCount(minsup)
					for _, p := range conformancePlans {
						p := p
						t.Run(p.name, func(t *testing.T) {
							res, err := plan.Run(context.Background(), plan.Source{Data: d}, minsup, p.opt)
							if err != nil {
								t.Fatalf("%s: %v", p.name, err)
							}
							diffGolden(t, p.name, renderResultMFS(res), want)
						})
					}
					t.Run("pincer-cluster-w2", func(t *testing.T) {
						res, err := mineOnCluster(t, d, minsup, 2)
						if err != nil {
							t.Fatalf("pincer-cluster-w2: %v", err)
						}
						diffGolden(t, "pincer-cluster-w2", renderResultMFS(res), want)
					})

					// The complete frequent set, pinned independently by
					// Apriori and full Eclat.
					wantFreq := readGolden(t, goldenPath(e.name, minsup, "freq"))
					t.Run("frequent-apriori", func(t *testing.T) {
						opt := apriori.DefaultOptions()
						opt.KeepFrequent = true
						res, err := apriori.MineCount(dataset.NewScanner(d), minCount, opt)
						if err != nil {
							t.Fatal(err)
						}
						diffGolden(t, "apriori frequent set", renderFrequent(res.Frequent), wantFreq)
					})
					t.Run("frequent-eclat", func(t *testing.T) {
						opt := vertical.DefaultOptions()
						opt.KeepFrequent = true
						res := vertical.Eclat(d, minsup, opt)
						diffGolden(t, "eclat frequent set", renderFrequent(res.Frequent), wantFreq)
					})
				})
			}
		})
	}
}
