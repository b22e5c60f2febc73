package counting

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"pincer/internal/dataset"
	"pincer/internal/itemset"
)

// splitFeed feeds a dataset split into contiguous parts, each counted on
// its own goroutine with its own bitsets; a shard's panic is re-raised on
// the caller.
type splitFeed struct{ parts []*dataset.Dataset }

func (f splitFeed) Shards() int { return len(f.parts) }

func (f splitFeed) Pass(open func(int) func(itemset.Itemset, *itemset.Bitset)) {
	var wg sync.WaitGroup
	failures := make([]interface{}, len(f.parts))
	for s, p := range f.parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { failures[s] = recover() }()
			add := open(s)
			bits := p.Bitsets()
			for i, tx := range p.Transactions() {
				add(tx, bits[i])
			}
		}()
	}
	wg.Wait()
	for _, r := range failures {
		if r != nil {
			panic(r)
		}
	}
}

// subsetsOf returns up to max k-subsets of the universe [0, n) in
// lexicographic order; sets of one size form an antichain.
func subsetsOf(n, k, max int) []itemset.Itemset {
	var out []itemset.Itemset
	var walk func(from int, cur itemset.Itemset)
	walk = func(from int, cur itemset.Itemset) {
		if len(out) == max {
			return
		}
		if len(cur) == k {
			out = append(out, cur.Clone())
			return
		}
		for i := from; i < n; i++ {
			walk(i+1, append(cur, itemset.Item(i)))
		}
	}
	walk(0, nil)
	return out
}

// TestScanCounterMatchesSupport checks the one scan-counting pass body
// over the sequential feed and over 2–4 concurrent shards: item, pair and
// candidate counts (every engine) and element counts on both sides of the
// direct-test threshold equal brute-force subset counts, and CountSets
// counts a list that is no antichain.
func TestScanCounterMatchesSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		d := randomDataset(rng)
		universe := d.NumItems()
		counters := []*ScanCounter{NewScanCounter(dataset.NewScanner(d))}
		for _, n := range []int{2, 4} {
			counters = append(counters, NewFeedCounter(splitFeed{d.Partitions(n)}))
		}
		check := func(label string, sets []itemset.Itemset, got []int64) {
			t.Helper()
			if len(got) != len(sets) {
				t.Fatalf("trial %d %s: %d counts for %d sets", trial, label, len(got), len(sets))
			}
			for i, s := range sets {
				if want := d.Support(s); got[i] != want {
					t.Fatalf("trial %d %s: support(%v) = %d, want %d", trial, label, s, got[i], want)
				}
			}
		}
		elems := subsetsOf(universe, universe/2, 40)
		cands := subsetsOf(universe, 2+rng.Intn(2), 60)
		live := d.PresentItems()
		for _, c := range counters {
			for _, es := range [][]itemset.Itemset{elems[:min(len(elems), directElemsMax)], elems} {
				bits := make([]*itemset.Bitset, len(es))
				for i, e := range es {
					bits[i] = itemset.BitsetOf(universe, e)
				}
				items, ec := c.CountItems(universe, es, bits)
				check("items elems", es, ec)
				for i, n := range items {
					if want := d.Support(itemset.Itemset{itemset.Item(i)}); n != want {
						t.Fatalf("trial %d: item %d = %d, want %d", trial, i, n, want)
					}
				}
				tri, ec := c.CountPairs(universe, live, es, bits)
				check("pairs elems", es, ec)
				tri.Each(func(x, y itemset.Item, n int64) {
					if want := d.Support(itemset.New(x, y)); n != want {
						t.Fatalf("trial %d: pair {%d,%d} = %d, want %d", trial, x, y, n, want)
					}
				})
				for _, e := range []Engine{EngineList, EngineHashTree, EngineTrie} {
					cc, ec := c.CountCandidates(e, cands, es, bits)
					check(e.String()+" elems", es, ec)
					check(e.String()+" candidates", cands, cc)
				}
			}
			sets := append(append([]itemset.Itemset(nil), elems...), itemset.Itemset{})
			for _, e := range elems {
				sets = append(sets, e[:len(e)/2])
			}
			bits := make([]*itemset.Bitset, len(sets))
			for i, s := range sets {
				bits[i] = itemset.BitsetOf(universe, s)
			}
			check("sets", sets, c.CountSets(sets, bits))
		}
	}
}

// TestScanCounterCancel pins cancellation inside a pass: a bound context
// that is already cancelled stops every shard at its first check with the
// Canceled sentinel.
func TestScanCounterCancel(t *testing.T) {
	d := randomDataset(rand.New(rand.NewSource(5)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []*ScanCounter{
		NewScanCounter(dataset.NewScanner(d)),
		NewFeedCounter(splitFeed{d.Partitions(3)}),
	} {
		c.BindContext(ctx, 1)
		func() {
			defer func() {
				cerr, ok := recover().(*Canceled)
				if !ok || !errors.Is(cerr, context.Canceled) {
					t.Errorf("recovered %v, want *Canceled wrapping context.Canceled", cerr)
				}
			}()
			c.CountItems(d.NumItems(), nil, nil)
		}()
	}
}
