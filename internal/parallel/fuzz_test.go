package parallel

import (
	"sort"
	"strconv"
	"testing"

	"pincer/internal/core"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
)

// countersSeeds are FuzzCountersAgree's seed inputs (FuzzPincerMatchesApriori's
// encoding: items in a 16-item universe, the high bit ending a transaction).
var countersSeeds = [][]byte{
	{2, 1, 2, 0x83, 1, 2, 0x83, 1, 0x82},
	{1, 0x80},
	{3, 5, 6, 7, 0x85, 5, 6, 0x87},
	{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0x8f},
	{7, 1, 3, 5, 0x87, 2, 4, 0x86, 1, 2, 3, 0x84, 9, 10, 0x8b, 0, 15, 0x87, 3, 0x85},
	{5, 1, 2, 3, 0x84, 1, 2, 3, 0x84, 1, 2, 0x83, 2, 3, 4, 0x85, 1, 2, 3, 4, 0x85, 6, 7, 0x88, 1, 2, 3, 0x84, 2, 3, 0x84, 1, 3, 4, 0x85, 9, 0x8a},
	// One-item transactions: the element trie's root (15 keys) is more than
	// eight times wider than each of them, so it is galloped, not merged.
	{0, 0x81, 0x83, 0x85, 0x89, 0x8c, 0x82},
}

// countersUniverse is the declared item universe: transactions use items
// 0–15, and elements also draw on 16–23, which no transaction holds.
const countersUniverse = 24

// directThreshold mirrors the scan counter's element threshold: up to this
// many elements are tested directly, more go through the shared trie. The
// element lists below fall on both sides of it.
const directThreshold = 16

// decodeCounters decodes a fuzz input into a database, the live items, one
// length of bottom-up candidates (the k-subsets of the first eight live
// items, k from the first byte) and an antichain of mixed-length elements.
func decodeCounters(data []byte) (d *dataset.Dataset, live itemset.Itemset, cands, elems []itemset.Itemset) {
	d = dataset.Empty(countersUniverse)
	var cur []itemset.Item
	for _, b := range data[1:] {
		cur = append(cur, itemset.Item(b&0x0f))
		if b&0x80 != 0 {
			d.Append(itemset.New(cur...))
			cur = nil
		}
	}
	if len(cur) > 0 {
		d.Append(itemset.New(cur...))
	}
	live = d.PresentItems()
	first := live
	if len(first) > 8 {
		first = first[:8] // at most C(8,4) = 70 candidates keeps an input fast
	}
	cands = subsets(first, 2+int(data[0]%3))

	// The maximal sets among the distinct transactions, the 3-subsets of
	// items 0–7 and the pairs of items 16–23 form an antichain of mixed
	// lengths with at least 28 elements: no such pair meets the others.
	pool := append(subsets(itemset.Range(0, 8), 3), subsets(itemset.Range(16, 24), 2)...)
	pool = append(pool, d.Transactions()...)
	elems = itemset.MaximalOnly(pool)
	// Supported elements first, so the short list counts something.
	sort.SliceStable(elems, func(i, j int) bool { return d.Support(elems[i]) > d.Support(elems[j]) })
	return d, live, cands, elems
}

// subsets returns the k-subsets of s in lexicographic order.
func subsets(s itemset.Itemset, k int) []itemset.Itemset {
	var out []itemset.Itemset
	var walk func(from int, cur itemset.Itemset)
	walk = func(from int, cur itemset.Itemset) {
		if len(cur) == k {
			out = append(out, cur.Clone())
			return
		}
		for i := from; i < len(s); i++ {
			walk(i+1, append(cur, s[i]))
		}
	}
	walk(0, nil)
	return out
}

// FuzzCountersAgree is the differential test of every in-process pass
// counter: for any database, each counter's item, pair and candidate
// passes (with every engine), together with their element counts on both
// sides of the direct-test threshold, equal a brute-force subset count.
func FuzzCountersAgree(f *testing.F) {
	for _, s := range countersSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 256 {
			t.Skip()
		}
		d, live, cands, elems := decodeCounters(data)
		if d.Len() == 0 {
			t.Skip()
		}
		counters := []struct {
			name string
			new  func() core.PassCounter
		}{
			{"scan", func() core.PassCounter { return core.NewScanCounter(dataset.NewScanner(d)) }},
			{"partitioned-w1", func() core.PassCounter { return NewPassCounter(d, 1) }},
			{"partitioned-w3", func() core.PassCounter { return NewPassCounter(d, 3) }},
			{"stream-w1", func() core.PassCounter { return NewStreamPassCounter(dataset.NewScanner(d), 1) }},
			{"stream-w3", func() core.PassCounter { return NewStreamPassCounter(dataset.NewScanner(d), 3) }},
			{"tidlist-bitset", func() core.PassCounter {
				return counting.NewTidListCounter(d, counting.TidListOptions{Rep: counting.RepBitset})
			}},
			{"tidlist-list", func() core.PassCounter {
				return counting.NewTidListCounter(d, counting.TidListOptions{Rep: counting.RepList})
			}},
			{"tidlist-diffset", func() core.PassCounter {
				return counting.NewTidListCounter(d, counting.TidListOptions{Workers: 2, Rep: counting.RepDiffset})
			}},
		}
		check := func(label string, sets []itemset.Itemset, got []int64) {
			t.Helper()
			if len(got) != len(sets) {
				t.Fatalf("%s: %d counts for %d sets", label, len(got), len(sets))
			}
			for i, s := range sets {
				if want := d.Support(s); got[i] != want {
					t.Fatalf("%s: support(%v) = %d, want %d", label, s, got[i], want)
				}
			}
		}
		for _, c := range counters {
			pc := c.new()
			for _, es := range [][]itemset.Itemset{elems[:directThreshold], elems} {
				bits := make([]*itemset.Bitset, len(es))
				for i, e := range es {
					bits[i] = itemset.BitsetOf(countersUniverse, e)
				}
				label := func(pass string) string { return c.name + "/" + pass + "/elems=" + strconv.Itoa(len(es)) }

				items, ec := pc.CountItems(countersUniverse, es, bits)
				check(label("items"), es, ec)
				for i, n := range items {
					if want := d.Support(itemset.Itemset{itemset.Item(i)}); n != want {
						t.Fatalf("%s: count(%d) = %d, want %d", label("items"), i, n, want)
					}
				}

				tri, ec := pc.CountPairs(countersUniverse, live, es, bits)
				check(label("pairs"), es, ec)
				for _, p := range subsets(live, 2) {
					if got, want := tri.Count(p[0], p[1]), d.Support(p); got != want {
						t.Fatalf("%s: count(%v) = %d, want %d", label("pairs"), p, got, want)
					}
				}

				for _, e := range []counting.Engine{counting.EngineList, counting.EngineHashTree, counting.EngineTrie} {
					cc, ec := pc.CountCandidates(e, cands, es, bits)
					check(label("candidates-"+e.String()), es, ec)
					if len(cands) > 0 {
						check(label("candidates-"+e.String()), cands, cc)
					}
				}
			}
		}
	})
}
