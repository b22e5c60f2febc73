package cluster

import (
	"fmt"
	"sort"
	"testing"

	"pincer/internal/dataset"
	"pincer/internal/itemset"
)

// TestCountShardMatchesBruteForce runs the worker's shard count, kind by
// kind, over the seed databases of the in-process counters' differential
// fuzz test (internal/parallel's FuzzCountersAgree, same byte encoding) and
// checks every count against a brute-force subset count — with element
// lists on both sides of the direct-test threshold, and for the sets kind a
// list that is no antichain.
func TestCountShardMatchesBruteForce(t *testing.T) {
	seeds := [][]byte{
		{2, 1, 2, 0x83, 1, 2, 0x83, 1, 0x82},
		{1, 0x80},
		{3, 5, 6, 7, 0x85, 5, 6, 0x87},
		{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0x8f},
		{7, 1, 3, 5, 0x87, 2, 4, 0x86, 1, 2, 3, 0x84, 9, 10, 0x8b, 0, 15, 0x87, 3, 0x85},
		{5, 1, 2, 3, 0x84, 1, 2, 3, 0x84, 1, 2, 0x83, 2, 3, 4, 0x85, 1, 2, 3, 4, 0x85, 6, 7, 0x88, 1, 2, 3, 0x84, 2, 3, 0x84, 1, 3, 4, 0x85, 9, 0x8a},
	}
	const universe = 24 // transactions use items 0–15, elements also 16–23
	for si, data := range seeds {
		d := dataset.Empty(universe)
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
		live := d.PresentItems()
		// An antichain of at least 28 mixed-length elements (see the fuzz
		// test), and for the sets kind every element with its first item
		// dropped added — subsets of other sets, so no antichain.
		pool := append(kSubsets(itemset.Range(0, 8), 3), kSubsets(itemset.Range(16, 24), 2)...)
		elems := itemset.MaximalOnly(append(pool, d.Transactions()...))
		sort.SliceStable(elems, func(i, j int) bool { return d.Support(elems[i]) > d.Support(elems[j]) })
		sets := append([]itemset.Itemset(nil), elems...)
		for _, e := range elems {
			sets = append(sets, e[1:])
		}

		check := func(label string, want []itemset.Itemset, got []int64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d counts for %d sets", si, label, len(got), len(want))
			}
			for i, s := range want {
				if got[i] != d.Support(s) {
					t.Fatalf("seed %d %s: support(%v) = %d, want %d", si, label, s, got[i], d.Support(s))
				}
			}
		}
		count := func(req CountRequest) *CountResponse {
			t.Helper()
			req.NumItems = universe
			resp, err := countShard(dataset.NewScanner(d), &req, nil)
			if err != nil {
				t.Fatalf("seed %d %s: %v", si, req.Kind, err)
			}
			return resp
		}

		for _, es := range [][]itemset.Itemset{elems[:16], elems} {
			label := func(kind string) string { return fmt.Sprintf("%s/elems=%d", kind, len(es)) }
			resp := count(CountRequest{Kind: KindItems, Elems: es})
			check(label("items"), es, resp.ElemCounts)
			for i, n := range resp.ItemCounts {
				if want := d.Support(itemset.Itemset{itemset.Item(i)}); n != want {
					t.Fatalf("seed %d %s: count(%d) = %d, want %d", si, label("items"), i, n, want)
				}
			}

			resp = count(CountRequest{Kind: KindPairs, Live: live, Elems: es})
			check(label("pairs"), es, resp.ElemCounts)
			pairs := kSubsets(live, 2)
			if len(resp.PairCounts) != len(pairs) {
				t.Fatalf("seed %d %s: %d pair counts for %d pairs", si, label("pairs"), len(resp.PairCounts), len(pairs))
			}
			check(label("pairs"), pairs, resp.PairCounts) // row-major = lexicographic

			for _, engine := range []string{"", "list", "trie"} {
				cands := kSubsets(live, 3)
				resp = count(CountRequest{Kind: KindCandidates, Engine: engine, Candidates: cands, Elems: es})
				check(label("candidates-"+engine), es, resp.ElemCounts)
				check(label("candidates-"+engine), cands, resp.CandCounts)
			}
		}
		resp := count(CountRequest{Kind: KindSets, Elems: sets})
		check("sets", sets, resp.ElemCounts)
	}
}

// kSubsets returns the k-subsets of s in lexicographic order.
func kSubsets(s itemset.Itemset, k int) []itemset.Itemset {
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
