package counting

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pincer/internal/dataset"
	"pincer/internal/itemset"
)

// trieWalkDB returns 400 transactions of 1–30 items over a 1,000-item
// universe; most items come from a hot range of 40 so that pairs of them
// have support.
func trieWalkDB() *dataset.Dataset {
	r := rand.New(rand.NewSource(7))
	d := dataset.Empty(1000)
	for i := 0; i < 400; i++ {
		items := make([]itemset.Item, 1+r.Intn(30))
		for j := range items {
			if r.Intn(3) == 0 {
				items[j] = itemset.Item(r.Intn(1000))
			} else {
				items[j] = itemset.Item(r.Intn(40))
			}
		}
		d.Append(itemset.New(items...))
	}
	return d
}

// forceWalk sets wideNodeRatio so that count always merges ("merge") or
// always gallops ("gallop") for the rest of the test or benchmark; "auto"
// keeps the measured ratio.
func forceWalk(tb testing.TB, walk string) {
	saved := wideNodeRatio
	tb.Cleanup(func() { wideNodeRatio = saved })
	switch walk {
	case "merge":
		wideNodeRatio = math.MaxInt32
	case "gallop":
		wideNodeRatio = 0
	}
}

// TestTrieWalksMatchSupport counts two element lists with the trie and
// compares every count with Dataset.Support: a wide-root list shaped like
// a negative border (every singleton of the universe plus the pairs of the
// hot items), whose root is galloped by every transaction and whose pair
// nodes are merged, and a narrow list of 20 pairs, whose root is galloped
// by 1- and 2-item transactions and merged by longer ones. Both lists also
// hold a repeated set and the empty set, which every transaction holds.
// Each list is counted with the walk chosen per node as in production and
// with each walk forced at every node.
func TestTrieWalksMatchSupport(t *testing.T) {
	d := trieWalkDB()
	var border, narrow []itemset.Itemset
	for i := 0; i < 1000; i++ {
		border = append(border, itemset.Itemset{itemset.Item(i)})
	}
	for a := 0; a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			border = append(border, itemset.New(itemset.Item(a), itemset.Item(b)))
		}
		narrow = append(narrow, itemset.New(itemset.Item(a), itemset.Item(a+1)))
	}
	border = append(border, itemset.Itemset{}, border[1000])
	narrow = append(narrow, narrow[3], itemset.Itemset{})
	for _, list := range []struct {
		name  string
		elems []itemset.Itemset
	}{{"border", border}, {"narrow", narrow}} {
		galloped, merged := 0, 0
		width := len(NewTrie(list.elems).root.items)
		for _, tx := range d.Transactions() {
			if width > wideNodeRatio*len(tx) {
				galloped++
			} else {
				merged++
			}
		}
		t.Logf("%s: %d elements; the root is galloped by %d transactions and merged by %d", list.name, len(list.elems), galloped, merged)
		if list.name == "narrow" && (galloped == 0 || merged == 0) {
			t.Fatalf("narrow list: root galloped %d times and merged %d times; want both walks", galloped, merged)
		}
		for _, walk := range []string{"auto", "merge", "gallop"} {
			t.Run(list.name+"/"+walk, func(t *testing.T) {
				forceWalk(t, walk)
				tr := NewTrie(list.elems)
				for _, tx := range d.Transactions() {
					tr.Add(tx)
				}
				for i, e := range list.elems {
					if got, want := tr.Counts()[i], d.Support(e); got != want {
						t.Fatalf("count(%v) = %d, want %d", e, got, want)
					}
				}
			})
		}
	}
}

// BenchmarkTrieWalk prices the two walks of one trie node against each
// other: a root of keys single-item children, half of a 2×keys universe,
// walked by transactions of keys/ratio items. It is the measurement behind
// wideNodeRatio. On a 2-vCPU VM (medians of 3 runs of 200,000 walks),
// galloping cost 1.01–1.36× merging below a ratio of 8, 0.97–1.06× at 8,
// and 0.49–1.02× at 16 and 32, at each of 16, 64 and 1,024 keys.
func BenchmarkTrieWalk(b *testing.B) {
	for _, keys := range []int{16, 64, 1024} {
		r := rand.New(rand.NewSource(1))
		universe := 2 * keys
		var cands []itemset.Itemset
		for _, x := range r.Perm(universe)[:keys] {
			cands = append(cands, itemset.Itemset{itemset.Item(x)})
		}
		tr := NewTrie(cands)
		for _, ratio := range []int{2, 4, 8, 16, 32} {
			n := keys / ratio
			if n == 0 {
				continue
			}
			txs := make([]itemset.Itemset, 256)
			for i := range txs {
				items := make([]itemset.Item, n)
				for j, x := range r.Perm(universe)[:n] {
					items[j] = itemset.Item(x)
				}
				txs[i] = itemset.New(items...)
			}
			for _, walk := range []string{"merge", "gallop"} {
				b.Run(fmt.Sprintf("keys=%d/ratio=%d/%s", keys, ratio, walk), func(b *testing.B) {
					forceWalk(b, walk)
					for i := 0; i < b.N; i++ {
						tr.Add(txs[i%len(txs)])
					}
				})
			}
		}
	}
}
