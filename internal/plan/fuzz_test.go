package plan

import (
	"context"
	"fmt"
	"math/bits"
	"testing"

	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
)

// fuzzUniverse is the fuzz databases' item universe: an input byte's low
// four bits name an item.
const fuzzUniverse = 16

// fuzzSeeds are the seed inputs of core's FuzzPincerMatchesApriori and of
// parallel's FuzzCountersAgree, which share this encoding.
var fuzzSeeds = [][]byte{
	{2, 1, 2, 0x83, 1, 2, 0x83, 1, 0x82},
	{1, 0x80},
	{3, 5, 6, 7, 0x85, 5, 6, 0x87},
	{0},
	{255, 1, 1, 1},
	{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0x8f},
	{7, 1, 3, 5, 0x87, 2, 4, 0x86, 1, 2, 3, 0x84, 9, 10, 0x8b, 0, 15, 0x87, 3, 0x85},
	{5, 1, 2, 3, 0x84, 1, 2, 3, 0x84, 1, 2, 0x83, 2, 3, 4, 0x85, 1, 2, 3, 4, 0x85, 6, 7, 0x88, 1, 2, 3, 0x84, 2, 3, 0x84, 1, 3, 4, 0x85, 9, 0x8a},
	{0, 0x81, 0x83, 0x85, 0x89, 0x8c, 0x82},
	{0x82, 1, 2, 0x83, 1, 2, 0x83, 1, 0x82},
	{0x87, 1, 3, 5, 0x87, 2, 4, 0x86, 1, 2, 3, 0x84, 9, 10, 0x8b, 0, 15, 0x87, 3, 0x85},
	{0x80, 0, 0x81, 0x83, 0x85, 0x89, 0x8c, 0x82},
}

// decodeFuzz decodes an input: the first byte selects the minimum count
// (data[0]%8 + 1), the rest is a stream of items with the high bit ending
// a transaction.
func decodeFuzz(data []byte) (*dataset.Dataset, int64) {
	d := dataset.Empty(fuzzUniverse)
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
	return d, int64(data[0]%8) + 1
}

// oracle is the brute-force answer: the support of every one of the 2^16
// subsets of the universe, indexed by bit mask.
type oracle struct {
	support  []int64
	minCount int64
}

func newOracle(d *dataset.Dataset, minCount int64) *oracle {
	o := &oracle{support: make([]int64, 1<<fuzzUniverse), minCount: minCount}
	for _, t := range d.Transactions() {
		o.support[mask(t)]++
	}
	// Sum over supersets, one item at a time: afterwards support[s] counts
	// the transactions containing s.
	for b := 0; b < fuzzUniverse; b++ {
		for s := range o.support {
			if s&(1<<b) == 0 {
				o.support[s] += o.support[s|1<<b]
			}
		}
	}
	return o
}

func mask(x itemset.Itemset) int {
	m := 0
	for _, it := range x {
		m |= 1 << it
	}
	return m
}

func setOf(m int) itemset.Itemset {
	var x itemset.Itemset
	for ; m != 0; m &= m - 1 {
		x = append(x, itemset.Item(bits.TrailingZeros(uint(m))))
	}
	return x
}

func (o *oracle) frequent(m int) bool { return o.support[m] >= o.minCount }

// mfs returns the frequent sets with no frequent one-item extension, and
// border the infrequent sets whose every one-item-smaller subset is
// frequent (the empty set is frequent), both in SortItemsets order.
func (o *oracle) mfsAndBorder() (mfs, border []itemset.Itemset) {
	for m := 1; m < len(o.support); m++ {
		if o.frequent(m) {
			maximal := true
			for b := 0; b < fuzzUniverse && maximal; b++ {
				maximal = m&(1<<b) != 0 || !o.frequent(m|1<<b)
			}
			if maximal {
				mfs = append(mfs, setOf(m))
			}
			continue
		}
		minimal := true
		for r := m; r != 0 && minimal; r &= r - 1 {
			sub := m &^ (r & -r)
			minimal = sub == 0 || o.frequent(sub)
		}
		if minimal {
			border = append(border, setOf(m))
		}
	}
	itemset.SortItemsets(mfs)
	itemset.SortItemsets(border)
	return mfs, border
}

// fuzzPlans lists every plan of the table: each miner, with each counter
// spec where it takes one, at one and three workers where it distributes
// (apriori sequentially and at three), and Pincer-Search pure as well as
// adaptive. Each keeps its frequent set where it has one.
func fuzzPlans() []Options {
	var out []Options
	for _, m := range miners {
		plans := []Options{{Miner: m.name, KeepFrequent: true}}
		if m.accepts&Distribution != 0 {
			first := 1
			if m.name != Parallel {
				first = 0
			}
			plans = []Options{{Miner: m.name, KeepFrequent: true, Workers: first}, {Miner: m.name, KeepFrequent: true, Workers: 3}}
		}
		if m.accepts&TidLists != 0 {
			var counted []Options
			for _, p := range plans {
				for _, c := range []string{"scan", "tidlist:bitset", "tidlist:list", "tidlist:diffset"} {
					p.Counter = c
					counted = append(counted, p)
				}
			}
			plans = counted
		}
		if m.name == Pincer {
			for _, p := range plans {
				p.Pure = true
				plans = append(plans, p)
			}
		}
		out = append(out, plans...)
	}
	return out
}

func (o Options) label() string {
	return fmt.Sprintf("%s/counter=%s/workers=%d/pure=%t", o.Miner, o.Counter, o.Workers, o.Pure)
}

// FuzzEnginesAgree runs every plan of the table on arbitrary small
// databases and holds each to a brute-force oracle that counts all 2^16
// subsets of the item universe: the MFS with exact supports, exact
// supports for every set the run reports frequent, and — from the
// expanded MFS — the negative border.
func FuzzEnginesAgree(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	plans := fuzzPlans()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			t.Skip()
		}
		d, minCount := decodeFuzz(data)
		if d.Len() == 0 {
			t.Skip()
		}
		o := newOracle(d, minCount)
		wantMFS, wantBorder := o.mfsAndBorder()
		border := mfi.NegativeBorder(itemset.Range(0, fuzzUniverse), mfi.Expand(wantMFS, 0))
		if err := mfi.VerifyAgainst(border, wantBorder); err != nil {
			t.Fatalf("negative border of the expanded MFS at minCount=%d on %v: %v", minCount, d.Transactions(), err)
		}
		minSupport := float64(minCount) / float64(d.Len())
		for _, p := range plans {
			res, err := Run(context.Background(), Source{Data: d}, minSupport, p)
			if err != nil {
				t.Fatalf("%s: %v", p.label(), err)
			}
			if res.MinCount != minCount {
				t.Fatalf("%s: min count %d, want %d", p.label(), res.MinCount, minCount)
			}
			if err := mfi.VerifyAgainst(res.MFS, wantMFS); err != nil {
				t.Fatalf("%s at minCount=%d on %v: %v", p.label(), minCount, d.Transactions(), err)
			}
			for i, m := range res.MFS {
				if got, want := res.MFSSupports[i], o.support[mask(m)]; got != want {
					t.Fatalf("%s: support(%v) = %d, want %d", p.label(), m, got, want)
				}
			}
			if res.Frequent == nil {
				continue
			}
			res.Frequent.Each(func(x itemset.Itemset, c int64) {
				if want := o.support[mask(x)]; c != want || want < minCount {
					t.Fatalf("%s: frequent %v with support %d, want %d (min count %d)", p.label(), x, c, want, minCount)
				}
			})
		}
	})
}
