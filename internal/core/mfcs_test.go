package core

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"pincer/internal/itemset"
)

func newTestMFCS(numItems int, initial ...itemset.Itemset) *MFCS {
	m := NewMFCS(numItems, 2, 0, nil)
	if len(initial) > 0 {
		m.Replace(initial)
	}
	return m
}

func elementsOf(m *MFCS) []itemset.Itemset {
	return m.Elements()
}

func TestNewMFCSStartsWithUniverse(t *testing.T) {
	m := NewMFCS(5, 2, 0, nil)
	es := elementsOf(m)
	if len(es) != 1 || !es[0].Equal(itemset.Range(0, 5)) {
		t.Fatalf("initial MFCS = %v", es)
	}
	if m.Len() != 1 || m.Exploded() {
		t.Fatalf("Len=%d Exploded=%v", m.Len(), m.Exploded())
	}
	// empty universe
	if NewMFCS(0, 2, 0, nil).Len() != 0 {
		t.Fatal("empty universe MFCS not empty")
	}
}

// TestMFCSGenPaperExample replays the worked example of §3.2: MFCS
// {{1,2,3,4,5,6}}, new infrequent itemsets {1,6} then {3,6}, expected
// result {{1,2,3,4,5},{2,4,5,6}}.
func TestMFCSGenPaperExample(t *testing.T) {
	m := newTestMFCS(7, itemset.New(1, 2, 3, 4, 5, 6))
	m.Split(itemset.New(1, 6))
	got := m.Elements()
	itemset.SortItemsets(got)
	want := []itemset.Itemset{itemset.New(1, 2, 3, 4, 5), itemset.New(2, 3, 4, 5, 6)}
	if len(got) != 2 || !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
		t.Fatalf("after {1,6}: %v, want %v", got, want)
	}
	m.Split(itemset.New(3, 6))
	got = m.Elements()
	itemset.SortItemsets(got)
	want = []itemset.Itemset{itemset.New(1, 2, 3, 4, 5), itemset.New(2, 4, 5, 6)}
	if len(got) != 2 || !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
		t.Fatalf("after {3,6}: %v, want %v", got, want)
	}
}

func TestMFCSPassOneManyLevels(t *testing.T) {
	// §3.1: m infrequent 1-itemsets take the single element down m levels in
	// one update.
	m := NewMFCS(10, 2, 0, nil)
	m.Update([]itemset.Itemset{itemset.New(3), itemset.New(7), itemset.New(9)})
	es := elementsOf(m)
	if len(es) != 1 || !es[0].Equal(itemset.New(0, 1, 2, 4, 5, 6, 8)) {
		t.Fatalf("MFCS = %v", es)
	}
}

func TestMFCSSplitNoElementContainsS(t *testing.T) {
	m := newTestMFCS(6, itemset.New(1, 2, 3))
	m.Split(itemset.New(4, 5)) // disjoint: no-op
	if es := elementsOf(m); len(es) != 1 || !es[0].Equal(itemset.New(1, 2, 3)) {
		t.Fatalf("MFCS = %v", es)
	}
}

func TestMFCSSplitMultipleElements(t *testing.T) {
	m := newTestMFCS(8, itemset.New(1, 2, 3, 4), itemset.New(2, 3, 5, 6))
	m.Split(itemset.New(2, 3)) // hits both elements
	es := m.Elements()
	if !itemset.IsAntichain(es) {
		t.Fatalf("not an antichain: %v", es)
	}
	for _, e := range es {
		if itemset.New(2, 3).IsSubsetOf(e) {
			t.Fatalf("element %v still contains the infrequent itemset", e)
		}
	}
	// coverage: itemsets not containing {2,3} stay covered
	for _, x := range []itemset.Itemset{itemset.New(1, 2, 4), itemset.New(3, 5, 6), itemset.New(1, 3, 4), itemset.New(2, 5, 6)} {
		if !m.Covers(x) {
			t.Errorf("%v lost coverage: %v", x, es)
		}
	}
}

func TestMFCSAddKeepsAntichain(t *testing.T) {
	// The §3.2 example's own subtlety: a generated subset that is covered
	// by another element must be dropped.
	m := newTestMFCS(8, itemset.New(1, 2, 3, 4, 5), itemset.New(2, 3, 4, 5, 6))
	m.Split(itemset.New(3, 6))
	// {2,3,4,5,6} splits to {2,4,5,6} and {2,3,4,5}; the latter is inside
	// {1,2,3,4,5} and must vanish.
	got := m.Elements()
	itemset.SortItemsets(got)
	if len(got) != 2 || !got[0].Equal(itemset.New(1, 2, 3, 4, 5)) || !got[1].Equal(itemset.New(2, 4, 5, 6)) {
		t.Fatalf("MFCS = %v", got)
	}
}

func TestMFCSSplitSelf(t *testing.T) {
	m := newTestMFCS(6, itemset.New(1, 2, 3))
	e := m.elems[0]
	e.state = stateInfrequent
	m.SplitSelf(e)
	got := m.Elements()
	itemset.SortItemsets(got)
	want := []itemset.Itemset{itemset.New(1, 2), itemset.New(1, 3), itemset.New(2, 3)}
	if len(got) != 3 {
		t.Fatalf("SplitSelf = %v", got)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("SplitSelf[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// singleton splits to nothing
	m2 := newTestMFCS(6, itemset.New(4))
	m2.SplitSelf(m2.elems[0])
	if m2.Len() != 0 {
		t.Fatalf("singleton SplitSelf left %v", m2.Elements())
	}
}

func TestMFCSCapExplodes(t *testing.T) {
	m := NewMFCS(8, 2, 2, nil)
	// splitting the universe element by a long infrequent itemset makes
	// many replacements
	m.Update([]itemset.Itemset{itemset.New(0, 1, 2, 3)})
	if !m.Exploded() {
		t.Fatalf("cap 2 not exceeded: %d elements", m.Len())
	}
	// further updates are no-ops once exploded
	n := m.Len()
	m.Split(itemset.New(4, 5))
	if m.Len() != n {
		t.Fatal("Split mutated an exploded MFCS")
	}
}

func TestMFCSResolver(t *testing.T) {
	resolved := map[string]int64{
		itemset.New(1, 2).Key(): 5,
		itemset.New(3).Key():    1,
	}
	resolve := func(s itemset.Itemset) (int64, bool) {
		c, ok := resolved[s.Key()]
		return c, ok
	}
	m := NewMFCS(4, 2, 0, resolve)
	m.Replace([]itemset.Itemset{itemset.New(1, 2), itemset.New(3)})
	if len(m.Uncounted()) != 0 {
		t.Fatalf("resolver left uncounted: %v", m.Uncounted())
	}
	if fr := m.FrequentElements(); len(fr) != 1 || !fr[0].Equal(itemset.New(1, 2)) {
		t.Fatalf("FrequentElements = %v", fr)
	}
	if in := m.Infrequent(); len(in) != 1 || !in[0].set.Equal(itemset.New(3)) {
		t.Fatalf("Infrequent = %v", in)
	}
}

// TestQuickMFCSGenInvariants checks Definition 1 on random update streams:
// after feeding random infrequent itemsets, the MFCS is an antichain, no
// element contains an infrequent itemset, and every itemset that contains
// no infrequent subset remains covered.
func TestQuickMFCSGenInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		universe := 4 + r.Intn(6)
		m := NewMFCS(universe, 2, 0, nil)
		var infrequents []itemset.Itemset
		for i := 0; i < 2+r.Intn(8); i++ {
			s := randomNonEmpty(r, universe, 3)
			infrequents = append(infrequents, s)
			m.Split(s)
		}
		es := m.Elements()
		if !itemset.IsAntichain(es) {
			return false
		}
		for _, e := range es {
			for _, s := range infrequents {
				if s.IsSubsetOf(e) {
					return false
				}
			}
		}
		// coverage of all "possibly frequent" itemsets (≤4 items to bound cost)
		full := itemset.Range(0, itemset.Item(universe))
		ok := true
		for k := 1; k <= 4 && k <= universe && ok; k++ {
			full.EachSubsetOfSize(k, func(x itemset.Itemset) {
				if !ok {
					return
				}
				for _, s := range infrequents {
					if s.IsSubsetOf(x) {
						return // known infrequent: no coverage required
					}
				}
				if !m.Covers(x) {
					ok = false
				}
			})
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCliqueRebuildMatchesIncremental verifies the algebraic
// equivalence that makes Pincer-Search practical on scattered data: the
// batch rebuild (maximal cliques of the frequent-pair graph) equals the
// paper's incremental MFCS-gen fed every infrequent pair.
func TestQuickCliqueRebuildMatchesIncremental(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(9)
		vertices := itemset.Range(0, itemset.Item(n))
		edge := make(map[[2]itemset.Item]bool)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) > 0 {
					edge[[2]itemset.Item{itemset.Item(i), itemset.Item(j)}] = true
				}
			}
		}
		isEdge := func(a, b itemset.Item) bool {
			if a > b {
				a, b = b, a
			}
			return edge[[2]itemset.Item{a, b}]
		}
		// incremental: start from the universe element, split by every
		// infrequent pair
		inc := NewMFCS(n, 2, 0, nil)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !isEdge(itemset.Item(i), itemset.Item(j)) {
					inc.Split(itemset.New(itemset.Item(i), itemset.Item(j)))
				}
			}
		}
		// batch: Bron–Kerbosch
		batch := NewMFCS(n, 2, 0, nil)
		if !batch.RebuildFromPairGraph(vertices, isEdge, 0) {
			return false
		}
		a, b := inc.Elements(), batch.Elements()
		itemset.SortItemsets(a)
		itemset.SortItemsets(b)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueBudgetAborts(t *testing.T) {
	m := NewMFCS(12, 2, 0, nil)
	vertices := itemset.Range(0, 12)
	allEdges := func(a, b itemset.Item) bool { return true }
	if !m.RebuildFromPairGraph(vertices, allEdges, 0) {
		t.Fatal("unlimited budget failed on complete graph")
	}
	if m.Len() != 1 || !m.Elements()[0].Equal(vertices) {
		t.Fatalf("complete graph cliques = %v", m.Elements())
	}
	m2 := NewMFCS(12, 2, 0, nil)
	if m2.RebuildFromPairGraph(vertices, allEdges, 2) {
		t.Fatal("tiny budget did not abort")
	}
	if !m2.Exploded() {
		t.Fatal("aborted rebuild did not mark exploded")
	}
}

func TestCliqueCapAborts(t *testing.T) {
	// a perfect matching has n/2 maximal 2-cliques
	m := NewMFCS(10, 2, 3, nil)
	ok := m.RebuildFromPairGraph(itemset.Range(0, 10), func(a, b itemset.Item) bool {
		return b == a+1 && a%2 == 0
	}, 0)
	if ok || !m.Exploded() {
		t.Fatalf("cap 3 with 5 cliques: ok=%v exploded=%v", ok, m.Exploded())
	}
}

func TestCliqueIsolatedVerticesAreSingletons(t *testing.T) {
	m := NewMFCS(4, 2, 0, nil)
	// only edge 0-1; 2 and 3 isolated
	m.RebuildFromPairGraph(itemset.Range(0, 4), func(a, b itemset.Item) bool {
		return (a == 0 && b == 1) || (a == 1 && b == 0)
	}, 0)
	got := m.Elements()
	itemset.SortItemsets(got)
	want := []itemset.Itemset{itemset.New(0, 1), itemset.New(2), itemset.New(3)}
	if len(got) != 3 {
		t.Fatalf("cliques = %v", got)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("clique[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func randomNonEmpty(r *rand.Rand, universe, maxLen int) itemset.Itemset {
	for {
		n := 1 + r.Intn(maxLen)
		items := make([]itemset.Item, n)
		for i := range items {
			items[i] = itemset.Item(r.Intn(universe))
		}
		s := itemset.New(items...)
		if len(s) > 0 {
			return s
		}
	}
}

// TestQuickUpdateMatchesSplitInOrder pins the one-step pass-1 MFCS-gen
// (Update deletes a batch's singletons from every element at once) against
// the paper's per-set procedure: on random MFCS states over a universe of
// 64–127 items — elements of mixed lengths, some resolved, some counted,
// some harvested — and random batches mixing singletons with longer sets,
// Update leaves the same elements as Split called on each set in order,
// each with the same state, count and harvested flag.
func TestQuickUpdateMatchesSplitInOrder(t *testing.T) {
	// A deterministic resolver answering for about a third of all sets, so
	// that both kept elements and children come out resolved or not.
	resolve := func(s itemset.Itemset) (int64, bool) {
		var h uint32 = 2166136261
		for _, it := range s {
			h = (h ^ uint32(it)) * 16777619
		}
		if h%3 != 0 {
			return 0, false
		}
		return int64(h>>8) % 5, true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		universe := 64 + r.Intn(64)
		var sets []itemset.Itemset
		for i := 0; i < 1+r.Intn(12); i++ {
			sets = append(sets, randomNonEmpty(r, universe, 1+r.Intn(universe/2)))
		}
		var elems []*element
		seq := NewMFCS(universe, 2, 0, resolve)
		seq.Replace(itemset.MaximalOnly(sets))
		for _, e := range seq.elems {
			switch r.Intn(4) {
			case 0:
				e.markCounted(int64(r.Intn(5)), 2)
			case 1:
				e.markCounted(int64(2+r.Intn(3)), 2)
				e.harvested = true
			}
			elems = append(elems, e)
		}
		one := NewMFCS(universe, 2, 0, resolve)
		one.elems = one.elems[:0]
		for _, e := range elems {
			c := *e
			one.elems = append(one.elems, &c)
		}
		// The batch: singletons and 2–3-item sets drawn mostly from the
		// elements' items, so that most of them hit something.
		var batch []itemset.Itemset
		for i := 0; i < 1+r.Intn(3*universe/4); i++ {
			e := elems[r.Intn(len(elems))].set
			pick := func() itemset.Item {
				if r.Intn(4) == 0 {
					return itemset.Item(r.Intn(universe))
				}
				return e[r.Intn(len(e))]
			}
			s := itemset.New(pick())
			if r.Intn(3) == 0 {
				s = itemset.New(pick(), pick(), pick())
			}
			batch = append(batch, s)
		}
		for _, s := range batch {
			seq.Split(s)
		}
		one.Update(batch)
		return sameElements(seq, one)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sameElements reports whether a and b hold the same itemsets, each with
// the same state, count and harvested flag.
func sameElements(a, b *MFCS) bool {
	if a.Len() != b.Len() || a.Exploded() != b.Exploded() {
		return false
	}
	byKey := make(map[string]*element, a.Len())
	for _, e := range a.elems {
		byKey[e.set.Key()] = e
	}
	for _, e := range b.elems {
		x, ok := byKey[e.set.Key()]
		if !ok || x.state != e.state || x.count != e.count || x.harvested != e.harvested || !x.bits.Equal(e.bits) {
			return false
		}
	}
	return true
}

// TestMFCSPassOneAllocations pins pass 1's MFCS-gen on a benchmark-sized
// universe: the universe element losing 980 infrequent items costs a fixed
// handful of allocations and bytes, not one element copy, bitset and
// support-cache key per item.
func TestMFCSPassOneAllocations(t *testing.T) {
	const n = 1000
	var s1 []itemset.Itemset
	for i := 0; i < n; i++ {
		if i%50 != 0 {
			s1 = append(s1, itemset.Itemset{itemset.Item(i)})
		}
	}
	cache := map[string]int64{}
	resolve := func(s itemset.Itemset) (int64, bool) {
		c, ok := cache[s.Key()]
		return c, ok
	}
	run := func() {
		m := NewMFCS(n, 2, 0, resolve)
		m.Update(s1)
		if m.Len() != 1 || len(m.elems[0].set) != n-len(s1) {
			t.Fatalf("MFCS after pass 1 = %v", m.Elements())
		}
	}
	const runs = 20
	allocs := testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("NewMFCS + Update(%d singletons): %.0f allocs, %d B", len(s1), allocs, bytes)
	if allocs > 40 || bytes > 64<<10 {
		t.Fatalf("NewMFCS + Update(%d singletons) = %.0f allocs, %d B; want ≤ 40 allocs and ≤ 64 KiB", len(s1), allocs, bytes)
	}
}
