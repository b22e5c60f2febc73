// Package fpmax implements maximal frequent-itemset mining over a
// frequency-ordered prefix tree (FP-tree), in the style of Grahne & Zhu's
// FPMax refinement of Han et al.'s FP-growth. The database is read exactly
// twice — once to count items, once to build the tree — and all further
// work projects conditional trees in memory, so like the vertical miner it
// makes no level-wise database passes.
//
// The tree orders every transaction's frequent items by decreasing global
// frequency, so transactions sharing frequent prefixes collapse onto shared
// paths; on dense, skewed data the tree is far smaller than the database.
// Mining recurses bottom-up through the header table (least frequent item
// first, so the longest patterns surface early), with the two classic
// maximal-mining prunes layered on top:
//
//   - single-path collapse: when a conditional tree degenerates to one
//     path, the head joined with the whole path is the subtree's unique
//     locally-maximal set (the FP-tree analogue of the head∪tail
//     look-ahead);
//   - subset-of-known-maximal pruning: a subtree whose head joined with
//     every conditional item is covered by an already-found maximal set can
//     yield nothing new (the same Observation 2 that powers the MFCS and
//     the vertical miner's knownSubset check).
//
// Every recorded support is exact — single-path supports are the bottom
// node's count, head supports are the header totals of the parent tree —
// so the miner plugs into the conformance corpus byte-identically.
// Standard library only.
package fpmax

import (
	"sort"
	"time"

	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
)

// Options configures the miner.
type Options struct {
	// MaxDepth bounds the projection recursion (0 = unlimited); a safety
	// valve for degenerate data, mirroring the vertical miner's option. A
	// tripped bound can drop deep maximal sets, so it is off by default.
	MaxDepth int
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options { return Options{} }

// Result extends the shared result with FP-tree diagnostics.
type Result struct {
	mfi.Result
	// CondTrees counts the conditional trees projected (the work unit).
	CondTrees int64
	// Nodes counts the tree nodes allocated across all trees.
	Nodes int64
}

// node is one FP-tree node: an item rank with the count of transactions
// whose frequency-ordered prefix passes through it, linked up to its parent
// and sideways along its rank's header chain.
type node struct {
	rank     int32
	count    int64
	parent   *node
	next     *node
	children map[int32]*node
}

// tree is an FP-tree (or a conditional projection of one) with its header
// table, indexed by global item rank.
type tree struct {
	root   *node
	heads  []*node // rank → header chain (most recently inserted first)
	counts []int64 // rank → total count in this tree
}

func (m *miner) newTree() *tree {
	m.nodes++
	return &tree{
		root:   &node{children: map[int32]*node{}},
		heads:  make([]*node, m.nRanks),
		counts: make([]int64, m.nRanks),
	}
}

// insert adds one frequency-ordered transaction (ranks ascending = most
// frequent first) with multiplicity count.
func (m *miner) insert(t *tree, ranks []int32, count int64) {
	cur := t.root
	for _, r := range ranks {
		child := cur.children[r]
		if child == nil {
			child = &node{rank: r, parent: cur, children: map[int32]*node{}, next: t.heads[r]}
			t.heads[r] = child
			cur.children[r] = child
			m.nodes++
		}
		child.count += count
		t.counts[r] += count
		cur = child
	}
}

// singlePath reports whether the tree is one unbranched path, returning the
// path's ranks top-down and the bottom node's count (the support of the
// whole path); supp is -1 for the empty path.
func (t *tree) singlePath() (path []int32, supp int64, ok bool) {
	supp = -1
	cur := t.root
	for {
		switch len(cur.children) {
		case 0:
			return path, supp, true
		case 1:
			for _, c := range cur.children {
				cur = c
			}
			path = append(path, cur.rank)
			supp = cur.count
		default:
			return nil, 0, false
		}
	}
}

// presentRanks returns the ranks occurring in the tree, ascending.
func (t *tree) presentRanks() []int32 {
	var out []int32
	for r, c := range t.counts {
		if c > 0 {
			out = append(out, int32(r))
		}
	}
	return out
}

// miner holds the run state shared by every projection.
type miner struct {
	minCount int64
	numItems int            // original universe, for maximality bitsets
	nRanks   int            // number of frequent items
	rankItem []itemset.Item // rank → original item

	maximal []itemset.Itemset
	bits    []*itemset.Bitset
	counts  map[string]int64

	condTrees int64
	nodes     int64
	opt       Options
}

// knownSubset reports whether xb is covered by an already-found maximal set.
func (m *miner) knownSubset(xb *itemset.Bitset) bool {
	for _, b := range m.bits {
		if xb.IsSubsetOf(b) {
			return true
		}
	}
	return false
}

// toBitset renders head ranks (plus optional extra ranks) as an
// original-item bitset.
func (m *miner) toBitset(head, extra []int32) *itemset.Bitset {
	b := itemset.NewBitset(m.numItems)
	for _, r := range head {
		b.Add(m.rankItem[r])
	}
	for _, r := range extra {
		b.Add(m.rankItem[r])
	}
	return b
}

// record stores head∪extra as a maximal candidate unless a known maximal
// set covers it.
func (m *miner) record(head, extra []int32, supp int64) {
	b := m.toBitset(head, extra)
	if m.knownSubset(b) {
		return
	}
	items := make([]itemset.Item, 0, len(head)+len(extra))
	for _, r := range head {
		items = append(items, m.rankItem[r])
	}
	for _, r := range extra {
		items = append(items, m.rankItem[r])
	}
	x := itemset.New(items...)
	m.maximal = append(m.maximal, x)
	m.bits = append(m.bits, b)
	m.counts[x.Key()] = supp
}

// mine explores one (conditional) tree. Invariants: head is frequent with
// support headSupp; the tree holds exactly the head-conditional database
// filtered to its conditionally frequent items, so every header total is an
// exact support of head ∪ {item}.
func (m *miner) mine(t *tree, head []int32, headSupp int64, depth int) {
	if path, supp, ok := t.singlePath(); ok {
		if supp < 0 {
			supp = headSupp
		}
		m.record(head, path, supp)
		return
	}
	if m.opt.MaxDepth > 0 && depth > m.opt.MaxDepth {
		return
	}
	present := t.presentRanks()
	// Subtree prune: everything this tree can yield is a subset of
	// head ∪ present, so a known maximal superset ends the recursion.
	if m.knownSubset(m.toBitset(head, present)) {
		return
	}
	base := make([]int64, m.nRanks)
	keep := make([]bool, m.nRanks)
	for i := len(present) - 1; i >= 0; i-- {
		r := present[i]
		supp := t.counts[r]
		newHead := make([]int32, len(head)+1)
		copy(newHead, head)
		newHead[len(head)] = r

		// Conditional pattern base of r: ancestor counts over r's chain.
		for j := range base {
			base[j] = 0
		}
		for n := t.heads[r]; n != nil; n = n.next {
			for p := n.parent; p.parent != nil; p = p.parent {
				base[p.rank] += n.count
			}
		}
		var freq []int32
		for rank, c := range base {
			keep[rank] = c >= m.minCount
			if keep[rank] {
				freq = append(freq, int32(rank))
			}
		}
		if len(freq) == 0 {
			// No frequent extension: newHead is maximal in this subtree.
			m.record(newHead, nil, supp)
			continue
		}
		// Look-ahead prune: the subtree of newHead can only yield subsets
		// of newHead ∪ freq.
		if m.knownSubset(m.toBitset(newHead, freq)) {
			continue
		}
		cond := m.newTree()
		m.condTrees++
		var path []int32
		for n := t.heads[r]; n != nil; n = n.next {
			path = path[:0]
			for p := n.parent; p.parent != nil; p = p.parent {
				if keep[p.rank] {
					path = append(path, p.rank)
				}
			}
			if len(path) == 0 {
				continue
			}
			// Ancestors were collected bottom-up; insertion wants them
			// top-down (ascending rank).
			for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
				path[a], path[b] = path[b], path[a]
			}
			m.insert(cond, path, n.count)
		}
		m.mine(cond, newHead, supp, depth+1)
	}
}

// MineMaximalCount mines the maximal frequent itemsets of d at an absolute
// support threshold. Like the vertical miner it has no cancellation
// points: after the two database reads everything happens in memory.
func MineMaximalCount(d *dataset.Dataset, minCount int64, opt Options) *Result {
	start := time.Now()
	res := &Result{Result: mfi.Result{
		MinCount:        minCount,
		NumTransactions: d.Len(),
	}}
	res.Stats.Algorithm = "fpmax"
	defer func() { res.Stats.Duration = time.Since(start) }()

	// Pass 1: global item counts → frequency-descending rank order
	// (ties broken by ascending item id, so the order — and therefore the
	// tree and the mining result — is deterministic).
	counts := d.ItemCounts()
	var freqItems []itemset.Item
	for it, c := range counts {
		if c >= minCount {
			freqItems = append(freqItems, itemset.Item(it))
		}
	}
	sort.Slice(freqItems, func(i, j int) bool {
		a, b := freqItems[i], freqItems[j]
		if counts[a] != counts[b] {
			return counts[a] > counts[b]
		}
		return a < b
	})
	res.Stats.AddPass(mfi.PassStats{Candidates: d.NumItems(), Frequent: len(freqItems)})
	if len(freqItems) == 0 {
		res.MFS = nil
		res.MFSSupports = nil
		res.Stats.AddPass(mfi.PassStats{})
		return res
	}

	m := &miner{
		minCount: minCount,
		numItems: d.NumItems(),
		nRanks:   len(freqItems),
		rankItem: freqItems,
		counts:   make(map[string]int64),
		opt:      opt,
	}
	itemRank := make([]int32, d.NumItems())
	for i := range itemRank {
		itemRank[i] = -1
	}
	for r, it := range freqItems {
		itemRank[it] = int32(r)
	}

	// Pass 2: build the tree from the frequency-ordered transactions.
	// A transaction's frequent items sorted by ascending rank are its
	// prefix path; item order within a transaction is already sorted by
	// item id, so ranks need an explicit sort only because rank order is
	// frequency order.
	root := m.newTree()
	var ranks []int32
	for _, tx := range d.Transactions() {
		ranks = ranks[:0]
		for _, it := range tx {
			if r := itemRank[it]; r >= 0 {
				ranks = append(ranks, r)
			}
		}
		if len(ranks) == 0 {
			continue
		}
		insertionSortRanks(ranks)
		m.insert(root, ranks, 1)
	}

	m.mine(root, nil, int64(d.Len()), 1)

	res.MFS = itemset.MaximalOnly(m.maximal)
	res.MFSSupports = make([]int64, len(res.MFS))
	for i, x := range res.MFS {
		res.MFSSupports[i] = m.counts[x.Key()]
	}
	res.CondTrees = m.condTrees
	res.Nodes = m.nodes
	res.Stats.AddPass(mfi.PassStats{
		Candidates: int(m.condTrees), Frequent: len(res.MFS), MFSFound: len(res.MFS),
	})
	return res
}

// insertionSortRanks sorts a short rank slice ascending; transaction
// lengths are small, so this beats sort.Slice's interface overhead on the
// per-transaction hot path.
func insertionSortRanks(rs []int32) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
