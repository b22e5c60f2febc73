package counting

import "pincer/internal/itemset"

// HashTree is the candidate store of Agrawal & Srikant [AS94]: interior
// nodes hash the next item of a candidate into a fixed fan-out, leaves hold
// small buckets of candidates. Counting a transaction descends the tree,
// touching only candidates that can possibly be contained.
//
// Candidates of mixed lengths are supported: a candidate whose items are
// exhausted at an interior node is stored in that node's bucket, and buckets
// are checked at every node visited during a descent. Distinct items can
// hash to the same child, so a descent enters each child once, from the
// first remaining transaction item that hashes to it: the items after that
// one include those after any later item of the same hash, so no contained
// candidate is missed, and every node — every bucket — is reached at most
// once per transaction, so none is counted twice.
type HashTree struct {
	candidates []itemset.Itemset
	counts     []int64
	root       *htNode
	fanout     int
	maxLeaf    int
}

// htNode is a tree node. Leaves (children == nil) hold arbitrary candidates
// in bucket; interior nodes hold only candidates exhausted at their depth.
type htNode struct {
	children []*htNode // nil for leaves; length fanout for interior nodes
	bucket   []int32   // candidate indices
	depth    int
}

const (
	defaultFanout  = 8 // at most 64: descend marks entered children in a uint64
	defaultMaxLeaf = 16
)

// NewHashTree builds a hash tree over the candidate list.
func NewHashTree(candidates []itemset.Itemset) *HashTree {
	h := &HashTree{
		candidates: candidates,
		counts:     make([]int64, len(candidates)),
		fanout:     defaultFanout,
		maxLeaf:    defaultMaxLeaf,
		root:       &htNode{},
	}
	for i := range candidates {
		h.insert(int32(i))
	}
	return h
}

func (h *HashTree) hash(it itemset.Item) int { return int(it) % h.fanout }

func (h *HashTree) insert(ci int32) {
	c := h.candidates[ci]
	n := h.root
	for {
		if n.children == nil { // leaf
			n.bucket = append(n.bucket, ci)
			h.maybeSplit(n)
			return
		}
		if len(c) <= n.depth {
			// Exhausted at an interior node: stash here; descend checks
			// interior buckets too.
			n.bucket = append(n.bucket, ci)
			return
		}
		n = n.children[h.hash(c[n.depth])]
	}
}

// maybeSplit converts an overfull leaf into an interior node, distributing
// candidates with items left to hash and keeping exhausted ones in place.
func (h *HashTree) maybeSplit(n *htNode) {
	movable := 0
	for _, ci := range n.bucket {
		if len(h.candidates[ci]) > n.depth {
			movable++
		}
	}
	if movable <= h.maxLeaf {
		return
	}
	bucket := n.bucket
	n.bucket = nil
	n.children = make([]*htNode, h.fanout)
	for i := range n.children {
		n.children[i] = &htNode{depth: n.depth + 1}
	}
	for _, ci := range bucket {
		c := h.candidates[ci]
		if len(c) <= n.depth {
			n.bucket = append(n.bucket, ci) // stays stashed here
			continue
		}
		child := n.children[h.hash(c[n.depth])]
		child.bucket = append(child.bucket, ci)
	}
	for _, child := range n.children {
		h.maybeSplit(child)
	}
}

// shard returns a counter sharing h's tree — immutable once built — while
// owning a private count array, so Adds on distinct shards touch no common
// memory. Used by Sharded; h must not be mutated afterwards.
func (h *HashTree) shard() *HashTree {
	return &HashTree{
		candidates: h.candidates,
		counts:     make([]int64, len(h.candidates)),
		root:       h.root,
		fanout:     h.fanout,
		maxLeaf:    h.maxLeaf,
	}
}

// Add implements Counter.
func (h *HashTree) Add(tx itemset.Itemset) {
	h.descend(h.root, tx, 0)
}

// descend counts n's bucket against tx and enters each child of n once,
// from the first item of tx[pos:] that hashes to it.
func (h *HashTree) descend(n *htNode, tx itemset.Itemset, pos int) {
	for _, ci := range n.bucket {
		if h.candidates[ci].IsSubsetOf(tx) {
			h.counts[ci]++
		}
	}
	if n.children == nil {
		return
	}
	var entered uint64
	for i := pos; i < len(tx); i++ {
		b := uint(h.hash(tx[i]))
		if entered&(1<<b) != 0 {
			continue
		}
		entered |= 1 << b
		h.descend(n.children[b], tx, i+1)
	}
}

// Counts implements Counter.
func (h *HashTree) Counts() []int64 { return h.counts }

// NumCandidates implements Counter.
func (h *HashTree) NumCandidates() int { return len(h.candidates) }
