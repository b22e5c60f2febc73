package counting

import (
	"sort"

	"pincer/internal/itemset"
)

// Trie counts candidates stored in a prefix tree keyed by item. Each
// candidate is a root-to-node path of strictly increasing items, so every
// candidate matches a transaction along exactly one descent — no
// transaction stamps are needed. Candidates of arbitrary mixed lengths are
// supported: a candidate that is a prefix of another simply terminates at
// an interior node.
//
// At each node a transaction's remaining items are matched against the
// node's sorted child keys by one of two walks, chosen from those two
// lengths alone: a merge of the two lists, or — at a node with more than
// wideNodeRatio keys per remaining item, such as the root of a negative
// border, which holds nearly every item of the universe — a galloping
// lookup of each item among the keys, which skips the keys between two
// items instead of stepping past each. Both walks find the same matches.
type Trie struct {
	candidates []itemset.Itemset
	counts     []int64
	root       *trieNode
}

type trieNode struct {
	items    []itemset.Item // sorted child keys
	children []*trieNode    // parallel to items
	terminal int32          // candidate index terminating here, -1 otherwise
}

func newTrieNode() *trieNode { return &trieNode{terminal: -1} }

// NewTrie builds a Trie counter over the candidate list.
func NewTrie(candidates []itemset.Itemset) *Trie {
	t := &Trie{
		candidates: candidates,
		counts:     make([]int64, len(candidates)),
		root:       newTrieNode(),
	}
	for i, c := range candidates {
		t.insert(int32(i), c)
	}
	return t
}

func (t *Trie) insert(ci int32, c itemset.Itemset) {
	n := t.root
	for _, it := range c {
		j := sort.Search(len(n.items), func(k int) bool { return n.items[k] >= it })
		if j == len(n.items) || n.items[j] != it {
			child := newTrieNode()
			n.items = append(n.items, 0)
			n.children = append(n.children, nil)
			copy(n.items[j+1:], n.items[j:])
			copy(n.children[j+1:], n.children[j:])
			n.items[j] = it
			n.children[j] = child
		}
		n = n.children[j]
	}
	n.terminal = ci
}

// shard returns a counter sharing t's prefix tree — immutable once built —
// with a private count array. Used by Sharded; t must not be mutated
// afterwards.
func (t *Trie) shard() *Trie {
	return &Trie{
		candidates: t.candidates,
		counts:     make([]int64, len(t.candidates)),
		root:       t.root,
	}
}

// Add implements Counter.
func (t *Trie) Add(tx itemset.Itemset) {
	t.count(t.root, tx)
}

// count finds the node's child keys among the transaction's remaining
// items, by the walk the Trie comment describes, and recurses on every
// match. Both walks live in this one function so that a descent costs one
// call per level.
func (t *Trie) count(n *trieNode, tx itemset.Itemset) {
	keys := n.items
	if len(keys) <= wideNodeRatio*len(tx) {
		// Merge: step past every key and every item.
		i, j := 0, 0
		for i < len(keys) && j < len(tx) {
			switch {
			case keys[i] < tx[j]:
				i++
			case keys[i] > tx[j]:
				j++
			default:
				t.visit(n.children[i], tx[j+1:])
				i++
				j++
			}
		}
		return
	}
	// Gallop: look each item up among the keys past the previous one,
	// doubling the stride over smaller keys and then binary-searching the
	// last stride, so an item costs about twice the logarithm of the keys
	// it skips instead of one step per key. Every key before lo is smaller
	// than the item.
	lo := 0
	for j, it := range tx {
		hi, step := lo, 1
		for hi < len(keys) && keys[hi] < it {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		hi = min(hi, len(keys))
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if keys[mid] < it {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(keys) {
			return
		}
		if keys[lo] == it {
			t.visit(n.children[lo], tx[j+1:])
			lo++
		}
	}
}

// wideNodeRatio is the keys-per-item ratio above which galloping beats
// merging; BenchmarkTrieWalk measures both walks on either side of it. It
// is a variable only so that the tests can force either walk.
var wideNodeRatio = 8

// visit counts the candidate ending at child, if any, and descends into it
// with the transaction items after the matched one.
func (t *Trie) visit(child *trieNode, rest itemset.Itemset) {
	if child.terminal >= 0 {
		t.counts[child.terminal]++
	}
	if len(child.items) > 0 {
		t.count(child, rest)
	}
}

// Counts implements Counter.
func (t *Trie) Counts() []int64 { return t.counts }

// NumCandidates implements Counter.
func (t *Trie) NumCandidates() int { return len(t.candidates) }
