// Package core implements the paper's contribution: the Pincer-Search
// algorithm for discovering the maximum frequent set, built around the
// maximum-frequent-candidate-set (MFCS) data structure.
//
// MFCS (paper Definition 1) is the minimum-cardinality antichain of itemsets
// whose subset-closure contains every itemset known to be frequent and no
// itemset known to be infrequent. It is the frontier of the top-down search:
// whenever the bottom-up search discovers an infrequent itemset, MFCS-gen
// pushes the frontier down (possibly many levels in one pass); whenever an
// MFCS element is counted and found frequent, it is — by the antichain
// property — a maximal frequent itemset.
package core

import (
	"pincer/internal/itemset"
)

// elementState classifies an MFCS element's support knowledge.
type elementState uint8

const (
	stateUncounted  elementState = iota // support not yet determined
	stateFrequent                       // counted (or resolved) at ≥ minCount: a maximal frequent itemset
	stateInfrequent                     // counted (or resolved) below minCount
)

// element is one MFCS member, kept in both sparse and dense form: the
// sorted itemset drives candidate generation and trie counting, the bitset
// drives the subset tests that dominate MFCS-gen.
type element struct {
	set       itemset.Itemset
	bits      *itemset.Bitset
	state     elementState
	count     int64
	harvested bool // already moved into the MFS by the miner
}

// SupportResolver reports a known support count for an itemset, if any.
// The miner backs it with the pass-1 item array, the pass-2 triangle, and a
// cache of every candidate counted so far, so that MFCS elements whose
// support is already implied are never recounted.
type SupportResolver func(itemset.Itemset) (int64, bool)

// MFCS is the maximum frequent candidate set.
type MFCS struct {
	numItems int
	minCount int64
	resolve  SupportResolver
	elems    []*element
	// cap bounds the number of elements; 0 means unlimited. Exceeding it
	// marks the structure exploded, which the adaptive miner treats as the
	// signal to abandon MFCS maintenance (paper §3.5).
	cap      int
	exploded bool
}

// NewMFCS builds the initial MFCS containing the single element {0,…,n-1}
// over the whole item universe (paper §3.5 line 3).
func NewMFCS(numItems int, minCount int64, cap int, resolve SupportResolver) *MFCS {
	m := &MFCS{numItems: numItems, minCount: minCount, cap: cap, resolve: resolve}
	if resolve == nil {
		m.resolve = func(itemset.Itemset) (int64, bool) { return 0, false }
	}
	universe := itemset.Range(0, itemset.Item(numItems))
	if len(universe) > 0 {
		m.elems = append(m.elems, m.newElement(universe))
	}
	return m
}

// newElement wraps an itemset, resolving its state if the support is
// already known.
func (m *MFCS) newElement(s itemset.Itemset) *element {
	e := &element{set: s, bits: itemset.BitsetOf(m.numItems, s)}
	if c, ok := m.resolve(s); ok {
		e.count = c
		if c >= m.minCount {
			e.state = stateFrequent
		} else {
			e.state = stateInfrequent
		}
	}
	return e
}

// Len returns the number of elements.
func (m *MFCS) Len() int { return len(m.elems) }

// Exploded reports whether a cap was exceeded; once true the structure is
// frozen and the adaptive miner falls back to pure bottom-up search.
func (m *MFCS) Exploded() bool { return m.exploded }

// Elements returns the current elements' itemsets (for inspection/tests).
func (m *MFCS) Elements() []itemset.Itemset {
	out := make([]itemset.Itemset, len(m.elems))
	for i, e := range m.elems {
		out[i] = e.set
	}
	return out
}

// Uncounted returns the elements whose support is not yet known.
func (m *MFCS) Uncounted() []*element {
	var out []*element
	for _, e := range m.elems {
		if e.state == stateUncounted {
			out = append(out, e)
		}
	}
	return out
}

// Infrequent returns the elements known to be infrequent (they linger until
// a bottom-up infrequent subset splits them, or the tail phase splits them
// by themselves — see the package documentation of the miner).
func (m *MFCS) Infrequent() []*element {
	var out []*element
	for _, e := range m.elems {
		if e.state == stateInfrequent {
			out = append(out, e)
		}
	}
	return out
}

// FrequentElements returns the elements known to be frequent: by the
// antichain property these are exactly the maximal frequent itemsets
// discovered via the top-down search.
func (m *MFCS) FrequentElements() []itemset.Itemset {
	var out []itemset.Itemset
	for _, e := range m.elems {
		if e.state == stateFrequent {
			out = append(out, e.set)
		}
	}
	return out
}

// CoversAllFrequent reports whether x is a subset of some element — the
// Definition-1 invariant that every (actually) frequent itemset remains
// covered throughout the run. Exposed for tests.
func (m *MFCS) Covers(x itemset.Itemset) bool {
	xb := itemset.BitsetOf(m.numItems, x)
	for _, e := range m.elems {
		if xb.IsSubsetOf(e.bits) {
			return true
		}
	}
	return false
}

// add inserts a candidate element unless it is a subset of an existing
// element, and removes existing elements that are subsets of it, keeping
// the antichain invariant unconditionally. It returns whether the element
// was inserted.
func (m *MFCS) add(s itemset.Itemset) bool {
	if len(s) == 0 {
		return false
	}
	return m.insert(s, itemset.BitsetOf(m.numItems, s))
}

// insert is add for a non-empty set whose dense form sb is already built.
func (m *MFCS) insert(s itemset.Itemset, sb *itemset.Bitset) bool {
	for _, e := range m.elems {
		if sb.IsSubsetOf(e.bits) {
			return false // already covered by an existing element
		}
	}
	// No dominator exists, so drop any elements the newcomer dominates.
	// (Both relations cannot hold across distinct elements: that would make
	// one existing element a subset of another, violating the antichain.)
	keep := m.elems[:0]
	for _, e := range m.elems {
		if !e.bits.IsSubsetOf(sb) {
			keep = append(keep, e)
		}
	}
	m.elems = keep
	e := &element{set: s, bits: sb}
	if c, ok := m.resolve(s); ok {
		e.count = c
		if c >= m.minCount {
			e.state = stateFrequent
		} else {
			e.state = stateInfrequent
		}
	}
	m.elems = append(m.elems, e)
	if m.cap > 0 && len(m.elems) > m.cap {
		m.exploded = true
	}
	return true
}

// Split applies one MFCS-gen step (paper §3.2): every element containing
// the newly discovered infrequent itemset s is replaced by the elements
// obtained by deleting one item of s, each kept only if not already covered.
func (m *MFCS) Split(s itemset.Itemset) {
	if m.exploded || len(s) == 0 {
		return
	}
	sb := itemset.BitsetOf(m.numItems, s)
	var hit []*element
	keep := m.elems[:0]
	for _, e := range m.elems {
		if sb.IsSubsetOf(e.bits) {
			hit = append(hit, e)
		} else {
			keep = append(keep, e)
		}
	}
	if len(hit) == 0 {
		return
	}
	m.elems = keep
	for _, e := range hit {
		for _, item := range s {
			m.add(e.set.Without(item))
			if m.exploded {
				return
			}
		}
	}
}

// Update runs MFCS-gen for a batch of newly discovered infrequent itemsets
// (the S_k of a pass): the batch's singletons in one step (dropItems), then
// each longer set through Split, in batch order. MFCS-gen's result does not
// depend on the order of the sets — it is the maximal subsets of elements
// that contain none of them — so, short of exploding past the cap, this
// leaves the same elements as splitting by every set in turn. It returns
// false if the structure exploded past its cap mid-update.
func (m *MFCS) Update(infrequent []itemset.Itemset) bool {
	m.dropItems(infrequent)
	for _, s := range infrequent {
		if len(s) > 1 {
			m.Split(s)
		}
		if m.exploded {
			return false
		}
	}
	return true
}

// dropItems applies MFCS-gen for every singleton in the batch at once. A
// singleton {i} splits an element holding i into exactly one child, the
// element without i, so a run of singleton splits deletes from each element
// every batch item it holds: one new itemset, bitset and resolver lookup
// per element hit, however many of the items it holds. insert then removes
// children covered by other elements. Deletion never adds elements, so it
// cannot explode the structure.
func (m *MFCS) dropItems(infrequent []itemset.Itemset) {
	if m.exploded {
		return
	}
	var drop *itemset.Bitset
	for _, s := range infrequent {
		if len(s) == 1 {
			if drop == nil {
				drop = itemset.NewBitset(m.numItems)
			}
			drop.Add(s[0])
		}
	}
	if drop == nil {
		return
	}
	var hit []*element
	keep := m.elems[:0]
	for _, e := range m.elems {
		if e.bits.Intersects(drop) {
			hit = append(hit, e)
		} else {
			keep = append(keep, e)
		}
	}
	m.elems = keep
	for _, e := range hit {
		n := len(e.set) - e.bits.CountAnd(drop)
		if n == 0 {
			continue
		}
		child := make(itemset.Itemset, 0, n)
		for _, it := range e.set {
			if !drop.Contains(it) {
				child = append(child, it)
			}
		}
		bits := e.bits.Clone()
		bits.AndNot(drop)
		m.insert(child, bits)
	}
}

// SplitSelf replaces an infrequent element by its |X| maximal proper
// subsets — the one-level top-down step used by the tail phase to classify
// elements the bottom-up search never reached.
func (m *MFCS) SplitSelf(e *element) {
	if m.exploded {
		return
	}
	for i, x := range m.elems {
		if x == e {
			m.elems = append(m.elems[:i], m.elems[i+1:]...)
			break
		}
	}
	for i := range e.set {
		m.add(e.set.WithoutIndex(i))
		if m.exploded {
			return
		}
	}
}

// Replace substitutes the whole element list (used by the pass-2 batch
// rebuild). The caller guarantees the sets form an antichain consistent
// with the known frequent/infrequent itemsets.
func (m *MFCS) Replace(sets []itemset.Itemset) {
	m.elems = m.elems[:0]
	for _, s := range sets {
		if len(s) == 0 {
			continue
		}
		m.elems = append(m.elems, m.newElement(s))
	}
	if m.cap > 0 && len(m.elems) > m.cap {
		m.exploded = true
	}
}

// markCounted records a counted support for an element.
func (e *element) markCounted(count, minCount int64) {
	e.count = count
	if count >= minCount {
		e.state = stateFrequent
	} else {
		e.state = stateInfrequent
	}
}
