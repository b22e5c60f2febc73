// Package mfi holds the shared vocabulary of the mining algorithms: the
// Result and Stats types every miner returns, and utilities on the maximum
// frequent set (MFS) — expansion to the full frequent set, negative-border
// computation, and result verification.
package mfi

import (
	"fmt"
	"math"
	"sort"
	"time"

	"pincer/internal/dataset"
	"pincer/internal/itemset"
)

// PassStats records one database pass.
type PassStats struct {
	Pass           int // 1-based pass number
	Candidates     int // bottom-up candidates whose support was counted
	MFCSCandidates int // MFCS elements whose support was counted (Pincer only)
	Frequent       int // frequent itemsets discovered among the candidates
	MFSFound       int // maximal frequent itemsets established this pass
}

// Stats aggregates a mining run. The Candidates field follows the paper's
// accounting (§4.1.1): candidates counted in passes 1 and 2 are excluded
// (both algorithms count them in flat arrays), and the MFCS candidates of
// Pincer-Search are included.
type Stats struct {
	Algorithm      string
	Passes         int           // number of database reads
	Candidates     int64         // paper metric: passes ≥3 bottom-up + all MFCS candidates
	CandidatesAll  int64         // every candidate, including passes 1-2
	MFCSCandidates int64         // MFCS elements counted (subset of Candidates)
	PassDetails    []PassStats   // one entry per pass
	FrequentCount  int64         // frequent itemsets explicitly discovered
	Duration       time.Duration // wall-clock mining time
	AdaptiveOff    bool          // Pincer only: adaptive policy abandoned the MFCS
	TailPasses     int           // Pincer only: MFCS-only passes after C_k was exhausted
}

// AddPass appends a pass record and folds it into the aggregates.
func (s *Stats) AddPass(p PassStats) {
	s.Passes++
	p.Pass = s.Passes
	s.PassDetails = append(s.PassDetails, p)
	s.CandidatesAll += int64(p.Candidates) + int64(p.MFCSCandidates)
	s.MFCSCandidates += int64(p.MFCSCandidates)
	if p.Pass > 2 {
		s.Candidates += int64(p.Candidates)
	}
	s.Candidates += int64(p.MFCSCandidates)
	s.FrequentCount += int64(p.Frequent)
}

// String gives a one-line summary.
func (s *Stats) String() string {
	return fmt.Sprintf("%s: passes=%d candidates=%d (all=%d, mfcs=%d) frequent=%d time=%v",
		s.Algorithm, s.Passes, s.Candidates, s.CandidatesAll, s.MFCSCandidates, s.FrequentCount, s.Duration)
}

// Result is the output of a mining run.
type Result struct {
	// MFS is the maximum frequent set: all maximal frequent itemsets in
	// lexicographic order. It uniquely determines the frequent set.
	MFS []itemset.Itemset
	// MFSSupports holds the support count of each MFS element, parallel to
	// MFS.
	MFSSupports []int64
	// Frequent holds every explicitly discovered frequent itemset with its
	// support count. For Apriori this is the complete frequent set; for
	// Pincer-Search it holds only the itemsets the algorithm had to examine
	// (the point of the algorithm is that this can be far smaller).
	Frequent *itemset.Set
	// MinCount is the absolute support threshold used.
	MinCount int64
	// NumTransactions is |D|.
	NumTransactions int
	// Stats describes the run.
	Stats Stats
}

// SupportOf returns the support count of x if the run determined it
// (explicitly or as an MFS element), and whether it did.
func (r *Result) SupportOf(x itemset.Itemset) (int64, bool) {
	if r.Frequent != nil {
		if c, ok := r.Frequent.Count(x); ok {
			return c, true
		}
	}
	for i, m := range r.MFS {
		if x.Equal(m) {
			return r.MFSSupports[i], true
		}
	}
	return 0, false
}

// IsFrequent reports whether x is frequent according to the run's MFS
// (x frequent ⇔ x ⊆ some maximal frequent itemset).
func (r *Result) IsFrequent(x itemset.Itemset) bool {
	for _, m := range r.MFS {
		if x.IsSubsetOf(m) {
			return true
		}
	}
	return false
}

// LongestMFS returns the length of the longest maximal frequent itemset.
func (r *Result) LongestMFS() int {
	best := 0
	for _, m := range r.MFS {
		if len(m) > best {
			best = len(m)
		}
	}
	return best
}

// Expand enumerates every non-empty frequent itemset implied by an MFS:
// the union of the non-empty subset lattices of its elements, without
// duplicates, in lexicographic order. The output is exponential in the
// length of the longest element; callers mining long maximal itemsets
// should cap it via maxLen (0 means no cap).
func Expand(mfs []itemset.Itemset, maxLen int) []itemset.Itemset {
	seen := make(map[string]bool)
	var out []itemset.Itemset
	for _, m := range mfs {
		top := len(m)
		if maxLen > 0 && maxLen < top {
			top = maxLen
		}
		for k := 1; k <= top; k++ {
			m.EachSubsetOfSize(k, func(x itemset.Itemset) {
				key := x.Key()
				if !seen[key] {
					seen[key] = true
					out = append(out, x.Clone())
				}
			})
		}
	}
	itemset.SortItemsets(out)
	return out
}

// CountFrequent returns the number of distinct non-empty frequent itemsets
// implied by an MFS — the size of the union of its elements' power sets —
// without materializing them. It expands on one item x at a time (a
// Shannon expansion): the implied sets without x are those implied by the
// family with x deleted from every element, and the sets with x are x
// joined to the sets implied by the elements that contain x, again with x
// deleted. A family reduced to a single element contributes 2^|element| − 1
// directly. Counts beyond math.MaxInt64 saturate at math.MaxInt64.
func CountFrequent(mfs []itemset.Itemset) int64 {
	fam := itemset.MaximalOnly(mfs)
	switch len(fam) {
	case 0:
		return 0
	case 1:
		if len(fam[0]) >= 63 {
			return math.MaxInt64
		}
		return int64(1)<<len(fam[0]) - 1
	}
	// Expanding on the item in the fewest elements keeps the with-x branch
	// small; an item private to one element costs a closed form.
	freq := make(map[itemset.Item]int)
	for _, m := range fam {
		for _, it := range m {
			freq[it]++
		}
	}
	x, fewest := itemset.Item(0), len(fam)+1
	for it, n := range freq {
		if n < fewest || (n == fewest && it < x) {
			x, fewest = it, n
		}
	}
	without := make([]itemset.Itemset, 0, len(fam))
	var with []itemset.Itemset
	for _, m := range fam {
		if !m.Contains(x) {
			without = append(without, m)
			continue
		}
		rest := m.Without(x)
		without = append(without, rest)
		with = append(with, rest)
	}
	// The +1 is {x} itself, joined to the empty set.
	return satAdd(satAdd(CountFrequent(without), CountFrequent(with)), 1)
}

// satAdd adds two non-negative counts, saturating at math.MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// NegativeBorder computes the minimal infrequent itemsets relative to a
// downward-closed frequent collection: every itemset not in the collection
// all of whose facets (maximal proper subsets) are. universe is the full
// item universe; frequent must contain exactly the frequent itemsets
// (e.g. Expand of an MFS). This is the border of Mannila & Toivonen used by
// the Sampling algorithm.
func NegativeBorder(universe itemset.Itemset, frequent []itemset.Itemset) []itemset.Itemset {
	freq := itemset.NewSet(len(frequent))
	byLen := make(map[int][]itemset.Itemset)
	for _, f := range frequent {
		freq.Add(f)
		byLen[len(f)] = append(byLen[len(f)], f)
	}
	var border []itemset.Itemset
	// size-1 border: items not frequent
	for _, it := range universe {
		if !freq.Contains(itemset.Itemset{it}) {
			border = append(border, itemset.Itemset{it})
		}
	}
	// size k+1 border: joins of frequent k-itemsets, not frequent, all
	// facets frequent. Any border itemset of size ≥ 2 has all its facets
	// frequent, in particular the two sharing its (k-1)-prefix, so the
	// prefix join generates it.
	lengths := make([]int, 0, len(byLen))
	for k := range byLen {
		lengths = append(lengths, k)
	}
	sort.Ints(lengths)
	seen := itemset.NewSet(0)
	for _, k := range lengths {
		level := byLen[k]
		itemset.SortItemsets(level)
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				if !itemset.SamePrefix(level[i], level[j], k-1) {
					break
				}
				cand := level[i].Union(level[j])
				if freq.Contains(cand) || seen.Contains(cand) {
					continue
				}
				ok := true
				cand.Facets(func(f itemset.Itemset) {
					if ok && !freq.Contains(f) {
						ok = false
					}
				})
				if ok {
					seen.Add(cand)
					border = append(border, cand.Clone())
				}
			}
		}
	}
	itemset.SortItemsets(border)
	return border
}

// Verify checks a claimed MFS against a dataset by direct counting:
// every element must be frequent, no element may be extendable by any item
// without dropping below the threshold, and the collection must be an
// antichain. It does not prove completeness (that no maximal itemset is
// missing); use VerifyAgainst with a reference result for that.
func Verify(d *dataset.Dataset, minCount int64, mfs []itemset.Itemset) error {
	if !itemset.IsAntichain(mfs) {
		return fmt.Errorf("mfi: MFS is not an antichain")
	}
	universe := d.PresentItems()
	for _, m := range mfs {
		if got := d.Support(m); got < minCount {
			return fmt.Errorf("mfi: claimed maximal itemset %v has support %d < %d", m, got, minCount)
		}
		for _, it := range universe {
			if m.Contains(it) {
				continue
			}
			ext := m.With(it)
			if got := d.Support(ext); got >= minCount {
				return fmt.Errorf("mfi: %v is not maximal: %v has support %d ≥ %d", m, ext, got, minCount)
			}
		}
	}
	return nil
}

// VerifyAgainst checks that two MFS collections are identical (order
// insensitive).
func VerifyAgainst(got, want []itemset.Itemset) error {
	g := append([]itemset.Itemset(nil), got...)
	w := append([]itemset.Itemset(nil), want...)
	itemset.SortItemsets(g)
	itemset.SortItemsets(w)
	if len(g) != len(w) {
		return fmt.Errorf("mfi: MFS size mismatch: got %d, want %d", len(g), len(w))
	}
	for i := range g {
		if !g[i].Equal(w[i]) {
			return fmt.Errorf("mfi: MFS mismatch at %d: got %v, want %v", i, g[i], w[i])
		}
	}
	return nil
}
