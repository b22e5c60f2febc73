package mfi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pincer/internal/dataset"
	"pincer/internal/itemset"
)

func TestStatsAddPass(t *testing.T) {
	var s Stats
	s.AddPass(PassStats{Candidates: 100, MFCSCandidates: 1, Frequent: 50})
	s.AddPass(PassStats{Candidates: 200, MFCSCandidates: 2, Frequent: 60})
	s.AddPass(PassStats{Candidates: 30, MFCSCandidates: 3, Frequent: 10, MFSFound: 2})
	if s.Passes != 3 {
		t.Errorf("Passes = %d", s.Passes)
	}
	// paper accounting: pass 3 bottom-up candidates + all MFCS candidates
	if s.Candidates != 30+1+2+3 {
		t.Errorf("Candidates = %d, want 36", s.Candidates)
	}
	if s.CandidatesAll != 100+200+30+1+2+3 {
		t.Errorf("CandidatesAll = %d", s.CandidatesAll)
	}
	if s.MFCSCandidates != 6 {
		t.Errorf("MFCSCandidates = %d", s.MFCSCandidates)
	}
	if s.FrequentCount != 120 {
		t.Errorf("FrequentCount = %d", s.FrequentCount)
	}
	if len(s.PassDetails) != 3 || s.PassDetails[2].Pass != 3 {
		t.Errorf("PassDetails = %+v", s.PassDetails)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestResultQueries(t *testing.T) {
	freq := itemset.NewSet(0)
	freq.AddWithCount(itemset.New(1), 10)
	freq.AddWithCount(itemset.New(1, 2), 5)
	r := &Result{
		MFS:         []itemset.Itemset{itemset.New(1, 2, 3), itemset.New(4, 5)},
		MFSSupports: []int64{4, 6},
		Frequent:    freq,
		MinCount:    4,
	}
	if c, ok := r.SupportOf(itemset.New(1, 2)); !ok || c != 5 {
		t.Errorf("SupportOf({1,2}) = %d, %v", c, ok)
	}
	if c, ok := r.SupportOf(itemset.New(1, 2, 3)); !ok || c != 4 {
		t.Errorf("SupportOf(MFS elem) = %d, %v", c, ok)
	}
	if _, ok := r.SupportOf(itemset.New(9)); ok {
		t.Error("SupportOf unknown itemset reported true")
	}
	if !r.IsFrequent(itemset.New(2, 3)) {
		t.Error("IsFrequent({2,3}) = false")
	}
	if r.IsFrequent(itemset.New(3, 4)) {
		t.Error("IsFrequent({3,4}) = true")
	}
	if r.LongestMFS() != 3 {
		t.Errorf("LongestMFS = %d", r.LongestMFS())
	}
	if (&Result{}).LongestMFS() != 0 {
		t.Error("LongestMFS of empty result")
	}
}

func TestExpand(t *testing.T) {
	mfs := []itemset.Itemset{itemset.New(1, 2, 3), itemset.New(3, 4)}
	got := Expand(mfs, 0)
	want := []itemset.Itemset{
		itemset.New(1), itemset.New(1, 2), itemset.New(1, 2, 3), itemset.New(1, 3),
		itemset.New(2), itemset.New(2, 3),
		itemset.New(3), itemset.New(3, 4), itemset.New(4),
	}
	if len(got) != len(want) {
		t.Fatalf("Expand = %v (%d), want %d sets", got, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("Expand[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// maxLen caps the expansion
	capped := Expand(mfs, 1)
	if len(capped) != 4 {
		t.Fatalf("Expand maxLen=1 = %v", capped)
	}
	if len(Expand(nil, 0)) != 0 {
		t.Error("Expand(nil) not empty")
	}
}

func TestCountFrequent(t *testing.T) {
	tests := []struct {
		mfs  []itemset.Itemset
		want int64
	}{
		{nil, 0},
		{[]itemset.Itemset{itemset.New(1)}, 1},
		{[]itemset.Itemset{itemset.New(1, 2, 3)}, 7},
		{[]itemset.Itemset{itemset.New(1, 2, 3), itemset.New(3, 4)}, 9},
		{[]itemset.Itemset{itemset.New(1, 2), itemset.New(2, 3), itemset.New(1, 3)}, 6},
		// non-maximal input is filtered first
		{[]itemset.Itemset{itemset.New(1, 2), itemset.New(1, 2, 3)}, 7},
	}
	for _, tc := range tests {
		if got := CountFrequent(tc.mfs); got != tc.want {
			t.Errorf("CountFrequent(%v) = %d, want %d", tc.mfs, got, tc.want)
		}
	}
}

func TestQuickCountFrequentMatchesExpand(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mfs := make([]itemset.Itemset, r.Intn(31))
		for i := range mfs {
			mfs[i] = randomItemsetOver(r, 16, 10)
		}
		return CountFrequent(mfs) == int64(len(Expand(itemset.MaximalOnly(mfs), 0)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// More than 20 maximal sets, one of them 40 items long, must be counted
// without enumerating the 2^40 subsets of the long one.
func TestCountFrequentLongElementAmongMany(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	long := make([]itemset.Item, 40)
	for i := range long {
		long[i] = itemset.Item(i)
	}
	mfs := []itemset.Itemset{itemset.New(long...)}
	for len(itemset.MaximalOnly(mfs)) < 21 {
		m := randomItemsetOver(r, 60, 8)
		if len(m) > 0 && int(m.Last()) >= 40 {
			mfs = append(mfs, m)
		}
	}
	start := time.Now()
	got := CountFrequent(mfs)
	if took := time.Since(start); took > time.Second {
		t.Errorf("CountFrequent took %v on 21 sets with a 40-item one", took)
	}
	// Every set not inside the long element contains an item >= 40; count
	// those by brute force over the short elements.
	outside := itemset.NewSet(0)
	for _, m := range mfs[1:] {
		for k := 1; k <= len(m); k++ {
			m.EachSubsetOfSize(k, func(x itemset.Itemset) {
				if int(x.Last()) >= 40 {
					outside.Add(x.Clone())
				}
			})
		}
	}
	if want := int64(1)<<40 - 1 + int64(outside.Len()); got != want {
		t.Errorf("CountFrequent = %d, want %d", got, want)
	}
}

func TestCountFrequentSaturates(t *testing.T) {
	set := func(n int) []itemset.Itemset {
		items := make([]itemset.Item, n)
		for i := range items {
			items[i] = itemset.Item(i)
		}
		return []itemset.Itemset{itemset.New(items...)}
	}
	if got := CountFrequent(set(62)); got != 1<<62-1 {
		t.Errorf("62 items: %d, want %d", got, int64(1<<62-1))
	}
	for _, n := range []int{63, 64, 100} {
		if got := CountFrequent(set(n)); got != math.MaxInt64 {
			t.Errorf("%d items: %d, want math.MaxInt64", n, got)
		}
	}
	two := append(set(64), itemset.New(500, 501))
	if got := CountFrequent(two); got != math.MaxInt64 {
		t.Errorf("64 items plus a pair: %d, want math.MaxInt64", got)
	}
}

func TestNegativeBorder(t *testing.T) {
	universe := itemset.New(1, 2, 3, 4)
	// frequent: all subsets of {1,2,3}
	frequent := Expand([]itemset.Itemset{itemset.New(1, 2, 3)}, 0)
	border := NegativeBorder(universe, frequent)
	// minimal infrequent: {4}
	if len(border) != 1 || !border[0].Equal(itemset.New(4)) {
		t.Fatalf("border = %v, want [{4}]", border)
	}

	// frequent: {1},{2},{3},{1,2},{1,3} — border: {2,3}
	frequent = []itemset.Itemset{
		itemset.New(1), itemset.New(2), itemset.New(3),
		itemset.New(1, 2), itemset.New(1, 3),
	}
	border = NegativeBorder(itemset.New(1, 2, 3), frequent)
	if len(border) != 1 || !border[0].Equal(itemset.New(2, 3)) {
		t.Fatalf("border = %v, want [{2,3}]", border)
	}

	// all pairs frequent → border is the triple
	frequent = []itemset.Itemset{
		itemset.New(1), itemset.New(2), itemset.New(3),
		itemset.New(1, 2), itemset.New(1, 3), itemset.New(2, 3),
	}
	border = NegativeBorder(itemset.New(1, 2, 3), frequent)
	if len(border) != 1 || !border[0].Equal(itemset.New(1, 2, 3)) {
		t.Fatalf("border = %v, want [{1,2,3}]", border)
	}

	// nothing frequent → border is all singletons
	border = NegativeBorder(itemset.New(1, 2), nil)
	if len(border) != 2 {
		t.Fatalf("border = %v", border)
	}
}

func TestQuickNegativeBorderIsMinimalInfrequent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		universe := itemset.Range(0, itemset.Item(3+r.Intn(5)))
		// random downward-closed family: expand a few random "maximal" sets
		n := 1 + r.Intn(3)
		mfs := make([]itemset.Itemset, n)
		for i := range mfs {
			mfs[i] = randomSubset(r, universe)
			if len(mfs[i]) == 0 {
				mfs[i] = itemset.Itemset{universe[0]}
			}
		}
		frequent := Expand(mfs, 0)
		freqSet := itemset.SetOf(frequent...)
		border := NegativeBorder(universe, frequent)
		borderSet := itemset.SetOf(border...)
		// border members: infrequent, all facets frequent
		for _, b := range border {
			if freqSet.Contains(b) {
				return false
			}
			ok := true
			b.Facets(func(f itemset.Itemset) {
				if !freqSet.Contains(f.Clone()) {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		// completeness: every minimal infrequent itemset of size ≤3 is in border
		complete := true
		for k := 1; k <= 3 && complete; k++ {
			universe.EachSubsetOfSize(k, func(x itemset.Itemset) {
				if !complete || freqSet.Contains(x) {
					return
				}
				allFacetsFrequent := true
				if k > 1 {
					x.Facets(func(f itemset.Itemset) {
						if !freqSet.Contains(f.Clone()) {
							allFacetsFrequent = false
						}
					})
				}
				if allFacetsFrequent && !borderSet.Contains(x) {
					complete = false
				}
			})
		}
		return complete
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestVerify(t *testing.T) {
	d := dataset.New([]dataset.Transaction{
		itemset.New(1, 2, 3),
		itemset.New(1, 2, 3),
		itemset.New(1, 2),
		itemset.New(4),
	})
	// true MFS at minCount 2: {1,2,3}
	if err := Verify(d, 2, []itemset.Itemset{itemset.New(1, 2, 3)}); err != nil {
		t.Errorf("valid MFS rejected: %v", err)
	}
	// {1,2} is frequent but not maximal
	if err := Verify(d, 2, []itemset.Itemset{itemset.New(1, 2)}); err == nil {
		t.Error("non-maximal element accepted")
	}
	// {1,4} is infrequent
	if err := Verify(d, 2, []itemset.Itemset{itemset.New(1, 4)}); err == nil {
		t.Error("infrequent element accepted")
	}
	// not an antichain
	if err := Verify(d, 2, []itemset.Itemset{itemset.New(1, 2, 3), itemset.New(1, 2)}); err == nil {
		t.Error("chain accepted")
	}
}

func TestVerifyAgainst(t *testing.T) {
	a := []itemset.Itemset{itemset.New(1, 2), itemset.New(3)}
	b := []itemset.Itemset{itemset.New(3), itemset.New(1, 2)} // order-insensitive
	if err := VerifyAgainst(a, b); err != nil {
		t.Errorf("equal MFS rejected: %v", err)
	}
	if err := VerifyAgainst(a, a[:1]); err == nil {
		t.Error("size mismatch accepted")
	}
	if err := VerifyAgainst(a, []itemset.Itemset{itemset.New(1, 2), itemset.New(4)}); err == nil {
		t.Error("content mismatch accepted")
	}
}

func randomItemsetOver(r *rand.Rand, universe, maxLen int) itemset.Itemset {
	n := r.Intn(maxLen + 1)
	items := make([]itemset.Item, n)
	for i := range items {
		items[i] = itemset.Item(r.Intn(universe))
	}
	return itemset.New(items...)
}

func randomSubset(r *rand.Rand, universe itemset.Itemset) itemset.Itemset {
	var out []itemset.Item
	for _, it := range universe {
		if r.Intn(2) == 0 {
			out = append(out, it)
		}
	}
	return itemset.New(out...)
}
