package dataset

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"pincer/internal/itemset"
)

func newTestDataset() *Dataset {
	return New([]Transaction{
		itemset.New(0, 1, 2),
		itemset.New(1, 2),
		itemset.New(0, 2),
		itemset.New(2),
		itemset.New(0, 1, 2, 3),
	})
}

func TestNewNormalizes(t *testing.T) {
	d := New([]Transaction{{3, 1, 2, 1}})
	if got := d.Transaction(0); !got.Equal(itemset.New(1, 2, 3)) {
		t.Fatalf("transaction not normalized: %v", got)
	}
	if d.NumItems() != 4 {
		t.Fatalf("NumItems = %d, want 4", d.NumItems())
	}
}

func TestEmptyAndSetNumItems(t *testing.T) {
	d := Empty(10)
	if d.NumItems() != 10 || d.Len() != 0 {
		t.Fatalf("Empty: NumItems=%d Len=%d", d.NumItems(), d.Len())
	}
	d.Append(itemset.New(20))
	if d.NumItems() != 21 {
		t.Fatalf("NumItems after Append = %d", d.NumItems())
	}
	d.SetNumItems(5) // refuses to shrink
	if d.NumItems() != 21 {
		t.Fatalf("SetNumItems shrank universe to %d", d.NumItems())
	}
	d.SetNumItems(100)
	if d.NumItems() != 100 {
		t.Fatalf("SetNumItems = %d", d.NumItems())
	}
}

func TestSupport(t *testing.T) {
	d := newTestDataset()
	tests := []struct {
		x    itemset.Itemset
		want int64
	}{
		{nil, 5}, // empty itemset is in every transaction
		{itemset.New(2), 5},
		{itemset.New(0), 3},
		{itemset.New(1), 3},
		{itemset.New(3), 1},
		{itemset.New(0, 1), 2},
		{itemset.New(0, 1, 2), 2},
		{itemset.New(0, 1, 2, 3), 1},
		{itemset.New(4), 0},
		{itemset.New(1, 3), 1},
	}
	for _, tc := range tests {
		if got := d.Support(tc.x); got != tc.want {
			t.Errorf("Support(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
	if got := d.SupportFraction(itemset.New(0)); got != 0.6 {
		t.Errorf("SupportFraction = %v, want 0.6", got)
	}
	if got := Empty(3).SupportFraction(itemset.New(0)); got != 0 {
		t.Errorf("SupportFraction on empty dataset = %v", got)
	}
}

func TestMinCount(t *testing.T) {
	d := New(make([]Transaction, 100))
	tests := []struct {
		sup  float64
		want int64
	}{
		{0.02, 2},
		{0.025, 3},  // ceil
		{0.0201, 3}, // strictly above 2 transactions
		{1.0, 100},
		{0, 1},
		{-1, 1},
		{0.001, 1},
	}
	for _, tc := range tests {
		if got := d.MinCount(tc.sup); got != tc.want {
			t.Errorf("MinCount(%v) = %d, want %d", tc.sup, got, tc.want)
		}
	}
}

func TestItemCountsAndPresentItems(t *testing.T) {
	d := newTestDataset()
	want := []int64{3, 3, 5, 1}
	got := d.ItemCounts()
	if len(got) != len(want) {
		t.Fatalf("ItemCounts len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ItemCounts[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if p := d.PresentItems(); !p.Equal(itemset.New(0, 1, 2, 3)) {
		t.Errorf("PresentItems = %v", p)
	}
	d2 := Empty(5)
	d2.Append(itemset.New(1))
	d2.Append(itemset.New(3))
	if p := d2.PresentItems(); !p.Equal(itemset.New(1, 3)) {
		t.Errorf("PresentItems = %v", p)
	}
}

func TestStats(t *testing.T) {
	d := newTestDataset()
	s := d.Stats()
	if s.Transactions != 5 || s.Items != 4 || s.DistinctItems != 4 {
		t.Errorf("Stats = %+v", s)
	}
	if s.MinLength != 1 || s.MaxLength != 4 {
		t.Errorf("lengths = %d..%d", s.MinLength, s.MaxLength)
	}
	if s.AvgLength != 12.0/5.0 {
		t.Errorf("AvgLength = %v", s.AvgLength)
	}
	if s.String() == "" {
		t.Error("empty Stats string")
	}
	if z := Empty(3).Stats(); z.Transactions != 0 || z.AvgLength != 0 {
		t.Errorf("empty Stats = %+v", z)
	}
}

func TestSliceAndPartitions(t *testing.T) {
	d := newTestDataset()
	s := d.Slice(1, 3)
	if s.Len() != 2 || !s.Transaction(0).Equal(itemset.New(1, 2)) {
		t.Fatalf("Slice wrong: len=%d", s.Len())
	}
	parts := d.Partitions(2)
	if len(parts) != 2 || parts[0].Len()+parts[1].Len() != 5 {
		t.Fatalf("Partitions(2): %d parts", len(parts))
	}
	parts = d.Partitions(10) // clamped to |D|
	if len(parts) != 5 {
		t.Fatalf("Partitions(10) = %d parts, want 5", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != 5 {
		t.Fatalf("partitions lose transactions: %d", total)
	}
	if got := d.Partitions(0); len(got) != 1 || got[0].Len() != 5 {
		t.Fatalf("Partitions(0) = %d parts", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Error("Slice out of range did not panic")
		}
	}()
	d.Slice(4, 2)
}

func TestBitsets(t *testing.T) {
	d := newTestDataset()
	bs := d.Bitsets()
	if len(bs) != d.Len() {
		t.Fatalf("Bitsets len = %d", len(bs))
	}
	for i, b := range bs {
		if !b.Items().Equal(d.Transaction(i)) {
			t.Errorf("bitset %d = %v, want %v", i, b.Items(), d.Transaction(i))
		}
	}
}

func TestSortByLength(t *testing.T) {
	d := newTestDataset()
	d.SortByLength()
	for i := 1; i < d.Len(); i++ {
		if len(d.Transaction(i-1)) > len(d.Transaction(i)) {
			t.Fatalf("not sorted by length at %d", i)
		}
	}
}

func TestScannerCountsPasses(t *testing.T) {
	d := newTestDataset()
	sc := NewScanner(d)
	if sc.Passes() != 0 || sc.Len() != 5 || sc.NumItems() != 4 {
		t.Fatalf("fresh scanner: passes=%d len=%d n=%d", sc.Passes(), sc.Len(), sc.NumItems())
	}
	seen := 0
	sc.Scan(func(tx itemset.Itemset, bits *itemset.Bitset) {
		seen++
		if !bits.Items().Equal(tx) {
			t.Errorf("bitset/tx mismatch: %v vs %v", bits.Items(), tx)
		}
	})
	if seen != 5 || sc.Passes() != 1 {
		t.Fatalf("after scan: seen=%d passes=%d", seen, sc.Passes())
	}
	sc.Scan(func(itemset.Itemset, *itemset.Bitset) {})
	if sc.Passes() != 2 {
		t.Fatalf("passes = %d", sc.Passes())
	}
	sc.ResetPasses()
	if sc.Passes() != 0 {
		t.Fatalf("ResetPasses: %d", sc.Passes())
	}
	if sc.Dataset() != d {
		t.Fatal("Dataset accessor")
	}
}

// TestNewScannerBuildsNothing pins that wrapping a dataset costs a fixed
// number of allocations: the dense forms wait for the first Scan, so a
// miner that never scans (a tid-list counter's) never pays for them.
func TestNewScannerBuildsNothing(t *testing.T) {
	d := randomDataset(rand.New(rand.NewSource(3)), 10_000, 1000)
	if allocs := testing.AllocsPerRun(10, func() { NewScanner(d) }); allocs > 2 {
		t.Fatalf("NewScanner over %d transactions: %.0f allocs, want ≤ 2", d.Len(), allocs)
	}
}

// TestScannerConcurrentFirstScans starts several scans of a fresh scanner
// at once, as a cluster worker does on a shard's scanner: each sees every
// transaction with its dense form, the same one every other scan sees (run
// under -race, the build of the dense forms must not race with their
// readers).
func TestScannerConcurrentFirstScans(t *testing.T) {
	d := randomDataset(rand.New(rand.NewSource(4)), 500, 200)
	sc := NewScanner(d)
	const scans = 4
	seen := make([][]*itemset.Bitset, scans)
	var wg sync.WaitGroup
	for g := 0; g < scans; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			sc.Scan(func(tx itemset.Itemset, bits *itemset.Bitset) {
				if !bits.Items().Equal(tx) {
					t.Errorf("scan %d, transaction %d: bitset %v, want %v", g, i, bits, tx)
				}
				seen[g] = append(seen[g], bits)
				i++
			})
		}(g)
	}
	wg.Wait()
	for g := 0; g < scans; g++ {
		if len(seen[g]) != d.Len() {
			t.Fatalf("scan %d saw %d transactions, want %d", g, len(seen[g]), d.Len())
		}
		for i, b := range seen[g] {
			if b != seen[0][i] {
				t.Fatalf("scan %d, transaction %d: a different bitset from scan 0's", g, i)
			}
		}
	}
	if sc.Passes() != scans {
		t.Fatalf("passes = %d, want %d", sc.Passes(), scans)
	}
}

func TestQuickSupportMonotone(t *testing.T) {
	// support(X) ≥ support(Y) whenever X ⊆ Y (anti-monotonicity, the
	// foundation of Observation 1).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r, 40, 12)
		y := randomItemsetOver(r, 12, 5)
		if y.Empty() {
			return true
		}
		x := y[:r.Intn(len(y))+1] // prefix subset
		return d.Support(itemset.Itemset(x).Clone()) >= d.Support(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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

func randomDataset(r *rand.Rand, numTx, universe int) *Dataset {
	d := Empty(universe)
	for i := 0; i < numTx; i++ {
		d.Append(randomItemsetOver(r, universe, universe/2))
	}
	return d
}
