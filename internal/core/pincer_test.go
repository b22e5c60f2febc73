package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pincer/internal/apriori"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/quest"
)

// figure2Dataset realizes the paper's Figure 2 scenario: maximal frequent
// itemsets {1,2,3,4,5} and {2,4,5,6}, with {1,6} and {3,6} infrequent.
func figure2Dataset() *dataset.Dataset {
	d := dataset.Empty(7)
	for i := 0; i < 2; i++ {
		d.Append(itemset.New(1, 2, 3, 4, 5))
		d.Append(itemset.New(2, 4, 5, 6))
	}
	return d
}

func TestPincerFigure2(t *testing.T) {
	d := figure2Dataset()
	sc := dataset.NewScanner(d)
	res := must(MineCount(sc, 2, DefaultOptions()))
	want := []itemset.Itemset{itemset.New(1, 2, 3, 4, 5), itemset.New(2, 4, 5, 6)}
	if err := mfi.VerifyAgainst(res.MFS, want); err != nil {
		t.Fatalf("MFS: %v (got %v)", err, res.MFS)
	}
	for i, m := range res.MFS {
		if res.MFSSupports[i] != 2 {
			t.Errorf("support(%v) = %d, want 2", m, res.MFSSupports[i])
		}
	}
	// The two maximal itemsets are discovered from the MFCS in pass 3; the
	// bottom-up search never climbs to levels 4 and 5.
	if res.Stats.Passes > 3 {
		t.Errorf("Pincer passes = %d, want ≤ 3", res.Stats.Passes)
	}
	ares := must(apriori.MineCount(dataset.NewScanner(d), 2, apriori.DefaultOptions()))
	if ares.Stats.Passes <= res.Stats.Passes {
		t.Errorf("Apriori passes (%d) should exceed Pincer passes (%d) here",
			ares.Stats.Passes, res.Stats.Passes)
	}
	if err := mfi.VerifyAgainst(res.MFS, ares.MFS); err != nil {
		t.Fatalf("Pincer vs Apriori: %v", err)
	}
}

func TestPincerFigure2PureIncremental(t *testing.T) {
	// Force the incremental (paper-faithful) MFCS-gen path.
	d := figure2Dataset()
	opt := DefaultOptions()
	opt.Pure = true
	res := must(MineCount(dataset.NewScanner(d), 2, opt))
	want := []itemset.Itemset{itemset.New(1, 2, 3, 4, 5), itemset.New(2, 4, 5, 6)}
	if err := mfi.VerifyAgainst(res.MFS, want); err != nil {
		t.Fatalf("MFS: %v (got %v)", err, res.MFS)
	}
	if res.Stats.Passes > 3 {
		t.Errorf("passes = %d", res.Stats.Passes)
	}
}

func TestPincerEdgeCases(t *testing.T) {
	// empty database
	res := must(MineCount(dataset.NewScanner(dataset.Empty(4)), 1, DefaultOptions()))
	if len(res.MFS) != 0 {
		t.Errorf("empty db MFS = %v", res.MFS)
	}
	// nothing frequent
	d := dataset.New([]dataset.Transaction{itemset.New(1), itemset.New(2)})
	res = must(MineCount(dataset.NewScanner(d), 2, DefaultOptions()))
	if len(res.MFS) != 0 {
		t.Errorf("MFS = %v, want empty", res.MFS)
	}
	// single frequent item
	d = dataset.New([]dataset.Transaction{itemset.New(1), itemset.New(1), itemset.New(2)})
	res = must(MineCount(dataset.NewScanner(d), 2, DefaultOptions()))
	if err := mfi.VerifyAgainst(res.MFS, []itemset.Itemset{itemset.New(1)}); err != nil {
		t.Errorf("single item: %v (got %v)", err, res.MFS)
	}
	// the whole universe frequent: one pass can settle everything
	d = dataset.New([]dataset.Transaction{
		itemset.New(0, 1, 2), itemset.New(0, 1, 2), itemset.New(0, 1, 2),
	})
	res = must(MineCount(dataset.NewScanner(d), 2, DefaultOptions()))
	if err := mfi.VerifyAgainst(res.MFS, []itemset.Itemset{itemset.New(0, 1, 2)}); err != nil {
		t.Errorf("universe frequent: %v (got %v)", err, res.MFS)
	}
	if res.Stats.Passes != 1 {
		t.Errorf("universe frequent should need 1 pass, took %d", res.Stats.Passes)
	}
}

func TestPincerAdaptiveAbandonment(t *testing.T) {
	// A tiny cap forces the MFCS to explode at pass 2 before any maximal
	// itemset is found; the run must degrade to bottom-up search and still
	// be correct.
	d := quest.Generate(quest.Params{
		NumTransactions: 400, AvgTxLen: 8, AvgPatternLen: 3,
		NumPatterns: 50, NumItems: 40, Seed: 3,
	})
	opt := DefaultOptions()
	opt.MFCSCap = 1
	res := must(Mine(dataset.NewScanner(d), 0.03, opt))
	if !res.Stats.AdaptiveOff {
		t.Fatal("cap 1 did not trigger abandonment")
	}
	ares := must(apriori.Mine(dataset.NewScanner(d), 0.03, apriori.DefaultOptions()))
	if err := mfi.VerifyAgainst(res.MFS, ares.MFS); err != nil {
		t.Fatalf("abandoned run wrong: %v", err)
	}
}

func TestPincerFallbackAfterMFSFound(t *testing.T) {
	// Two separate cliques: {1,2,3} is frequent as a whole (found in the
	// MFCS at pass 3); the 4-7 clique has frequent pairs but infrequent
	// {4,5,6}, so pass-3 MFCS-gen splits {4,5,6,7} into three elements and
	// exceeds cap 3 — after an MFS element exists, which forces the full
	// Apriori fallback.
	d := dataset.Empty(8)
	for i := 0; i < 2; i++ {
		d.Append(itemset.New(1, 2, 3))
		d.Append(itemset.New(4, 5, 7))
		d.Append(itemset.New(4, 6, 7))
		d.Append(itemset.New(5, 6, 7))
	}
	ares := must(apriori.MineCount(dataset.NewScanner(d), 2, apriori.DefaultOptions()))
	for _, tc := range []struct {
		name    string
		counter PassCounter
	}{
		{"scan", nil},
		// The fallback counts through the run's counter too, so a tid-list
		// run never reads the Scanner.
		{"tidlist", counting.NewTidListCounter(d, counting.TidListOptions{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.MFCSCap = 3
			opt.IncrementalSplitMax = 1_000_000 // keep the incremental pass-2 path
			opt.Counter = tc.counter
			sc := dataset.NewScanner(d)
			res := must(MineCount(sc, 2, opt))
			if !res.Stats.AdaptiveOff {
				t.Fatal("expected adaptive fallback")
			}
			if tc.counter != nil && sc.Passes() != 0 {
				t.Fatalf("the run read the Scanner %d times, want 0", sc.Passes())
			}
			if err := mfi.VerifyAgainst(res.MFS, ares.MFS); err != nil {
				t.Fatalf("fallback result wrong: %v (got %v, want %v)", err, res.MFS, ares.MFS)
			}
		})
	}
}

func TestPincerAbandonedCombineLevels(t *testing.T) {
	// Force abandonment at pass 2, then check the degraded mode combines
	// levels: same answers as Apriori, fewer passes than the plain
	// abandoned run.
	d := quest.Generate(quest.Params{
		NumTransactions: 600, AvgTxLen: 10, AvgPatternLen: 5,
		NumPatterns: 25, NumItems: 80, Seed: 13,
	})
	base := DefaultOptions()
	base.MFCSCap = 1 // guarantees pass-2 explosion before any MFS exists
	plain := base
	plain.CombineAfterAbandon = false
	combined := base
	combined.CombineAfterAbandon = true

	resPlain := must(Mine(dataset.NewScanner(d), 0.03, plain))
	resComb := must(Mine(dataset.NewScanner(d), 0.03, combined))
	ares := must(apriori.Mine(dataset.NewScanner(d), 0.03, apriori.DefaultOptions()))
	if !resPlain.Stats.AdaptiveOff || !resComb.Stats.AdaptiveOff {
		t.Fatal("abandonment did not trigger")
	}
	if err := mfi.VerifyAgainst(resComb.MFS, ares.MFS); err != nil {
		t.Fatalf("combined: %v", err)
	}
	if err := mfi.VerifyAgainst(resPlain.MFS, ares.MFS); err != nil {
		t.Fatalf("plain: %v", err)
	}
	if ares.Stats.Passes <= 4 {
		t.Skipf("workload too shallow (%d passes) to observe combining", ares.Stats.Passes)
	}
	if resComb.Stats.Passes >= resPlain.Stats.Passes {
		t.Errorf("combining saved no passes: %d vs %d", resComb.Stats.Passes, resPlain.Stats.Passes)
	}
}

func TestQuickPincerAbandonedCombineMatchesApriori(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDB(r)
		minCount := int64(1 + r.Intn(d.Len()/2+1))
		opt := DefaultOptions()
		opt.MFCSCap = 1
		opt.CombineAfterAbandon = true
		opt.CombineThreshold = 1 + r.Intn(40)
		res := must(MineCount(dataset.NewScanner(d), minCount, opt))
		ares := must(apriori.MineCount(dataset.NewScanner(d), minCount, apriori.DefaultOptions()))
		return mfi.VerifyAgainst(res.MFS, ares.MFS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPincerKeepFrequentFalse(t *testing.T) {
	d := figure2Dataset()
	opt := DefaultOptions()
	opt.KeepFrequent = false
	res := must(MineCount(dataset.NewScanner(d), 2, opt))
	if res.Frequent != nil {
		t.Fatal("Frequent retained")
	}
	if len(res.MFS) != 2 {
		t.Fatalf("MFS = %v", res.MFS)
	}
	for i := range res.MFS {
		if res.MFSSupports[i] != 2 {
			t.Errorf("MFSSupports[%d] = %d", i, res.MFSSupports[i])
		}
	}
}

func TestPincerExaminesFewerItemsets(t *testing.T) {
	// The headline property: on a database with long maximal itemsets,
	// Pincer-Search explicitly examines far fewer itemsets than Apriori.
	d := dataset.Empty(20)
	long := itemset.Range(0, 12)
	for i := 0; i < 30; i++ {
		d.Append(long)
	}
	d.Append(itemset.New(15, 16))
	sc := dataset.NewScanner(d)
	res := must(MineCount(sc, 10, DefaultOptions()))
	if err := mfi.VerifyAgainst(res.MFS, []itemset.Itemset{long}); err != nil {
		t.Fatalf("MFS: %v (got %v)", err, res.MFS)
	}
	if res.Stats.Passes > 2 {
		t.Errorf("passes = %d, want ≤ 2", res.Stats.Passes)
	}
	ares := must(apriori.MineCount(dataset.NewScanner(d), 10, apriori.DefaultOptions()))
	if ares.Stats.Passes != 12 {
		t.Errorf("apriori passes = %d, want 12", ares.Stats.Passes)
	}
	// Apriori explicitly discovers all 2^12-1 frequent itemsets
	if ares.Stats.FrequentCount != 4095 {
		t.Errorf("apriori frequent = %d, want 4095", ares.Stats.FrequentCount)
	}
	if res.Stats.FrequentCount > 100 {
		t.Errorf("pincer examined %d frequent itemsets, want ≤ 100", res.Stats.FrequentCount)
	}
}

func TestPincerTailPhaseRescuesRecoveryHole(t *testing.T) {
	// With the recovery procedure disabled, removing MFS subsets from L_k
	// starves the join and the bottom-up search stalls; the MFCS tail phase
	// must still deliver the complete MFS.
	d := figure2Dataset()
	// add a third maximal itemset overlapping both
	for i := 0; i < 2; i++ {
		d.Append(itemset.New(1, 2, 6))
	}
	opt := DefaultOptions()
	opt.DisableRecovery = true
	res := must(MineCount(dataset.NewScanner(d), 2, opt))
	ares := must(apriori.MineCount(dataset.NewScanner(d), 2, apriori.DefaultOptions()))
	if err := mfi.VerifyAgainst(res.MFS, ares.MFS); err != nil {
		t.Fatalf("recovery-off run incomplete: %v (got %v, want %v)", err, res.MFS, ares.MFS)
	}
}

func comparePincerApriori(t testing.TB, d *dataset.Dataset, minCount int64, opt Options) {
	res := must(MineCount(dataset.NewScanner(d), minCount, opt))
	ares := must(apriori.MineCount(dataset.NewScanner(d), minCount, apriori.DefaultOptions()))
	if err := mfi.VerifyAgainst(res.MFS, ares.MFS); err != nil {
		t.Fatalf("pincer (opt=%+v) vs apriori at minCount %d: %v\n got %v\nwant %v\ndata %v",
			opt, minCount, err, res.MFS, ares.MFS, d.Transactions())
	}
	// supports of MFS elements agree
	for i, m := range res.MFS {
		if res.MFSSupports[i] != d.Support(m) {
			t.Fatalf("support(%v) = %d, want %d", m, res.MFSSupports[i], d.Support(m))
		}
	}
}

func randomDB(r *rand.Rand) *dataset.Dataset {
	universe := 4 + r.Intn(10)
	numTx := 5 + r.Intn(50)
	d := dataset.Empty(universe)
	for i := 0; i < numTx; i++ {
		n := 1 + r.Intn(universe)
		items := make([]itemset.Item, n)
		for j := range items {
			items[j] = itemset.Item(r.Intn(universe))
		}
		d.Append(itemset.New(items...))
	}
	return d
}

func TestQuickPincerMatchesApriori(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDB(r)
		minCount := int64(1 + r.Intn(d.Len()/2+1))
		res := must(MineCount(dataset.NewScanner(d), minCount, DefaultOptions()))
		ares := must(apriori.MineCount(dataset.NewScanner(d), minCount, apriori.DefaultOptions()))
		return mfi.VerifyAgainst(res.MFS, ares.MFS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPincerPureMatchesApriori(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDB(r)
		minCount := int64(1 + r.Intn(d.Len()/2+1))
		opt := DefaultOptions()
		opt.Pure = true
		res := must(MineCount(dataset.NewScanner(d), minCount, opt))
		ares := must(apriori.MineCount(dataset.NewScanner(d), minCount, apriori.DefaultOptions()))
		return mfi.VerifyAgainst(res.MFS, ares.MFS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPincerNoRecoveryMatchesApriori(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDB(r)
		minCount := int64(1 + r.Intn(d.Len()/2+1))
		opt := DefaultOptions()
		opt.DisableRecovery = true
		res := must(MineCount(dataset.NewScanner(d), minCount, opt))
		ares := must(apriori.MineCount(dataset.NewScanner(d), minCount, apriori.DefaultOptions()))
		return mfi.VerifyAgainst(res.MFS, ares.MFS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPincerTinyCapMatchesApriori(t *testing.T) {
	// Exercise the abandonment and fallback paths aggressively.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDB(r)
		minCount := int64(1 + r.Intn(d.Len()/2+1))
		opt := DefaultOptions()
		opt.MFCSCap = 1 + r.Intn(3)
		opt.IncrementalSplitMax = r.Intn(8)
		res := must(MineCount(dataset.NewScanner(d), minCount, opt))
		ares := must(apriori.MineCount(dataset.NewScanner(d), minCount, apriori.DefaultOptions()))
		return mfi.VerifyAgainst(res.MFS, ares.MFS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPincerOnQuestScattered(t *testing.T) {
	// Scattered parameters (many patterns): the clique path must engage and
	// the result must match Apriori exactly.
	d := quest.Generate(quest.Params{
		NumTransactions: 1500, AvgTxLen: 8, AvgPatternLen: 3,
		NumPatterns: 120, NumItems: 100, Seed: 17,
	})
	for _, sup := range []float64{0.01, 0.02, 0.04} {
		comparePincerApriori(t, d, dataset.MinCountFor(d.Len(), sup), DefaultOptions())
	}
}

func TestPincerOnQuestConcentrated(t *testing.T) {
	// Concentrated parameters (few long patterns): the MFCS should find
	// long maximal itemsets early and beat Apriori on passes.
	d := quest.Generate(quest.Params{
		NumTransactions: 800, AvgTxLen: 14, AvgPatternLen: 10,
		NumPatterns: 20, NumItems: 500, Seed: 23,
	})
	minCount := dataset.MinCountFor(d.Len(), 0.05)
	res := must(MineCount(dataset.NewScanner(d), minCount, DefaultOptions()))
	ares := must(apriori.MineCount(dataset.NewScanner(d), minCount, apriori.DefaultOptions()))
	if err := mfi.VerifyAgainst(res.MFS, ares.MFS); err != nil {
		t.Fatalf("concentrated: %v", err)
	}
	if res.LongestMFS() < 6 {
		t.Skipf("workload too easy (longest MFS %d); shape assertions skipped", res.LongestMFS())
	}
	if res.Stats.Passes >= ares.Stats.Passes {
		t.Errorf("pincer passes %d, apriori %d: expected fewer", res.Stats.Passes, ares.Stats.Passes)
	}
	if res.Stats.FrequentCount >= ares.Stats.FrequentCount {
		t.Errorf("pincer examined %d frequent itemsets, apriori %d: expected fewer",
			res.Stats.FrequentCount, ares.Stats.FrequentCount)
	}
}

func TestPincerEnginesAgree(t *testing.T) {
	d := quest.Generate(quest.Params{
		NumTransactions: 700, AvgTxLen: 10, AvgPatternLen: 4,
		NumPatterns: 40, NumItems: 60, Seed: 9,
	})
	var ref *mfi.Result
	for _, e := range []counting.Engine{counting.EngineList, counting.EngineHashTree, counting.EngineTrie} {
		opt := DefaultOptions()
		opt.Engine = e
		res := must(Mine(dataset.NewScanner(d), 0.02, opt))
		if ref == nil {
			ref = res
			continue
		}
		if err := mfi.VerifyAgainst(res.MFS, ref.MFS); err != nil {
			t.Fatalf("engine %v: %v", e, err)
		}
	}
}

// TestNonMonotoneMFS reproduces §4.1.3's observation: lowering the minimum
// support can SHRINK the maximum frequent set. The paper's example: at the
// higher threshold the MFS is {{1,2},{1,3},{2,3}}; lowering it makes
// {1,2,3} frequent and the MFS collapses to one element.
func TestNonMonotoneMFS(t *testing.T) {
	d := dataset.Empty(4)
	// {1,2,3} in 2 of 12 transactions (~17%); each pair in 4 of 12 (~33%)
	for i := 0; i < 2; i++ {
		d.Append(itemset.New(1, 2, 3))
		d.Append(itemset.New(1, 2))
		d.Append(itemset.New(1, 3))
		d.Append(itemset.New(2, 3))
	}
	for i := 0; i < 4; i++ {
		d.Append(itemset.New(0))
	}
	high := must(MineCount(dataset.NewScanner(d), 4, DefaultOptions())) // pairs yes, triple no
	wantHigh := []itemset.Itemset{itemset.New(0), itemset.New(1, 2), itemset.New(1, 3), itemset.New(2, 3)}
	if err := mfi.VerifyAgainst(high.MFS, wantHigh); err != nil {
		t.Fatalf("high threshold: %v (got %v)", err, high.MFS)
	}
	low := must(MineCount(dataset.NewScanner(d), 2, DefaultOptions())) // triple becomes frequent
	foundTriple := false
	for _, m := range low.MFS {
		if m.Equal(itemset.New(1, 2, 3)) {
			foundTriple = true
		}
		if len(m) == 2 && m.IsSubsetOf(itemset.New(1, 2, 3)) {
			t.Errorf("pair %v survived in the low-threshold MFS", m)
		}
	}
	if !foundTriple {
		t.Fatalf("low threshold MFS = %v", low.MFS)
	}
	// the non-monotonicity itself: fewer maximal itemsets at lower support
	highCount, lowCount := 0, 0
	for _, m := range high.MFS {
		if m.IsSubsetOf(itemset.New(1, 2, 3)) {
			highCount++
		}
	}
	for _, m := range low.MFS {
		if m.IsSubsetOf(itemset.New(1, 2, 3)) {
			lowCount++
		}
	}
	if lowCount >= highCount {
		t.Errorf("MFS over {1,2,3} did not shrink: %d -> %d", highCount, lowCount)
	}
}

func TestStatsAggregatesMatchPassDetails(t *testing.T) {
	d := figure2Dataset()
	for _, opt := range []Options{DefaultOptions(), {Engine: counting.EngineTrie, Pure: true, KeepFrequent: true}} {
		res := must(MineCount(dataset.NewScanner(d), 2, opt))
		var candAll, mfcs, freq int64
		var cand3 int64
		for _, p := range res.Stats.PassDetails {
			candAll += int64(p.Candidates) + int64(p.MFCSCandidates)
			mfcs += int64(p.MFCSCandidates)
			freq += int64(p.Frequent)
			if p.Pass > 2 {
				cand3 += int64(p.Candidates)
			}
		}
		if res.Stats.CandidatesAll != candAll {
			t.Errorf("CandidatesAll %d != sum %d", res.Stats.CandidatesAll, candAll)
		}
		if res.Stats.MFCSCandidates != mfcs {
			t.Errorf("MFCSCandidates %d != sum %d", res.Stats.MFCSCandidates, mfcs)
		}
		if res.Stats.FrequentCount != freq {
			t.Errorf("FrequentCount %d != sum %d", res.Stats.FrequentCount, freq)
		}
		if res.Stats.Candidates != cand3+mfcs {
			t.Errorf("Candidates %d != pass≥3 %d + mfcs %d", res.Stats.Candidates, cand3, mfcs)
		}
		if res.Stats.Passes != len(res.Stats.PassDetails) {
			t.Errorf("Passes %d != detail count %d", res.Stats.Passes, len(res.Stats.PassDetails))
		}
	}
}

func TestPincerStatsConsistency(t *testing.T) {
	d := figure2Dataset()
	sc := dataset.NewScanner(d)
	res := must(MineCount(sc, 2, DefaultOptions()))
	if sc.Passes() != res.Stats.Passes {
		t.Errorf("scanner passes %d != stats passes %d", sc.Passes(), res.Stats.Passes)
	}
	var mfsFound int
	for _, p := range res.Stats.PassDetails {
		mfsFound += p.MFSFound
	}
	if mfsFound < len(res.MFS) {
		t.Errorf("pass details account for %d MFS discoveries, result has %d", mfsFound, len(res.MFS))
	}
	if res.Stats.Algorithm != "pincer" {
		t.Errorf("Algorithm = %q", res.Stats.Algorithm)
	}
}

// must unwraps the (result, error) mining returns; in-memory test scans
// cannot fail.
func must[R any](res R, err error) R {
	if err != nil {
		panic(err)
	}
	return res
}
