package parallel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pincer/internal/apriori"
	"pincer/internal/core"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/quest"
)

func TestParallelMatchesSequential(t *testing.T) {
	d := quest.Generate(quest.Params{
		NumTransactions: 1000, AvgTxLen: 10, AvgPatternLen: 4,
		NumPatterns: 40, NumItems: 80, Seed: 5,
	})
	seq := must(apriori.Mine(dataset.NewScanner(d), 0.02, apriori.DefaultOptions()))
	for _, workers := range []int{1, 2, 4, 7} {
		par := mineApriori(d, 0.02, apriori.DefaultOptions(), workers)
		if err := mfi.VerifyAgainst(par.MFS, seq.MFS); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Frequent.Len() != seq.Frequent.Len() {
			t.Fatalf("workers=%d: frequent %d vs %d", workers, par.Frequent.Len(), seq.Frequent.Len())
		}
		// exact supports survive the merge
		seq.Frequent.Each(func(x itemset.Itemset, c int64) {
			got, ok := par.Frequent.Count(x)
			if !ok || got != c {
				t.Errorf("workers=%d: support(%v) = %d,%v want %d", workers, x, got, ok, c)
			}
		})
		// pass structure identical to sequential level-wise mining: the
		// same miner runs, only its counter differs.
		if par.Stats.Passes != seq.Stats.Passes || par.Stats.Candidates != seq.Stats.Candidates {
			t.Errorf("workers=%d: passes/candidates %d/%d, sequential %d/%d", workers,
				par.Stats.Passes, par.Stats.Candidates, seq.Stats.Passes, seq.Stats.Candidates)
		}
	}
}

func TestParallelEdgeCases(t *testing.T) {
	// empty database
	res := mineApriori(dataset.Empty(5), 0.5, apriori.DefaultOptions(), 0)
	if len(res.MFS) != 0 {
		t.Errorf("empty MFS = %v", res.MFS)
	}
	// fewer transactions than workers
	d := dataset.New([]dataset.Transaction{itemset.New(1, 2), itemset.New(1, 2)})
	opt := apriori.DefaultOptions()
	res = mineApriori(d, 1.0, opt, 16)
	if err := mfi.VerifyAgainst(res.MFS, []itemset.Itemset{itemset.New(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if res.MFSSupports[0] != 2 {
		t.Errorf("support = %d", res.MFSSupports[0])
	}
	// KeepFrequent=false
	opt.KeepFrequent = false
	res = mineApriori(d, 1.0, opt, 16)
	if res.Frequent != nil {
		t.Error("Frequent retained")
	}
	if res.MFSSupports[0] != 2 {
		t.Errorf("support without KeepFrequent = %d", res.MFSSupports[0])
	}
}

func TestQuickParallelMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		universe := 4 + r.Intn(8)
		numTx := 5 + r.Intn(60)
		d := dataset.Empty(universe)
		for i := 0; i < numTx; i++ {
			n := 1 + r.Intn(universe)
			items := make([]itemset.Item, n)
			for j := range items {
				items[j] = itemset.Item(r.Intn(universe))
			}
			d.Append(itemset.New(items...))
		}
		sup := 0.05 + r.Float64()*0.4
		par := mineApriori(d, sup, apriori.DefaultOptions(), 1+r.Intn(6))
		seq := must(apriori.Mine(dataset.NewScanner(d), sup, apriori.DefaultOptions()))
		return mfi.VerifyAgainst(par.MFS, seq.MFS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// mineApriori runs the Apriori miner with opt, counting each pass over
// workers goroutines.
func mineApriori(d *dataset.Dataset, minSupport float64, opt apriori.Options, workers int) *mfi.Result {
	opt.Counter = NewPassCounter(d, workers)
	return must(apriori.Mine(dataset.NewScanner(d), minSupport, opt))
}

// minePincer runs the Pincer-Search miner with copt, counting each pass
// over workers goroutines.
func minePincer(d *dataset.Dataset, minSupport float64, copt core.Options, workers int) *mfi.Result {
	copt.Algorithm = "pincer-parallel"
	copt.Counter = NewPassCounter(d, workers)
	return must(core.Mine(dataset.NewScanner(d), minSupport, copt))
}

// must unwraps the (result, error) mining returns; in-memory test scans
// cannot fail.
func must[R any](res R, err error) R {
	if err != nil {
		panic(err)
	}
	return res
}
