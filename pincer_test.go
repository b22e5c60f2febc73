package pincer_test

import (
	"context"
	"strings"
	"testing"

	"pincer"
)

// mine runs pincer.Mine in memory and fails the test on an error.
func mine(t *testing.T, d *pincer.Dataset, minSupport float64, opt pincer.Options) *pincer.Result {
	t.Helper()
	res, err := pincer.Mine(context.Background(), d, minSupport, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func toyDataset() *pincer.Dataset {
	return pincer.NewDataset(
		pincer.NewItemset(1, 2, 3),
		pincer.NewItemset(1, 2, 3),
		pincer.NewItemset(1, 2),
		pincer.NewItemset(3, 4),
		pincer.NewItemset(3, 4),
	)
}

func TestFacadeMine(t *testing.T) {
	db := toyDataset()
	res := mine(t, db, 0.4, pincer.Options{})
	if len(res.MFS) != 2 {
		t.Fatalf("MFS = %v", res.MFS)
	}
	if !res.MFS[0].Equal(pincer.NewItemset(1, 2, 3)) || !res.MFS[1].Equal(pincer.NewItemset(3, 4)) {
		t.Fatalf("MFS = %v", res.MFS)
	}
	if res.MFSSupports[0] != 2 || res.MFSSupports[1] != 2 {
		t.Fatalf("supports = %v", res.MFSSupports)
	}
	if !res.IsFrequent(pincer.NewItemset(1, 3)) {
		t.Error("IsFrequent({1,3}) = false")
	}
	if got := pincer.CountFrequent(res); got != 9 {
		t.Errorf("CountFrequent = %d, want 9", got)
	}
	if got := len(pincer.ExpandFrequent(res, 0)); got != 9 {
		t.Errorf("ExpandFrequent = %d sets", got)
	}
}

func TestFacadeAprioriAgrees(t *testing.T) {
	db := toyDataset()
	a := mine(t, db, 0.4, pincer.Options{Miner: "apriori", KeepFrequent: true})
	p := mine(t, db, 0.4, pincer.Options{})
	if len(a.MFS) != len(p.MFS) {
		t.Fatalf("disagree: %v vs %v", a.MFS, p.MFS)
	}
	for i := range a.MFS {
		if !a.MFS[i].Equal(p.MFS[i]) {
			t.Fatalf("disagree at %d: %v vs %v", i, a.MFS[i], p.MFS[i])
		}
	}
	if a.Frequent == nil || a.Frequent.Len() != 9 {
		t.Errorf("apriori frequent set size wrong")
	}
}

func TestFacadeQuestRoundTrip(t *testing.T) {
	p, err := pincer.ParseQuestName("T5.I2.D300")
	if err != nil {
		t.Fatal(err)
	}
	p.NumItems = 50
	p.NumPatterns = 20
	p.Seed = 3
	db := pincer.GenerateQuest(p)
	if db.Len() != 300 {
		t.Fatalf("|D| = %d", db.Len())
	}
	res := mine(t, db, 0.03, pincer.Options{})
	ref := mine(t, db, 0.03, pincer.Options{Miner: "apriori"})
	if len(res.MFS) != len(ref.MFS) {
		t.Fatalf("facade miners disagree: %d vs %d", len(res.MFS), len(ref.MFS))
	}
}

func TestFacadeRules(t *testing.T) {
	db := toyDataset()
	res := mine(t, db, 0.4, pincer.Options{})
	rules, err := pincer.RulesFromResult(db, res, 0, pincer.RuleParams{MinConfidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules")
	}
	found := false
	for _, r := range rules {
		if r.Antecedent.Equal(pincer.NewItemset(4)) && r.Consequent.Equal(pincer.NewItemset(3)) {
			found = true
			if r.Confidence != 1.0 {
				t.Errorf("confidence({4}=>{3}) = %v", r.Confidence)
			}
		}
	}
	if !found {
		t.Errorf("rule {4}=>{3} missing: %v", rules)
	}
}

func TestFacadeItemsetHelpers(t *testing.T) {
	s, err := pincer.ParseItemset("{3,1,2}")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(pincer.NewItemset(1, 2, 3)) {
		t.Fatalf("ParseItemset = %v", s)
	}
	if !strings.Contains(s.String(), "{1,2,3}") {
		t.Errorf("String = %q", s.String())
	}
	max := pincer.MaximalOnly([]pincer.Itemset{
		pincer.NewItemset(1), pincer.NewItemset(1, 2),
	})
	if len(max) != 1 || !max[0].Equal(pincer.NewItemset(1, 2)) {
		t.Fatalf("MaximalOnly = %v", max)
	}
}

func TestFacadeMineFile(t *testing.T) {
	dir := t.TempDir()
	db := toyDataset()
	path := dir + "/db.basket"
	if err := pincer.SaveDataset(path, db); err != nil {
		t.Fatal(err)
	}
	res, err := pincer.MineFile(context.Background(), path, 0.4, pincer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem := mine(t, db, 0.4, pincer.Options{})
	if len(res.MFS) != len(mem.MFS) {
		t.Fatalf("file-backed mining disagrees: %v vs %v", res.MFS, mem.MFS)
	}
	for i := range mem.MFS {
		if !res.MFS[i].Equal(mem.MFS[i]) || res.MFSSupports[i] != mem.MFSSupports[i] {
			t.Fatalf("element %d: %v/%d vs %v/%d", i,
				res.MFS[i], res.MFSSupports[i], mem.MFS[i], mem.MFSSupports[i])
		}
	}
	if _, err := pincer.MineFile(context.Background(), dir+"/missing", 0.4, pincer.Options{}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFacadeMinimalKeys(t *testing.T) {
	rel := &pincer.Relation{
		Attrs: []string{"id", "name"},
		Rows:  [][]string{{"1", "a"}, {"2", "a"}, {"3", "b"}},
	}
	res, err := pincer.MinimalKeys(rel)
	if err != nil {
		t.Fatal(err)
	}
	// name is not a key (two "a"s); id is the only minimal key
	if len(res.MinimalKeys) != 1 || !res.MinimalKeys[0].Equal(pincer.NewItemset(0)) {
		t.Fatalf("keys = %v", res.MinimalKeys)
	}
}

func TestFacadeDatasetIO(t *testing.T) {
	db, err := pincer.ReadDataset(strings.NewReader("1 2\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Fatalf("|D| = %d", db.Len())
	}
	dir := t.TempDir()
	if err := pincer.SaveDataset(dir+"/db.basket", db); err != nil {
		t.Fatal(err)
	}
	back, err := pincer.LoadDataset(dir + "/db.basket")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || !back.Transaction(0).Equal(pincer.NewItemset(1, 2)) {
		t.Fatalf("round trip failed: %v", back.Transactions())
	}
}
