package pincer_test

import (
	"context"
	"path/filepath"
	"testing"

	"pincer"
)

// TestEndToEndPipeline exercises the full public-API pipeline the README
// advertises: synthesize a benchmark database, persist it, mine it from
// disk and from memory with both algorithms, expand the frequent set, and
// generate rules — with every stage cross-checked against the others.
func TestEndToEndPipeline(t *testing.T) {
	params, err := pincer.ParseQuestName("T10.I6.D800")
	if err != nil {
		t.Fatal(err)
	}
	params.NumPatterns = 25
	params.NumItems = 150
	params.Seed = 99
	db := pincer.GenerateQuest(params)

	path := filepath.Join(t.TempDir(), "db.basket")
	if err := pincer.SaveDataset(path, db); err != nil {
		t.Fatal(err)
	}
	loaded, err := pincer.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("persisted |D| = %d, want %d", loaded.Len(), db.Len())
	}

	const sup = 0.04
	pin := mine(t, db, sup, pincer.Options{})
	apr := mine(t, loaded, sup, pincer.Options{Miner: "apriori", KeepFrequent: true})
	fileRes, err := pincer.MineFile(context.Background(), path, sup, pincer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pin.MFS) == 0 {
		t.Fatal("nothing frequent; test workload broken")
	}
	for _, other := range []*pincer.Result{apr, fileRes} {
		if len(other.MFS) != len(pin.MFS) {
			t.Fatalf("miners disagree: %d vs %d maximal itemsets", len(other.MFS), len(pin.MFS))
		}
		for i := range pin.MFS {
			if !other.MFS[i].Equal(pin.MFS[i]) {
				t.Fatalf("MFS[%d]: %v vs %v", i, other.MFS[i], pin.MFS[i])
			}
		}
	}

	// the implied frequent set equals Apriori's explicit one
	implied := pincer.ExpandFrequent(pin, 0)
	if int64(len(implied)) != pincer.CountFrequent(pin) {
		t.Fatalf("CountFrequent %d != expansion %d", pincer.CountFrequent(pin), len(implied))
	}
	if apr.Frequent.Len() != len(implied) {
		t.Fatalf("implied frequent set %d != apriori's %d", len(implied), apr.Frequent.Len())
	}
	for _, x := range implied {
		if !apr.Frequent.Contains(x) {
			t.Fatalf("implied itemset %v not in apriori's frequent set", x)
		}
	}

	// rules from the MFS are internally consistent
	rules, err := pincer.RulesFromResult(db, pin, 0, pincer.RuleParams{MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Confidence < 0.7 || r.Confidence > 1.0000001 {
			t.Errorf("rule confidence out of range: %v", r)
		}
		union := r.Antecedent.Union(r.Consequent)
		if !pin.IsFrequent(union) {
			t.Errorf("rule over infrequent itemset: %v", r)
		}
	}
}

// TestEndToEndApplications drives the two §6 application paths through the
// facade: episode mining and market co-movement.
func TestEndToEndApplications(t *testing.T) {
	planted := pincer.NewItemset(3, 4, 5, 6)
	seq := pincer.GenerateEventSequence(pincer.EpisodeGeneratorParams{
		NumTypes: 20, Length: 2000, NoiseRate: 0.05,
		Episodes: []pincer.Itemset{planted}, Period: 25, BurstWidth: 4, Seed: 5,
	})
	eps, res, err := pincer.MineEpisodes(seq, 8, 0.05, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(eps) == 0 {
		t.Fatal("no episodes")
	}
	covered := false
	for _, e := range eps {
		if planted.IsSubsetOf(e.Types) {
			covered = true
		}
	}
	if !covered {
		t.Errorf("planted episode not recovered: %v", eps)
	}

	market, err := pincer.GenerateMarket(pincer.MarketParams{
		NumStocks: 40, NumDays: 800, Sectors: []int{8, 6},
		MarketVol: 0.2, SectorVol: 1.4, IdioVol: 0.3, UpThreshold: 1.0, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mres := mine(t, market.Days, 0.06, pincer.Options{})
	for s, sec := range market.SectorMembers {
		if !mres.IsFrequent(sec) {
			t.Errorf("sector %d not recovered as frequent", s)
		}
	}
}
