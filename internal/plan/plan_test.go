package plan

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"pincer/internal/checkpoint"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
)

func TestCheckRefusesWhatTheMinerIgnores(t *testing.T) {
	cp := checkpoint.NewFileCheckpointer(filepath.Join(t.TempDir(), "x.ckpt"))
	cases := []struct {
		name string
		opt  Options
		want Feature // 0: accepted
	}{
		{"zero value", Options{}, 0},
		{"engine auto alone", Options{Engine: Auto}, 0},
		{"everything pincer takes", Options{Engine: "trie", Counter: "tidlist:list", Checkpointer: cp, Resume: true,
			Deadline: 1, MaxPasses: 1, MaxCandidates: 1, MaxMemory: 1}, 0},
		{"distributed apriori", Options{Miner: Apriori, Workers: -1}, 0},
		{"auto takes every budget", Options{Miner: Auto, MaxPasses: 1, MaxCandidates: 1, MaxMemory: 1, Deadline: 1}, 0},
		{"workers on pincer", Options{Workers: 2}, Distribution},
		{"engine on vertical", Options{Miner: Vertical, Engine: "list"}, EngineChoice},
		{"engine auto on fpmax", Options{Miner: FPMax, Engine: Auto}, EngineChoice},
		{"fixed engine on auto", Options{Miner: Auto, Engine: "trie"}, EngineChoice},
		{"unknown engine", Options{Engine: "abacus"}, EngineChoice},
		{"tid-lists on apriori", Options{Miner: Apriori, Counter: "tidlist"}, TidLists},
		{"bad counter spec", Options{Counter: "tidlist:bogus"}, TidLists},
		{"caller-built counter on parallel", Options{Miner: Parallel, PassCounter: stubCounter{}}, OwnCounter},
		{"checkpoint on eclat", Options{Miner: Eclat, Checkpointer: cp}, Checkpoints},
		{"resume without a checkpointer", Options{Resume: true}, Checkpoints},
		{"deadline on ais", Options{Miner: AIS, Deadline: 1}, DeadlineBound},
		{"passes on apriori", Options{Miner: Apriori, MaxPasses: 1}, PassBudget},
		{"candidates on topdown", Options{Miner: Topdown, MaxCandidates: 1}, CandidateBudget},
		{"memory on topdown", Options{Miner: Topdown, MaxMemory: 1}, MemoryBudget},
		{"negative budget", Options{MaxPasses: -1}, PassBudget},
	}
	for _, tc := range cases {
		err := Check(tc.opt)
		var pe *Error
		switch {
		case tc.want == 0 && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want == 0:
		case !errors.As(err, &pe):
			t.Errorf("%s: got %v, want a refusal of %s", tc.name, err, tc.want)
		case pe.Feature != tc.want:
			t.Errorf("%s: refused %s (%v), want %s", tc.name, pe.Feature, err, tc.want)
		}
	}
	var pe *Error
	if err := Check(Options{Miner: "magic"}); !errors.As(err, &pe) || pe.Feature != 0 {
		t.Errorf("unknown miner: got %v", err)
	}
}

// stubCounter stands in for a caller-built counter; Check never counts.
type stubCounter struct{ counting.PassCounter }

func TestResolveAsksForTheProfileOnlyWhenDelegated(t *testing.T) {
	asked := 0
	profile := func() dataset.Profile {
		asked++
		return dataset.Profile{Transactions: 10, DistinctItems: 5, Universe: 5, Density: 0.01}
	}
	if opt, sel := Resolve(Options{Miner: Apriori, Engine: "list"}, profile); sel != nil || opt.Engine != "list" || asked != 0 {
		t.Fatalf("fixed plan: %+v, %v, profiled %d times", opt, sel, asked)
	}
	opt, sel := Resolve(Options{Miner: Auto, MaxPasses: 3}, profile)
	if sel == nil || opt.Miner != Pincer || opt.Counter != "tidlist" || opt.Engine != "hashtree" || opt.MaxPasses != 3 || asked != 1 {
		t.Fatalf("auto on sparse data: %+v, %v, profiled %d times", opt, sel, asked)
	}
	// engine=auto on a fixed miner fills the engine and an unset counter.
	if opt, _ := Resolve(Options{Miner: Parallel, Engine: Auto}, profile); opt.Miner != Parallel || opt.Counter != "tidlist" || opt.Engine != "hashtree" {
		t.Fatalf("engine auto on parallel: %+v", opt)
	}
	if opt, _ := Resolve(Options{Miner: Apriori, Engine: Auto}, profile); opt.Counter != "" || opt.Engine != "hashtree" {
		t.Fatalf("engine auto on apriori: %+v", opt)
	}
}

func TestRunFromAStreamedFile(t *testing.T) {
	d := dataset.Empty(0)
	for _, tx := range []itemset.Itemset{{1, 2, 3}, {1, 2, 3}, {1, 2}, {3, 4}, {3, 4}} {
		d.Append(tx)
	}
	path := filepath.Join(t.TempDir(), "db.basket")
	if err := dataset.SaveBasketFile(path, d); err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), Source{Data: d}, 0.4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{{}, {Miner: Parallel, Workers: 2}, {Miner: Apriori, Workers: 2}, {Miner: Topdown}, {Miner: AIS}} {
		sc, err := dataset.OpenFileScanner(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), Source{Scanner: sc}, 0.4, opt)
		if err != nil {
			t.Fatalf("%s: %v", opt.label(), err)
		}
		if err := mfi.VerifyAgainst(got.MFS, want.MFS); err != nil {
			t.Errorf("%s: %v", opt.label(), err)
		}
	}
	for _, opt := range []Options{{Miner: Vertical}, {Miner: FPMax}, {Miner: Eclat}, {Miner: Auto}, {Counter: "tidlist"}} {
		sc, err := dataset.OpenFileScanner(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), Source{Scanner: sc}, 0.4, opt); err == nil {
			t.Errorf("%s: mined a streamed file, want an error", opt.label())
		}
	}
}
