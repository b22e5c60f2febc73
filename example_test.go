package pincer_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"pincer"
)

// The maximum frequent set of a toy basket database: every frequent itemset
// is a subset of one of the two maximal ones.
func ExampleMine() {
	db := pincer.NewDataset(
		pincer.NewItemset(1, 2, 3),
		pincer.NewItemset(1, 2, 3),
		pincer.NewItemset(1, 2),
		pincer.NewItemset(3, 4),
		pincer.NewItemset(3, 4),
	)
	// frequent = at least 2 of 5 transactions
	res, err := pincer.Mine(context.Background(), db, 0.4, pincer.Options{})
	if err != nil {
		panic(err)
	}
	for i, m := range res.MFS {
		fmt.Println(m, res.MFSSupports[i])
	}
	fmt.Println("implied frequent itemsets:", pincer.CountFrequent(res))
	// Output:
	// {1,2,3} 2
	// {3,4} 2
	// implied frequent itemsets: 9
}

// Association rules from a mining result, following the paper's §2.1
// two-stage scheme.
func ExampleRulesFromResult() {
	db := pincer.NewDataset(
		pincer.NewItemset(1, 2),
		pincer.NewItemset(1, 2),
		pincer.NewItemset(1, 2),
		pincer.NewItemset(1),
		pincer.NewItemset(3),
	)
	res, err := pincer.Mine(context.Background(), db, 0.4, pincer.Options{})
	if err != nil {
		panic(err)
	}
	rules, _ := pincer.RulesFromResult(db, res, 0, pincer.RuleParams{MinConfidence: 0.9})
	for _, r := range rules {
		fmt.Printf("%v => %v conf %.2f\n", r.Antecedent, r.Consequent, r.Confidence)
	}
	// Output:
	// {2} => {1} conf 1.00
}

// Minimal keys of a relation via maximal agree-set mining (paper §1).
func ExampleMinimalKeys() {
	res, _ := pincer.MinimalKeys(&pincer.Relation{
		Attrs: []string{"id", "name", "dept"},
		Rows: [][]string{
			{"1", "alice", "eng"},
			{"2", "bob", "eng"},
			{"3", "alice", "sales"},
		},
	})
	for _, k := range res.MinimalKeys {
		fmt.Println(k)
	}
	// Output:
	// {0}
	// {1,2}
}

// Itemsets normalize on construction.
func ExampleNewItemset() {
	fmt.Println(pincer.NewItemset(3, 1, 2, 3, 1))
	// Output: {1,2,3}
}

// The README's quick start: a Quest benchmark database, its maximum
// frequent set, and association rules from it.
func Example_quickStart() {
	db := pincer.GenerateQuest(pincer.QuestParams{
		NumTransactions: 10_000,
		AvgTxLen:        20,
		AvgPatternLen:   10,
		NumPatterns:     50,
	})
	res, err := pincer.Mine(context.Background(), db, 0.06, pincer.Options{})
	if err != nil {
		panic(err)
	}
	rules, _ := pincer.RulesFromResult(db, res, 12, pincer.RuleParams{MinConfidence: 0.9})
	fmt.Println(len(res.MFS), "maximal frequent itemsets, longest", res.LongestMFS(), "items;", len(rules) > 0)
	// Output: 89 maximal frequent itemsets, longest 11 items; true
}

// Count distribution: the parallel miner counts every pass over worker
// goroutines (0: GOMAXPROCS), and Apriori does when given workers. The
// answer is the sequential one.
func ExampleOptions_parallel() {
	ctx := context.Background()
	for _, opt := range []pincer.Options{
		{Miner: "parallel", Workers: 4},
		{Miner: "apriori", Workers: -1}, // -1: GOMAXPROCS
	} {
		res, err := pincer.Mine(ctx, toyDataset(), 0.4, opt)
		if err != nil {
			panic(err)
		}
		fmt.Println(opt.Miner, res.MFS)
	}
	// Output:
	// parallel [{1,2,3} {3,4}]
	// apriori [{1,2,3} {3,4}]
}

// Tid-list counting: the same answer, counted by intersecting per-item
// transaction-id sets instead of rescanning.
func ExampleOptions_tidList() {
	res, err := pincer.Mine(context.Background(), toyDataset(), 0.4, pincer.Options{Counter: "tidlist"})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.MFS)
	// Output: [{1,2,3} {3,4}]
}

// A basket file mined without holding it in memory: it is re-read once
// per pass, here by one reader feeding two counting goroutines.
func ExampleMineFile() {
	dir, err := os.MkdirTemp("", "pincer-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "db.basket")
	if err := pincer.SaveDataset(path, toyDataset()); err != nil {
		panic(err)
	}
	res, err := pincer.MineFile(context.Background(), path, 0.4, pincer.Options{Miner: "parallel", Workers: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.MFS)
	// Output: [{1,2,3} {3,4}]
}

// A run stopped early by a budget returns its anytime result in a
// *PartialResultError; with a checkpointer it resumes where it stopped.
func ExampleMine_resume() {
	dir, err := os.MkdirTemp("", "pincer-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	opt := pincer.Options{
		MaxPasses:    1, // or Deadline, MaxCandidates, MaxMemory
		Checkpointer: pincer.NewFileCheckpointer(filepath.Join(dir, "mine.ckpt")),
	}
	_, err = pincer.Mine(context.Background(), toyDataset(), 0.4, opt)
	var pe *pincer.PartialResultError
	if errors.As(err, &pe) {
		fmt.Println("stopped:", pe.Reason, "after pass", pe.Pass)
		opt.MaxPasses, opt.Resume = 0, true
		res, err := pincer.Mine(context.Background(), toyDataset(), 0.4, opt)
		if err != nil {
			panic(err)
		}
		fmt.Println("resumed:", res.MFS)
	}
	// Output:
	// stopped: max-passes after pass 1
	// resumed: [{1,2,3} {3,4}]
}

// Every miner is a name on the same Options; auto profiles the database
// and lets the adaptive policy pick the plan.
func ExampleOptions_miners() {
	for _, miner := range []string{"pincer", "apriori", "topdown", "vertical", "fpmax", "ais", "eclat", "auto"} {
		res, err := pincer.Mine(context.Background(), toyDataset(), 0.4, pincer.Options{Miner: miner})
		if err != nil {
			panic(err)
		}
		fmt.Println(miner, res.MFS)
	}
	// Output:
	// pincer [{1,2,3} {3,4}]
	// apriori [{1,2,3} {3,4}]
	// topdown [{1,2,3} {3,4}]
	// vertical [{1,2,3} {3,4}]
	// fpmax [{1,2,3} {3,4}]
	// ais [{1,2,3} {3,4}]
	// eclat [{1,2,3} {3,4}]
	// auto [{1,2,3} {3,4}]
}
