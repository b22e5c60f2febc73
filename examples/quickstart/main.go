// Quickstart: mine the maximum frequent set from a handful of market
// baskets and derive association rules — the paper's two-stage pipeline
// (§2.1) in thirty lines.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"pincer"
)

func main() {
	// A toy grocery log. Items: 0=bread 1=milk 2=butter 3=beer 4=diapers.
	db := pincer.NewDataset(
		pincer.NewItemset(0, 1, 2),
		pincer.NewItemset(0, 1, 2),
		pincer.NewItemset(0, 1),
		pincer.NewItemset(3, 4),
		pincer.NewItemset(3, 4),
		pincer.NewItemset(0, 3, 4),
		pincer.NewItemset(1, 2),
		pincer.NewItemset(0, 1, 2, 4),
	)
	names := []string{"bread", "milk", "butter", "beer", "diapers"}
	label := func(s pincer.Itemset) string {
		out := "{"
		for i, it := range s {
			if i > 0 {
				out += ", "
			}
			out += names[it]
		}
		return out + "}"
	}

	// Stage 1: the maximum frequent set at 25% support. Every frequent
	// itemset is a subset of one of these maximal itemsets.
	res, err := pincer.Mine(context.Background(), db, 0.25, pincer.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("mined %d transactions in %d passes; %d maximal frequent itemsets imply %d frequent itemsets:\n",
		db.Len(), res.Stats.Passes, len(res.MFS), pincer.CountFrequent(res))
	for i, m := range res.MFS {
		fmt.Printf("  %-28s support %d/%d\n", label(m), res.MFSSupports[i], db.Len())
	}

	// Stage 2: association rules from the MFS, with one extra pass to
	// count subset supports (paper §2.1).
	rules, err := pincer.RulesFromResult(db, res, 0, pincer.RuleParams{MinConfidence: 0.8})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\n%d rules at confidence ≥ 0.8:\n", len(rules))
	for _, r := range rules {
		fmt.Printf("  %s => %s  (support %.2f, confidence %.2f, lift %.2f)\n",
			label(r.Antecedent), label(r.Consequent), r.Support, r.Confidence, r.Lift)
	}
}
