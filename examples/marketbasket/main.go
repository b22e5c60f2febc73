// Market-basket analysis on a synthetic retail workload: generate an IBM
// Quest benchmark database (the paper's evaluation data), mine it with
// both Apriori and Pincer-Search, compare their cost, and derive the
// strongest association rules from the maximum frequent set.
//
//	go run ./examples/marketbasket
//	go run ./examples/marketbasket -name T20.I10.D10K -l 50 -support 0.06
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"pincer"
)

func main() {
	name := flag.String("name", "T10.I4.D5K", "Quest database name T<tx len>.I<pattern len>.D<transactions>")
	patterns := flag.Int("l", 50, "|L|: number of seeded patterns (50 = concentrated, 2000 = scattered)")
	support := flag.Float64("support", 0.05, "minimum support fraction")
	confidence := flag.Float64("confidence", 0.9, "minimum rule confidence")
	seed := flag.Int64("seed", 7, "generator seed")
	flag.Parse()

	params, err := parseQuest(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	params.NumPatterns = *patterns
	params.Seed = *seed
	db := pincer.GenerateQuest(params)
	fmt.Printf("database %s, |L|=%d: %v\n\n", *name, *patterns, db.Stats())

	// Mine with the baseline and with Pincer-Search; both must produce the
	// identical maximum frequent set.
	apr, err := pincer.Mine(context.Background(), db, *support, pincer.Options{Miner: "apriori"})
	pin, err2 := pincer.Mine(context.Background(), db, *support, pincer.Options{})
	if err = errors.Join(err, err2); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%-14s %8s %12s %12s %10s\n", "algorithm", "passes", "candidates", "frequent", "time")
	fmt.Printf("%-14s %8d %12d %12d %10v\n", "apriori", apr.Stats.Passes, apr.Stats.Candidates, apr.Stats.FrequentCount, apr.Stats.Duration.Round(1e6))
	fmt.Printf("%-14s %8d %12d %12d %10v\n", "pincer-search", pin.Stats.Passes, pin.Stats.Candidates, pin.Stats.FrequentCount, pin.Stats.Duration.Round(1e6))
	if len(apr.MFS) != len(pin.MFS) {
		fmt.Fprintln(os.Stderr, "BUG: algorithms disagree!")
		os.Exit(1)
	}
	fmt.Printf("\nboth found the same %d maximal frequent itemsets (longest: %d items)\n",
		len(pin.MFS), pin.LongestMFS())
	fmt.Printf("the MFS implies %d frequent itemsets; Pincer-Search examined only %d explicitly\n\n",
		pincer.CountFrequent(pin), pin.Stats.FrequentCount)

	show := len(pin.MFS)
	if show > 8 {
		show = 8
	}
	fmt.Printf("top %d maximal itemsets by support:\n", show)
	printed := 0
	for i := range pin.MFS {
		if printed >= show {
			break
		}
		fmt.Printf("  %v support=%d\n", pin.MFS[i], pin.MFSSupports[i])
		printed++
	}

	rules, err := pincer.RulesFromResult(db, pin, 12, pincer.RuleParams{MinConfidence: *confidence})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	top := len(rules)
	if top > 10 {
		top = 10
	}
	fmt.Printf("\n%d association rules at confidence ≥ %.2f; strongest %d:\n", len(rules), *confidence, top)
	for _, r := range rules[:top] {
		fmt.Println(" ", r)
	}
}

// parseQuest wraps the library's name parser with a usage-friendly error.
func parseQuest(name string) (pincer.QuestParams, error) {
	p, err := pincer.ParseQuestName(name)
	if err != nil {
		return pincer.QuestParams{}, fmt.Errorf("bad -name %q: %w (want e.g. T10.I4.D5K)", name, err)
	}
	return p, nil
}
