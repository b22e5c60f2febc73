// Stock-market co-movement discovery — the paper's §6 motivating
// application: "prices of individual stocks are frequently quite
// correlated ... the discovered patterns may contain many items and the
// frequent itemsets are long. Here, our algorithm could be of great
// importance."
//
// The example synthesizes a market with sector structure, converts each
// trading day into the basket of stocks that rallied, and mines the
// maximum frequent set: the long maximal itemsets recover the sectors,
// and the pass/candidate comparison shows why bottom-up mining is the
// wrong tool for this data.
//
//	go run ./examples/stocks
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
	days := flag.Int("days", 1500, "trading days")
	numStocks := flag.Int("stocks", 100, "number of stocks")
	support := flag.Float64("support", 0.07, "minimum support fraction (co-rally frequency)")
	seed := flag.Int64("seed", 42, "market seed")
	flag.Parse()

	market, err := pincer.GenerateMarket(pincer.MarketParams{
		NumStocks:   *numStocks,
		NumDays:     *days,
		Sectors:     []int{12, 10, 8, 6},
		MarketVol:   0.25,
		SectorVol:   1.3,
		IdioVol:     0.35,
		UpThreshold: 1.0,
		Seed:        *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("market: %d stocks over %d days, %d sectors planted\n",
		*numStocks, *days, len(market.SectorMembers))
	fmt.Printf("within-sector return correlation ≈ %.2f, across ≈ %.2f\n\n",
		market.Correlation(market.SectorMembers[0][0], market.SectorMembers[0][1]),
		market.Correlation(market.SectorMembers[0][0], market.SectorMembers[1][0]))

	apr, err := pincer.Mine(context.Background(), market.Days, *support, pincer.Options{Miner: "apriori"})
	pin, err2 := pincer.Mine(context.Background(), market.Days, *support, pincer.Options{})
	if err = errors.Join(err, err2); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%-14s %8s %12s %10s\n", "algorithm", "passes", "candidates", "time")
	fmt.Printf("%-14s %8d %12d %10v\n", "apriori", apr.Stats.Passes, apr.Stats.Candidates, apr.Stats.Duration.Round(1e6))
	fmt.Printf("%-14s %8d %12d %10v\n\n", "pincer-search", pin.Stats.Passes, pin.Stats.Candidates, pin.Stats.Duration.Round(1e6))

	fmt.Printf("%d maximal co-rally groups at %.0f%% of days (longest: %d stocks)\n",
		len(pin.MFS), *support*100, pin.LongestMFS())
	for _, m := range pin.MFS {
		if len(m) < 6 {
			continue
		}
		best, overlap := -1, 0
		for s, sec := range market.SectorMembers {
			if n := len(m.Intersect(sec)); n > overlap {
				best, overlap = s, n
			}
		}
		fmt.Printf("  %2d stocks, %2d/%2d from sector %d: %v\n", len(m), overlap, len(m), best, m)
	}
}
