// Command rulegen generates association rules from a transaction database:
// stage 2 of the mining pipeline (paper §2.1). It mines the maximum
// frequent set with Pincer-Search, counts the needed subset supports with
// one extra database pass, and runs ap-genrules.
//
// Usage:
//
//	rulegen -input db.basket -support 0.05 -confidence 0.8 [-top 20]
//	        [-maxlen 12] [-lift 1.0]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"pincer/internal/dataset"
	"pincer/internal/obsv"
	"pincer/internal/plan"
	"pincer/internal/rules"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rulegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rulegen", flag.ContinueOnError)
	input := fs.String("input", "", "basket or binary database file (required)")
	support := fs.Float64("support", 0.05, "minimum support fraction")
	confidence := fs.Float64("confidence", 0.8, "minimum rule confidence")
	top := fs.Int("top", 0, "print only the strongest N rules (0 = all)")
	maxLen := fs.Int("maxlen", 14, "cap on frequent-itemset length considered for rules (0 = unlimited; beware exponential expansion)")
	minLift := fs.Float64("lift", 0, "minimum lift filter")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" {
		fs.Usage()
		return fmt.Errorf("-input is required")
	}

	prof, err := obsv.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil {
			fmt.Fprintln(os.Stderr, "rulegen:", perr)
		}
	}()

	d, err := dataset.Load(*input)
	if err != nil {
		return err
	}
	sc := dataset.NewScanner(d)
	res, err := plan.Run(context.Background(), plan.Source{Data: d, Scanner: sc}, *support, plan.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rulegen: %d maximal frequent itemsets (longest %d) in %d passes\n",
		len(res.MFS), res.LongestMFS(), res.Stats.Passes)

	rs, err := rules.FromMFS(sc, res.MFS, *maxLen, rules.Params{MinConfidence: *confidence})
	if err != nil {
		return err
	}
	if *minLift > 0 {
		rs = rules.Filter(rs, func(r rules.Rule) bool { return r.Lift >= *minLift })
	}
	if *top > 0 && len(rs) > *top {
		rs = rs[:*top]
	}
	for _, r := range rs {
		fmt.Println(r)
	}
	fmt.Fprintf(os.Stderr, "rulegen: %d rules\n", len(rs))
	return nil
}
