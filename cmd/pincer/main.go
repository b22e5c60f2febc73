// Command pincer mines the maximum frequent set from a transaction
// database in the basket text format (one transaction of space-separated
// item ids per line).
//
// Usage:
//
//	pincer -input db.basket -support 0.05 [-algorithm pincer|apriori|topdown|fpmax|auto]
//	       [-engine hashtree|list|trie] [-counter scan|tidlist] [-workers n] [-pure] [-stats]
//	       [-frequent] [-json]
//
// The default algorithm is the adaptive Pincer-Search of Lin & Kedem
// (EDBT 1998); -algorithm auto profiles the database and picks the plan
// (pincer, vertical, or fpmax — see DESIGN.md §12), printing the choice
// and its rationale to stderr. Output is one maximal frequent itemset per
// line with its
// support count, or a JSON document with -json. -workers selects count
// distribution (pincer and apriori only): the same miner, with every pass
// counted over that many goroutines (0 = GOMAXPROCS) and results identical
// to the sequential run.
//
// Long runs are interruptible: Ctrl-C (or -timeout / -max-candidates)
// stops the mine at the next cancellation point and the command prints
// the partial anytime result — every maximal set found so far, a lower
// bound on the true MFS — and exits with status 0. With -checkpoint the
// miner also persists its state at every pass boundary, and -resume
// continues an interrupted run from that file instead of starting over.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"pincer/internal/checkpoint"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
	"pincer/internal/plan"
)

// algorithms maps the -algorithm names to the plan table's miners.
var algorithms = map[string]string{
	"pincer":   plan.Pincer,
	"apriori":  plan.Apriori,
	"ais":      plan.AIS,
	"eclat":    plan.Eclat,
	"maxeclat": plan.Vertical,
	"topdown":  plan.Topdown,
	"fpmax":    plan.FPMax,
	"auto":     plan.Auto,
}

// nameOf is the -algorithm name of a miner the auto plan resolved to.
func nameOf(miner string) string {
	for name, m := range algorithms {
		if m == miner {
			return name
		}
	}
	return miner
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pincer:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("pincer", flag.ContinueOnError)
	input := fs.String("input", "", "basket or binary database file (required)")
	support := fs.Float64("support", 0.05, "minimum support as a fraction, e.g. 0.05 for 5%")
	algorithm := fs.String("algorithm", "pincer", "mining algorithm: pincer, apriori, ais, eclat, maxeclat, topdown, fpmax, or auto (profile the database and pick the plan)")
	engineName := fs.String("engine", "hashtree", "counting engine: hashtree, list, or trie")
	counterName := fs.String("counter", "scan", "pincer support counting: scan (database passes) or tidlist (vertical tid-list intersection; tidlist:bitset|list|diffset forces the representation)")
	workers := fs.Int("workers", -1, "count-distribution parallel mining with this many workers (0 = GOMAXPROCS; pincer and apriori only; omit for sequential)")
	pure := fs.Bool("pure", false, "pincer only: disable the adaptive policy")
	stats := fs.Bool("stats", false, "print per-pass statistics to stderr")
	frequent := fs.Bool("frequent", false, "also print every explicitly discovered frequent itemset")
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof/ on this address for the run's duration (e.g. localhost:6060)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	traceJSON := fs.String("trace-json", "", "write per-pass trace events as JSON lines to this file (\"-\" for stderr)")
	timeout := fs.Duration("timeout", 0, "abort the run after this long and print the partial anytime result (0 = no limit; pincer, apriori, and topdown)")
	maxCandidates := fs.Int("max-candidates", 0, "abort when a pass would count more candidates than this and print the partial result (0 = unlimited; pincer and apriori)")
	ckptPath := fs.String("checkpoint", "", "persist a resumable checkpoint to this file at every pass boundary (pincer and apriori)")
	resume := fs.Bool("resume", false, "continue from the -checkpoint file instead of starting fresh")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" {
		fs.Usage()
		return fmt.Errorf("-input is required")
	}
	if *support <= 0 || *support > 1 {
		return fmt.Errorf("-support must be in (0, 1], got %v", *support)
	}
	miner, ok := algorithms[*algorithm]
	if !ok {
		return fmt.Errorf("unknown algorithm %q", *algorithm)
	}
	opt := plan.Options{
		Miner:         miner,
		Counter:       *counterName,
		Pure:          *pure,
		KeepFrequent:  *frequent,
		Deadline:      *timeout,
		MaxCandidates: *maxCandidates,
		Resume:        *resume,
	}
	// -workers selects count distribution: the same miner with each pass
	// counted over that many goroutines (0 = GOMAXPROCS), or with -counter
	// tidlist that many intersection workers.
	if *workers >= 0 {
		if miner == plan.Pincer {
			opt.Miner = plan.Parallel
		}
		opt.Workers = *workers
		if *workers == 0 {
			opt.Workers = -1
		}
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "engine" {
			opt.Engine = *engineName
		}
	})
	if *ckptPath != "" {
		opt.Checkpointer = checkpoint.NewFileCheckpointer(*ckptPath)
	}
	if err := plan.Check(opt); err != nil {
		return err
	}

	// Ctrl-C cancels the mine at the next cancellation point; the partial
	// anytime result found so far is still printed below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	prof, err := obsv.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil {
			fmt.Fprintln(os.Stderr, "pincer:", perr)
		}
	}()
	var tracer obsv.Tracer
	if *metricsAddr != "" {
		reg := obsv.NewRegistry()
		tracer = obsv.NewMetricsTracer(reg)
		srv, err := obsv.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "pincer: serving metrics on http://%s/metrics (expvar /debug/vars, pprof /debug/pprof/)\n", srv.Addr)
	}
	if *traceJSON != "" {
		w := io.Writer(os.Stderr)
		if *traceJSON != "-" {
			f, err := os.Create(*traceJSON)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		tracer = obsv.Multi(tracer, obsv.NewJSONTracer(w))
	}

	d, err := dataset.Load(*input)
	if err != nil {
		return err
	}
	// Sparse item ids (SKUs, hashes) would size the pass-1/2 arrays by the
	// largest id; remap to a dense universe and translate results back.
	var comp *dataset.Compaction
	if dataset.WorthCompacting(d) {
		comp = dataset.Compact(d)
		fmt.Fprintf(os.Stderr, "pincer: compacted %d-wide universe to %d distinct items\n",
			d.NumItems(), comp.NumDenseItems())
		d = comp.Dataset
	}

	// -algorithm auto: profile the (compacted) database and let the policy
	// pick the plan. Every plan it can choose produces the identical MFS;
	// the choice only moves wall-clock time.
	algo := *algorithm
	opt.Tracer = tracer
	if resolved, sel := plan.Resolve(opt, d.Profile); sel != nil {
		opt = resolved
		algo = nameOf(opt.Miner)
		shown := algo
		if sel.Counter != "" {
			shown += "/" + sel.Counter
		}
		fmt.Fprintf(os.Stderr, "pincer: auto plan: %s — %s\n", shown, sel.Rationale)
	}

	// A budget or cancellation surfaces as a *mfi.PartialResultError whose
	// Result is the anytime answer; treat it as a successful (partial) run.
	res, err := plan.Run(ctx, plan.Source{Data: d}, *support, opt)
	var partial *mfi.PartialResultError
	switch {
	case errors.As(err, &partial) && partial.Result != nil:
		res = partial.Result
		fmt.Fprintf(os.Stderr, "pincer: run stopped early (%s) at pass %d; printing the partial anytime result\n",
			partial.Reason, partial.Pass)
		if opt.Checkpointer != nil {
			if st, _ := opt.Checkpointer.Load(); st != nil {
				fmt.Fprintf(os.Stderr, "pincer: checkpoint saved; rerun with -resume -checkpoint %s to continue\n", *ckptPath)
			}
		}
	case err != nil:
		return err
	}
	if comp != nil {
		res.MFS = comp.OriginalAll(res.MFS)
		if res.Frequent != nil {
			translated := itemset.NewSet(res.Frequent.Len())
			res.Frequent.Each(func(x itemset.Itemset, c int64) {
				translated.AddWithCount(comp.Original(x), c)
			})
			res.Frequent = translated
		}
	}

	if *stats {
		fmt.Fprintln(os.Stderr, res.Stats.String())
		for _, p := range res.Stats.PassDetails {
			fmt.Fprintf(os.Stderr, "  pass %d: candidates=%d mfcs=%d frequent=%d maximal-found=%d\n",
				p.Pass, p.Candidates, p.MFCSCandidates, p.Frequent, p.MFSFound)
		}
	}

	if *asJSON {
		type jsonItemset struct {
			Items   []int32 `json:"items"`
			Support int64   `json:"support"`
		}
		doc := struct {
			Database     string        `json:"database"`
			Transactions int           `json:"transactions"`
			MinSupport   float64       `json:"min_support"`
			MinCount     int64         `json:"min_count"`
			Algorithm    string        `json:"algorithm"`
			Passes       int           `json:"passes"`
			Candidates   int64         `json:"candidates"`
			Partial      string        `json:"partial_reason,omitempty"`
			PartialPass  int           `json:"partial_pass,omitempty"`
			MFS          []jsonItemset `json:"maximal_frequent_itemsets"`
		}{
			Database: *input, Transactions: d.Len(),
			MinSupport: *support, MinCount: res.MinCount,
			Algorithm: algo, Passes: res.Stats.Passes, Candidates: res.Stats.Candidates,
		}
		if partial != nil {
			doc.Partial = partial.Reason
			doc.PartialPass = partial.Pass
		}
		for i, m := range res.MFS {
			items := make([]int32, len(m))
			for j, it := range m {
				items[j] = int32(it)
			}
			doc.MFS = append(doc.MFS, jsonItemset{Items: items, Support: res.MFSSupports[i]})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	if partial != nil {
		fmt.Fprintf(out, "# PARTIAL result (%s, stopped at pass %d): the sets below are frequent but may not be maximal\n",
			partial.Reason, partial.Pass)
	}
	fmt.Fprintf(out, "# %d transactions, min support %g (count %d), %d maximal frequent itemsets\n",
		d.Len(), *support, res.MinCount, len(res.MFS))
	for i, m := range res.MFS {
		fmt.Fprintf(out, "%v support=%d\n", m, res.MFSSupports[i])
	}
	if *frequent && res.Frequent != nil {
		fmt.Fprintf(out, "# %d frequent itemsets explicitly discovered\n", res.Frequent.Len())
		for _, f := range res.Frequent.Sorted() {
			c, _ := res.Frequent.Count(f)
			fmt.Fprintf(out, "%v support=%d\n", f, c)
		}
	}
	return nil
}
