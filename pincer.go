// Package pincer is a Go implementation of the Pincer-Search algorithm for
// discovering the maximum frequent set (MFS) — the set of all maximal
// frequent itemsets — from transaction databases, after:
//
//	Dao-I Lin and Zvi M. Kedem. "Pincer-Search: A New Algorithm for
//	Discovering the Maximum Frequent Set." EDBT 1998.
//
// The package is a facade over the full library: the Pincer-Search miner
// and its MFCS data structure, the Apriori, Partition, Sampling, top-down
// and randomized baselines, the IBM Quest synthetic workload generator,
// association-rule generation, and the benchmark harness that regenerates
// the paper's figures. See the README for an overview and examples/ for
// runnable programs.
//
// # Quick start
//
//	db := pincer.GenerateQuest(pincer.QuestParams{NumTransactions: 10000})
//	res := pincer.Mine(db, 0.05) // maximal frequent itemsets at 5% support
//	for i, m := range res.MFS {
//	    fmt.Println(m, res.MFSSupports[i])
//	}
package pincer

import (
	"context"
	"io"

	"pincer/internal/apriori"
	"pincer/internal/checkpoint"
	"pincer/internal/core"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/fpmax"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/minkeys"
	"pincer/internal/parallel"
	"pincer/internal/quest"
	"pincer/internal/rules"
)

// The aliases below re-export the library's vocabulary so downstream users
// never import internal packages.
type (
	// Item identifies a single item (a non-negative integer id).
	Item = itemset.Item
	// Itemset is a sorted, duplicate-free set of items. Use NewItemset to
	// build one from arbitrary input.
	Itemset = itemset.Itemset
)

// NewItemset builds a normalized (sorted, de-duplicated) itemset.
func NewItemset(items ...Item) Itemset { return itemset.New(items...) }

// ParseItemset parses "{1,2,3}" or "1 2 3" into an itemset.
func ParseItemset(s string) (Itemset, error) { return itemset.Parse(s) }

// MaximalOnly filters a collection of itemsets down to its maximal
// elements (those not contained in another element).
func MaximalOnly(sets []Itemset) []Itemset { return itemset.MaximalOnly(sets) }

// Dataset is an in-memory transaction database.
type Dataset = dataset.Dataset

// Result is the outcome of a mining run; MFS holds the maximal frequent
// itemsets in lexicographic order with supports in MFSSupports.
type Result = mfi.Result

// Stats describes a mining run: passes, candidates (paper accounting),
// and wall-clock duration.
type Stats = mfi.Stats

// QuestParams configures the IBM Quest synthetic data generator.
type QuestParams = quest.Params

// PincerOptions configures the Pincer-Search miner.
type PincerOptions = core.Options

// AprioriOptions configures the Apriori baseline miner.
type AprioriOptions = apriori.Options

// Rule is an association rule with support, confidence, and lift.
type Rule = rules.Rule

// RuleParams are rule-quality thresholds.
type RuleParams = rules.Params

// Engine names a support-counting engine ("list", "hashtree", "trie").
type Engine = counting.Engine

// Counting engines.
const (
	EngineList     = counting.EngineList
	EngineHashTree = counting.EngineHashTree
	EngineTrie     = counting.EngineTrie
)

// PassCounter is the per-pass support-counting seam of
// PincerOptions.Counter and AprioriOptions.Counter (nil: one sequential
// scan per pass). Every counter produces the counts of a sequential scan,
// so the choice moves wall-clock time, never results.
type PassCounter = core.PassCounter

// NewParallelCounter builds the count-distribution pass counter over d:
// every pass is counted by workers goroutines (≤ 0: GOMAXPROCS), each
// scanning its own horizontal partition into private counters summed at
// the pass barrier. Install it on PincerOptions.Counter or
// AprioriOptions.Counter; the dataset must be the same one handed to the
// miner.
func NewParallelCounter(d *Dataset, workers int) PassCounter {
	return parallel.NewPassCounter(d, workers)
}

// TidListCounter counts candidate supports by intersecting per-item tid
// structures instead of rescanning the database. Install one on
// PincerOptions.Counter to switch the pincer miner to vertical counting;
// results are identical to scanning.
type TidListCounter = counting.TidListCounter

// TidListOptions configures a TidListCounter (workers, representation).
type TidListOptions = counting.TidListOptions

// RepMode selects the tid-structure representation used by vertical
// counting: automatic density switching, or forced bitset/list/diffset.
type RepMode = counting.RepMode

// Tid-structure representation modes.
const (
	RepAuto    = counting.RepAuto
	RepBitset  = counting.RepBitset
	RepList    = counting.RepList
	RepDiffset = counting.RepDiffset
)

// NewTidListCounter builds a vertical pass counter over d. The dataset must
// be the same one handed to the miner.
func NewTidListCounter(d *Dataset, opt TidListOptions) *TidListCounter {
	return counting.NewTidListCounter(d, opt)
}

// ParseCounterSpec parses a -counter style spec: "" or "scan" selects
// database scanning; "tidlist" or "tidlist:bitset|list|diffset" selects
// vertical counting with an optional forced representation.
func ParseCounterSpec(s string) (tidlist bool, rep RepMode, err error) {
	return counting.ParseCounterSpec(s)
}

// NewDataset builds a dataset from transactions (each normalized).
func NewDataset(transactions ...Itemset) *Dataset {
	d := dataset.Empty(0)
	for _, t := range transactions {
		d.Append(t)
	}
	return d
}

// LoadDataset reads a transaction database from disk — the basket text
// format (one transaction of space-separated item ids per line) or this
// library's binary format, sniffed automatically.
func LoadDataset(path string) (*Dataset, error) { return dataset.Load(path) }

// MineFile mines a basket file without materializing it in memory: the
// file is re-read once per pass, exactly the I/O regime of the paper's
// cost model. Use it for databases larger than RAM. A file that turns
// corrupt or unreadable between passes surfaces as an error, not a panic.
func MineFile(path string, minSupport float64, opt PincerOptions) (*Result, error) {
	sc, err := dataset.OpenFileScanner(path)
	if err != nil {
		return nil, err
	}
	return core.Mine(sc, minSupport, opt)
}

// MineFileParallel is MineFile with streaming count distribution: the
// mining goroutine re-reads the file each pass while workers goroutines
// (≤ 0: GOMAXPROCS) count. Results are identical to MineFile; only
// wall-clock time changes.
func MineFileParallel(path string, minSupport float64, opt PincerOptions, workers int) (*Result, error) {
	sc, err := dataset.OpenFileScanner(path)
	if err != nil {
		return nil, err
	}
	opt.Algorithm = "pincer-parallel"
	opt.Counter = parallel.NewStreamPassCounter(sc, workers)
	return core.Mine(sc, minSupport, opt)
}

// mustMine strips the impossible error of an in-memory mining run: memory
// scans cannot fail, so any error here is a programmer error.
func mustMine(res *Result, err error) *Result {
	if err != nil {
		panic(err)
	}
	return res
}

// SaveDataset writes a dataset in the basket text format.
func SaveDataset(path string, d *Dataset) error { return dataset.SaveBasketFile(path, d) }

// ReadDataset parses the basket text format from a reader.
func ReadDataset(r io.Reader) (*Dataset, error) { return dataset.ReadBasket(r) }

// GenerateQuest produces a synthetic benchmark database; zero-valued
// parameters take the paper's defaults (T10.I4.D100K, N=1000, |L|=2000).
func GenerateQuest(p QuestParams) *Dataset { return quest.Generate(p) }

// ParseQuestName parses a conventional benchmark database name such as
// "T20.I6.D100K" into generator parameters.
func ParseQuestName(name string) (QuestParams, error) { return quest.ParseName(name) }

// Mine discovers the maximum frequent set with Pincer-Search at a
// fractional minimum support (0.05 = 5%).
//
// Deprecated: Mine cannot report errors, so it panics if mining fails. Use
// MineContext, which also supports cancellation; Mine remains for source
// compatibility.
func Mine(d *Dataset, minSupport float64) *Result {
	return MineWithOptions(d, minSupport, core.DefaultOptions())
}

// MineWithOptions is Mine with explicit Pincer-Search options.
//
// Deprecated: MineWithOptions cannot report errors — with cancellation,
// budget, or checkpoint options set, a run that stops early makes it panic
// instead of returning the partial result. Use MineWithOptionsContext.
func MineWithOptions(d *Dataset, minSupport float64, opt PincerOptions) *Result {
	return mustMine(core.Mine(dataset.NewScanner(d), minSupport, opt))
}

// MineContext is Mine with cancellation: the context is observed at every
// pass boundary and inside scan loops. A cancelled or budget-stopped run
// returns a *PartialResultError carrying the anytime result.
func MineContext(ctx context.Context, d *Dataset, minSupport float64) (*Result, error) {
	return MineWithOptionsContext(ctx, d, minSupport, core.DefaultOptions())
}

// MineWithOptionsContext is MineContext with explicit Pincer-Search
// options. The context argument takes precedence over opt.Context.
func MineWithOptionsContext(ctx context.Context, d *Dataset, minSupport float64, opt PincerOptions) (*Result, error) {
	if ctx != nil {
		opt.Context = ctx
	}
	return core.Mine(dataset.NewScanner(d), minSupport, opt)
}

// MineResume continues a Pincer-Search run from the checkpoint recorded by
// opt.Checkpointer (see NewFileCheckpointer); with no checkpoint on record
// it mines from scratch. The resumed run produces exactly the result and
// statistics of an uninterrupted one.
func MineResume(ctx context.Context, d *Dataset, minSupport float64, opt PincerOptions) (*Result, error) {
	if ctx != nil {
		opt.Context = ctx
	}
	sc := dataset.NewScanner(d)
	return core.MineResume(sc, dataset.MinCountFor(sc.Len(), minSupport), opt)
}

// MineFileResume is MineResume over a basket file re-read once per pass.
func MineFileResume(ctx context.Context, path string, minSupport float64, opt PincerOptions) (*Result, error) {
	sc, err := dataset.OpenFileScanner(path)
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		opt.Context = ctx
	}
	return core.MineResume(sc, dataset.MinCountFor(sc.Len(), minSupport), opt)
}

// MineApriori discovers the complete frequent set (and its MFS) with the
// Apriori baseline.
//
// Deprecated: MineApriori cannot report errors, so it panics if mining
// fails. Use MineAprioriContext.
func MineApriori(d *Dataset, minSupport float64) *Result {
	return MineAprioriWithOptions(d, minSupport, apriori.DefaultOptions())
}

// MineAprioriWithOptions is MineApriori with explicit options.
//
// Deprecated: MineAprioriWithOptions cannot report errors — with
// cancellation, budget, or checkpoint options set, a run that stops early
// makes it panic instead of returning the partial result. Use
// MineAprioriWithOptionsContext.
func MineAprioriWithOptions(d *Dataset, minSupport float64, opt AprioriOptions) *Result {
	return mustMine(apriori.Mine(dataset.NewScanner(d), minSupport, opt))
}

// MineAprioriContext is MineApriori with cancellation and error reporting.
func MineAprioriContext(ctx context.Context, d *Dataset, minSupport float64) (*Result, error) {
	return MineAprioriWithOptionsContext(ctx, d, minSupport, apriori.DefaultOptions())
}

// MineAprioriWithOptionsContext is MineAprioriContext with explicit
// options. The context argument takes precedence over opt.Context.
func MineAprioriWithOptionsContext(ctx context.Context, d *Dataset, minSupport float64, opt AprioriOptions) (*Result, error) {
	if ctx != nil {
		opt.Context = ctx
	}
	return apriori.Mine(dataset.NewScanner(d), minSupport, opt)
}

// MineAprioriResume continues a checkpointed Apriori run (see
// AprioriOptions.Checkpointer); with no checkpoint on record it mines from
// scratch.
func MineAprioriResume(ctx context.Context, d *Dataset, minSupport float64, opt AprioriOptions) (*Result, error) {
	if ctx != nil {
		opt.Context = ctx
	}
	sc := dataset.NewScanner(d)
	return apriori.MineResume(sc, dataset.MinCountFor(sc.Len(), minSupport), opt)
}

// PartialResultError is returned when a mine stops early — context
// cancellation, deadline, or a resource budget. It carries the anytime
// result: the frequent sets found so far (a lower bound on the MFS) and,
// for Pincer-Search, the MFCS as an upper bound.
type PartialResultError = mfi.PartialResultError

// Abort reasons carried by PartialResultError.Reason.
const (
	ReasonCancelled     = mfi.ReasonCancelled
	ReasonDeadline      = mfi.ReasonDeadline
	ReasonMaxPasses     = mfi.ReasonMaxPasses
	ReasonMaxCandidates = mfi.ReasonMaxCandidates
	ReasonMemory        = mfi.ReasonMemory
)

// Checkpointer persists mining state at pass barriers so an interrupted
// run can resume (see MineResume). Implementations must make Save atomic.
type Checkpointer = checkpoint.Checkpointer

// FileCheckpointer stores checkpoints in a single file written with the
// temp-file + rename protocol, so a crash never leaves a truncated
// checkpoint.
type FileCheckpointer = checkpoint.FileCheckpointer

// NewFileCheckpointer builds a file-backed checkpointer; assign it to
// PincerOptions.Checkpointer (or AprioriOptions.Checkpointer) to
// checkpoint a run, and reuse it with MineResume to continue.
func NewFileCheckpointer(path string) *FileCheckpointer {
	return checkpoint.NewFileCheckpointer(path)
}

// DefaultPincerOptions returns the adaptive configuration the paper
// evaluates.
func DefaultPincerOptions() PincerOptions { return core.DefaultOptions() }

// DefaultAprioriOptions returns the standard Apriori configuration.
func DefaultAprioriOptions() AprioriOptions { return apriori.DefaultOptions() }

// RulesFromResult generates association rules from a mining result. For a
// Pincer-Search result it uses the paper's §2.1 scheme: the subsets of the
// maximal frequent itemsets are counted with one extra pass over the
// database. maxItemsetLen caps the subset expansion (0 = unlimited; set it
// when maximal itemsets are very long).
func RulesFromResult(d *Dataset, res *Result, maxItemsetLen int, p RuleParams) ([]Rule, error) {
	sc := dataset.NewScanner(d)
	return rules.FromMFS(sc, res.MFS, maxItemsetLen, p)
}

// ExpandFrequent enumerates every frequent itemset implied by a result's
// MFS (capped at maxLen items; 0 = unlimited). The expansion is exponential
// in the longest maximal itemset.
func ExpandFrequent(res *Result, maxLen int) []Itemset {
	return mfi.Expand(res.MFS, maxLen)
}

// CountFrequent returns how many frequent itemsets the result's MFS
// implies, without materializing them.
func CountFrequent(res *Result) int64 { return mfi.CountFrequent(res.MFS) }

// Profile summarizes a dataset's shape — transaction count, distinct-item
// universe, density, and item-frequency skew — the features the adaptive
// engine-selection policy reads. It is a pure function of the dataset.
type Profile = dataset.Profile

// ProfileDataset computes the dataset's profile in one pass.
func ProfileDataset(d *Dataset) Profile { return d.Profile() }

// Selection is the execution plan the adaptive policy derives from a
// profile: algorithm, counting strategy, and rationale.
type Selection = counting.Selection

// SelectEngine picks the execution plan for a dataset profile. The policy
// is deterministic (the same profile always selects the same plan) and
// result-invariant: every plan it can pick produces the identical MFS, so
// a policy miss costs speed, never correctness. See DESIGN.md §12 for the
// policy table and its calibration.
func SelectEngine(p Profile) Selection { return counting.SelectEngine(p) }

// FPMaxOptions configures the FP-max maximal miner.
type FPMaxOptions = fpmax.Options

// FPMaxResult extends Result with FP-tree diagnostics (conditional trees
// projected, nodes allocated).
type FPMaxResult = fpmax.Result

// DefaultFPMaxOptions returns the standard FP-max configuration.
func DefaultFPMaxOptions() FPMaxOptions { return fpmax.DefaultOptions() }

// MineFPMax discovers the maximum frequent set with the FP-max miner: an
// FP-tree (frequency-ordered prefix tree) searched depth-first with
// single-path collapse and subset-of-known-maximal pruning. Supports are
// exact and the MFS is byte-identical to every other miner's; FP-max is
// the fastest choice on dense, skewed data (see DESIGN.md §12).
func MineFPMax(d *Dataset, minSupport float64, opt FPMaxOptions) *FPMaxResult {
	return fpmax.MineMaximal(d, minSupport, opt)
}

// Relation is a table whose minimal keys can be discovered — the paper's
// §1 minimal-keys application.
type Relation = minkeys.Relation

// KeyResult reports a minimal-key discovery.
type KeyResult = minkeys.Result

// MinimalKeys discovers every minimal key of the relation by mining the
// maximal agree sets with Pincer-Search and taking minimal hypergraph
// transversals of their complements.
func MinimalKeys(rel *Relation) (*KeyResult, error) { return minkeys.Find(rel) }
