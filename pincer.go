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
//	res, err := pincer.Mine(ctx, db, 0.05, pincer.Options{}) // maximal frequent itemsets at 5% support
//	for i, m := range res.MFS {
//	    fmt.Println(m, res.MFSSupports[i])
//	}
package pincer

import (
	"context"
	"io"

	"pincer/internal/checkpoint"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/minkeys"
	"pincer/internal/plan"
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

// Rule is an association rule with support, confidence, and lift.
type Rule = rules.Rule

// RuleParams are rule-quality thresholds.
type RuleParams = rules.Params

// Options selects the miner and how it counts, with its budgets,
// checkpointing and tracing; the zero value runs sequential Pincer-Search.
// Miner is one of pincer, parallel, apriori, topdown, vertical, fpmax, ais,
// eclat or auto (profile the dataset and let SelectEngine pick). Mine
// refuses an option the miner would ignore.
type Options = plan.Options

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

// Mine discovers the maximum frequent set of d at a fractional minimum
// support (0.05 = 5%) with the miner opt names. The context is observed
// at every pass boundary and inside scan loops; a cancelled or
// budget-stopped run returns a *PartialResultError carrying the anytime
// result. With opt.Resume the run continues from opt.Checkpointer's last
// checkpoint, producing exactly the result of an uninterrupted run.
func Mine(ctx context.Context, d *Dataset, minSupport float64, opt Options) (*Result, error) {
	return mine(ctx, plan.Source{Data: d}, minSupport, opt)
}

// MineFile is Mine over a basket file that is re-read once per pass and
// never held in memory — the I/O regime of the paper's cost model, for
// databases larger than RAM. With Workers the mining goroutine reads the
// file while the workers count. Miners that index the database in memory
// (vertical, fpmax, eclat, auto) and tid-list counting need Mine. A file
// that turns corrupt or unreadable between passes surfaces as an error.
func MineFile(ctx context.Context, path string, minSupport float64, opt Options) (*Result, error) {
	sc, err := dataset.OpenFileScanner(path)
	if err != nil {
		return nil, err
	}
	return mine(ctx, plan.Source{Scanner: sc}, minSupport, opt)
}

func mine(ctx context.Context, src plan.Source, minSupport float64, opt Options) (*Result, error) {
	if err := plan.Check(opt); err != nil {
		return nil, err
	}
	return plan.Run(ctx, src, minSupport, opt)
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
// run can resume (see Options.Resume). Implementations must make Save atomic.
type Checkpointer = checkpoint.Checkpointer

// FileCheckpointer stores checkpoints in a single file written with the
// temp-file + rename protocol, so a crash never leaves a truncated
// checkpoint.
type FileCheckpointer = checkpoint.FileCheckpointer

// NewFileCheckpointer builds a file-backed checkpointer; assign it to
// Options.Checkpointer to checkpoint a run, and set Options.Resume to
// continue one.
func NewFileCheckpointer(path string) *FileCheckpointer {
	return checkpoint.NewFileCheckpointer(path)
}

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

// Relation is a table whose minimal keys can be discovered — the paper's
// §1 minimal-keys application.
type Relation = minkeys.Relation

// KeyResult reports a minimal-key discovery.
type KeyResult = minkeys.Result

// MinimalKeys discovers every minimal key of the relation by mining the
// maximal agree sets with Pincer-Search and taking minimal hypergraph
// transversals of their complements.
func MinimalKeys(rel *Relation) (*KeyResult, error) { return minkeys.Find(rel) }
