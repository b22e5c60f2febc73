// Package plan is the one mining entry point. Every miner in this module
// answers the paper's one question, the maximum frequent set at a minimum
// support, and which of them is fastest depends on the data; so "which
// miner, counted how, under which budgets" is one decision, made here. A
// table says what each miner accepts; Check refuses an option the named
// miner would ignore; Resolve hands miner=auto and engine=auto to the
// adaptive policy (counting.SelectEngine) for a profile the caller
// supplies; Run builds the counter and the miner's own options and mines.
// pincerd, the pincer and rulegen commands, the bench harness and the root
// package's Mine all run through it.
package plan

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"pincer/internal/ais"
	"pincer/internal/apriori"
	"pincer/internal/checkpoint"
	"pincer/internal/core"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/fpmax"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
	"pincer/internal/parallel"
	"pincer/internal/topdown"
	"pincer/internal/vertical"
)

// Miner names. pincerd serves all but AIS and Eclat.
const (
	Pincer   = "pincer"   // sequential adaptive Pincer-Search
	Parallel = "parallel" // Pincer-Search with every pass counted over Workers goroutines
	Apriori  = "apriori"  // the Apriori baseline
	Topdown  = "topdown"  // pure top-down search (concentrated data only)
	Vertical = "vertical" // depth-first maximal Eclat
	FPMax    = "fpmax"    // FP-tree maximal miner
	AIS      = "ais"      // the AIS baseline
	Eclat    = "eclat"    // full Eclat: the complete frequent set
	// Auto delegates the whole plan to the adaptive policy. As an engine
	// name it delegates the counting engine (and an unset counter) only.
	Auto = "auto"
)

// A Feature is one option a miner may accept.
type Feature uint16

// The features, in the order Check tests them. DeadlineBound is a
// wall-clock deadline, and cancellation by the run's context, observed at
// pass boundaries and inside scans; the three budgets end a run early,
// with its anytime result, past a pass count, a per-pass candidate count
// or a heap size.
const (
	Distribution Feature = 1 << iota // count distribution over worker goroutines
	EngineChoice                     // the candidate structure of level-wise passes ≥ 3
	TidLists                         // tid-list counting in place of database scans
	OwnCounter                       // a counter the caller builds, such as the cluster coordinator
	Checkpoints                      // checkpoints at pass barriers, and resuming from one
	DeadlineBound
	PassBudget
	CandidateBudget
	MemoryBudget
)

func (f Feature) String() string {
	return map[Feature]string{
		Distribution: "workers", EngineChoice: "engine", TidLists: "counter",
		OwnCounter: "a caller-built counter", Checkpoints: "checkpoints", DeadlineBound: "deadline",
		PassBudget: "max passes", CandidateBudget: "max candidates per pass", MemoryBudget: "max memory",
	}[f]
}

// Budgets is every budget feature.
const Budgets = DeadlineBound | PassBudget | CandidateBudget | MemoryBudget

// miner is one row of the table.
type miner struct {
	name    string
	served  bool // pincerd accepts it
	memory  bool // it indexes the database in memory, so a streamed file will not do
	accepts Feature
	run     func(*run) (*mfi.Result, error)
}

// miners is the table. Auto has no run of its own: Run resolves it first.
// It accepts checkpoints and every budget, and the plan it resolves to
// honours the ones that plan accepts.
var miners = []miner{
	{name: Pincer, served: true, accepts: EngineChoice | TidLists | OwnCounter | Checkpoints | Budgets, run: runPincer},
	{name: Apriori, served: true, accepts: EngineChoice | Distribution | Checkpoints | DeadlineBound | CandidateBudget, run: runApriori},
	{name: Topdown, served: true, accepts: DeadlineBound | PassBudget, run: runTopdown},
	{name: Vertical, served: true, memory: true, run: func(r *run) (*mfi.Result, error) {
		return &vertical.MineMaximal(r.data, r.minSupport, vertical.Options{KeepFrequent: r.KeepFrequent}).Result, nil
	}},
	{name: Parallel, served: true, accepts: EngineChoice | TidLists | Distribution | Checkpoints | Budgets, run: runPincer},
	{name: FPMax, served: true, memory: true, run: func(r *run) (*mfi.Result, error) {
		return &fpmax.MineMaximalCount(r.data, r.minCount, fpmax.DefaultOptions()).Result, nil
	}},
	{name: Auto, served: true, accepts: Checkpoints | Budgets},
	{name: AIS, run: runAIS},
	{name: Eclat, memory: true, run: func(r *run) (*mfi.Result, error) {
		return vertical.Eclat(r.data, r.minSupport, vertical.Options{KeepFrequent: r.KeepFrequent}), nil
	}},
}

func lookup(name string) (miner, bool) {
	for _, m := range miners {
		if m.name == name {
			return m, true
		}
	}
	return miner{}, false
}

// Accepts reports whether the named miner accepts f.
func Accepts(name string, f Feature) bool {
	m, ok := lookup(name)
	return ok && m.accepts&f != 0
}

// Miners lists the table's miners in table order: all of them, or only
// those pincerd serves.
func Miners(servedOnly bool) []string {
	var out []string
	for _, m := range miners {
		if m.served || !servedOnly {
			out = append(out, m.name)
		}
	}
	return out
}

// Options is one mining request. The zero value runs sequential
// Pincer-Search, counting by database scans with the hash tree.
type Options struct {
	// Miner names the miner ("": pincer, or auto when Engine is auto).
	Miner string
	// Engine is the candidate structure of passes ≥ 3: "" (hashtree),
	// hashtree, list, trie, or auto.
	Engine string
	// Counter is the counter spec: "" or "scan" (database passes),
	// "tidlist", or "tidlist:bitset|list|diffset".
	Counter string
	// Workers is the goroutine count of a count-distributed run, with scan
	// or tid-list counting alike. The parallel miner always distributes
	// its counting, apriori when Workers is non-zero; 0 on the parallel
	// miner, or any negative count, means GOMAXPROCS. Sequential tid-list
	// counting uses one worker.
	Workers int
	// Pure turns Pincer-Search's adaptive policy off (§3.5).
	Pure bool
	// MFCSCap and MFSCap, when set, replace Pincer-Search's adaptive caps:
	// past them the run gives up the MFCS and degrades to bottom-up search,
	// or falls back to Apriori.
	MFCSCap, MFSCap int
	// KeepFrequent keeps every explicitly counted frequent itemset in
	// Result.Frequent, where the miner has such a set.
	KeepFrequent bool
	// Deadline, MaxPasses, MaxCandidates (per pass) and MaxMemory (heap
	// bytes, checked at pass boundaries) end the run early with a
	// *mfi.PartialResultError carrying its anytime result (0: no limit).
	Deadline      time.Duration
	MaxPasses     int
	MaxCandidates int
	MaxMemory     int64
	// Checkpointer persists the run at every pass barrier; with Resume the
	// run continues from its last checkpoint (or mines from scratch when
	// there is none).
	Checkpointer checkpoint.Checkpointer
	Resume       bool
	// Tracer receives the run's pass events (nil: no tracing).
	Tracer obsv.Tracer
	// PassCounter, when set, counts every pass in place of the counter
	// Counter and Workers would build.
	PassCounter counting.PassCounter
}

// miner returns the miner opt names, filling in the default.
func (o Options) miner() string {
	switch {
	case o.Miner != "":
		return o.Miner
	case o.Engine == Auto:
		return Auto
	}
	return Pincer
}

// uses returns the features opt asks of its miner.
func (o Options) uses() (f Feature) {
	set := func(on bool, g Feature) {
		if on {
			f |= g
		}
	}
	set(o.Workers != 0, Distribution)
	set(o.Engine != "" && !(o.Engine == Auto && o.miner() == Auto), EngineChoice)
	set(o.Counter != "" && o.Counter != "scan", TidLists)
	set(o.PassCounter != nil, OwnCounter)
	set(o.Checkpointer != nil || o.Resume, Checkpoints)
	set(o.Deadline != 0, DeadlineBound)
	set(o.MaxPasses != 0, PassBudget)
	set(o.MaxCandidates != 0, CandidateBudget)
	set(o.MaxMemory != 0, MemoryBudget)
	return f
}

// An Error refuses an option. Feature names the options refused; it is 0
// for an unknown miner.
type Error struct {
	Feature Feature
	Msg     string
}

func (e *Error) Error() string { return e.Msg }

func refuse(f Feature, format string, args ...any) *Error {
	return &Error{Feature: f, Msg: fmt.Sprintf(format, args...)}
}

// Check refuses any option opt's miner would ignore, malformed engine and
// counter names, a resume with nothing to resume from, and negative
// budgets.
func Check(opt Options) error {
	m, ok := lookup(opt.miner())
	if !ok {
		return refuse(0, "unknown miner %q (want %s)", opt.Miner, strings.Join(Miners(false), ", "))
	}
	uses := opt.uses()
	for f := Distribution; f <= MemoryBudget; f <<= 1 {
		if uses&f != 0 && m.accepts&f == 0 {
			return refuse(f, "%s does not apply to the %s miner", f, m.name)
		}
	}
	if uses&EngineChoice != 0 && opt.Engine != Auto {
		if _, err := counting.ParseEngine(opt.Engine); err != nil {
			return refuse(EngineChoice, "%v", err)
		}
	}
	if _, _, err := counting.ParseCounterSpec(opt.Counter); err != nil {
		return refuse(TidLists, "%v", err)
	}
	if opt.Resume && opt.Checkpointer == nil {
		return refuse(Checkpoints, "resume needs a checkpointer to resume from")
	}
	if min(int64(opt.Deadline), int64(opt.MaxPasses), int64(opt.MaxCandidates), opt.MaxMemory) < 0 {
		return refuse(uses&Budgets, "budgets must be non-negative")
	}
	return nil
}

// Resolve replaces what opt delegates to the adaptive policy with the
// policy's choice for the dataset's profile: the whole plan for miner
// auto; the engine, and an unset counter, for engine auto on a miner that
// takes them. It returns the options to run and the selection made, or opt
// and nil when nothing is delegated. The profile is asked for only when
// something is delegated, so one memoized with the dataset is never
// computed again.
func Resolve(opt Options, profile func() dataset.Profile) (Options, *counting.Selection) {
	opt.Miner = opt.miner()
	if opt.Miner != Auto && opt.Engine != Auto {
		return opt, nil
	}
	sel := counting.SelectEngine(profile())
	if opt.Miner == Auto {
		opt.Miner, opt.Counter = sel.Algorithm, sel.Counter
	} else if opt.Counter == "" && Accepts(opt.Miner, TidLists) {
		opt.Counter = sel.Counter
	}
	opt.Engine = ""
	if Accepts(opt.Miner, EngineChoice) {
		opt.Engine = sel.Engine.String()
	}
	return opt, &sel
}

// Source is the database a run mines.
type Source struct {
	// Data is the database in memory. It is nil for a file streamed once
	// per pass, which the miners that index the database in memory
	// (vertical, fpmax, eclat) and tid-list counting cannot mine.
	Data *dataset.Dataset
	// Scanner reads the database once per pass (nil: a memory scanner
	// over Data).
	Scanner dataset.Scanner
}

// run is one mine in progress: the options and the values derived from
// them and the source.
type run struct {
	Options
	ctx        context.Context
	data       *dataset.Dataset
	sc         dataset.Scanner
	minSupport float64
	minCount   int64
	engine     counting.Engine
	counter    counting.PassCounter
}

// Run mines src at minSupport, a fraction of its transactions, with the
// plan opt describes. Miner or engine auto is resolved from src's profile
// first; a caller holding a memoized profile resolves it with Resolve
// before calling. Run applies each option to a miner that accepts it and
// ignores it elsewhere: Check is what refuses. A run stopped early by its
// context or a budget returns a *mfi.PartialResultError carrying the
// anytime result.
func Run(ctx context.Context, src Source, minSupport float64, opt Options) (*mfi.Result, error) {
	if opt.miner() == Auto || opt.Engine == Auto {
		if src.Data == nil {
			return nil, errors.New("plan: auto needs the database in memory to profile it")
		}
		opt, _ = Resolve(opt, src.Data.Profile)
	}
	opt.Miner = opt.miner()
	m, ok := lookup(opt.Miner)
	switch {
	case !ok:
		return nil, fmt.Errorf("plan: unknown miner %q", opt.Miner)
	case src.Data == nil && src.Scanner == nil:
		return nil, errors.New("plan: no database to mine")
	case src.Data == nil && m.memory:
		return nil, fmt.Errorf("plan: the %s miner needs the database in memory", m.name)
	}
	r := &run{Options: opt, ctx: ctx, data: src.Data, sc: src.Scanner, minSupport: minSupport, engine: counting.EngineHashTree}
	if r.sc == nil {
		r.sc = dataset.NewScanner(r.data)
	}
	r.minCount = dataset.MinCountFor(r.sc.Len(), minSupport)
	if m.accepts&EngineChoice != 0 && opt.Engine != "" {
		e, err := counting.ParseEngine(opt.Engine)
		if err != nil {
			return nil, err
		}
		r.engine = e
	}
	if err := r.buildCounter(m); err != nil {
		return nil, err
	}
	return m.run(r)
}

// buildCounter builds the pass counter the options ask for, if any (nil:
// the miner scans its Scanner once per pass). This is the one workers
// rule: a count-distributed run uses Workers goroutines (GOMAXPROCS when
// Workers is not positive) whichever counter it runs, and a sequential
// tid-list counter uses one.
func (r *run) buildCounter(m miner) error {
	if m.accepts&OwnCounter != 0 && r.PassCounter != nil {
		r.counter = r.PassCounter
		return nil
	}
	tidlist, rep, err := counting.ParseCounterSpec(r.Counter)
	if err != nil {
		return err
	}
	tidlist = tidlist && m.accepts&TidLists != 0
	distributed := m.accepts&Distribution != 0 && (m.name == Parallel || r.Workers != 0)
	workers := 1
	if distributed {
		workers = r.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	switch {
	case tidlist && r.data == nil:
		return errors.New("plan: tid-list counting needs the database in memory")
	case tidlist:
		r.counter = counting.NewTidListCounter(r.data, counting.TidListOptions{Workers: workers, Rep: rep})
	case !distributed:
	case r.data == nil:
		r.counter = parallel.NewStreamPassCounter(r.sc, workers)
	default:
		r.counter = parallel.NewPassCounter(r.data, workers)
	}
	return nil
}

func runPincer(r *run) (*mfi.Result, error) {
	opt := core.DefaultOptions()
	opt.MFCSCap, opt.MFSCap = cmp.Or(r.MFCSCap, opt.MFCSCap), cmp.Or(r.MFSCap, opt.MFSCap)
	opt.Engine, opt.Pure, opt.KeepFrequent, opt.Counter = r.engine, r.Pure, r.KeepFrequent, r.counter
	opt.Tracer, opt.Context, opt.Checkpointer = r.Tracer, r.ctx, r.Checkpointer
	opt.Deadline, opt.MaxTotalPasses, opt.MaxCandidatesPerPass, opt.MaxMemoryBytes = r.Deadline, r.MaxPasses, r.MaxCandidates, r.MaxMemory
	if r.Miner == Parallel {
		opt.Algorithm = "pincer-parallel"
	}
	if r.Resume {
		return core.MineResume(r.sc, r.minCount, opt)
	}
	return core.MineCount(r.sc, r.minCount, opt)
}

func runApriori(r *run) (*mfi.Result, error) {
	opt := apriori.DefaultOptions()
	opt.Engine, opt.KeepFrequent, opt.Counter = r.engine, r.KeepFrequent, r.counter
	opt.Tracer, opt.Context, opt.Checkpointer = r.Tracer, r.ctx, r.Checkpointer
	opt.Deadline, opt.MaxCandidatesPerPass = r.Deadline, r.MaxCandidates
	if r.Resume {
		return apriori.MineResume(r.sc, r.minCount, opt)
	}
	return apriori.MineCount(r.sc, r.minCount, opt)
}

func runTopdown(r *run) (*mfi.Result, error) {
	opt := topdown.DefaultOptions()
	opt.Tracer, opt.Context, opt.Deadline, opt.MaxPasses = r.Tracer, r.ctx, r.Deadline, r.MaxPasses
	res, err := topdown.MineCount(r.sc, r.minCount, opt)
	switch {
	case err != nil:
		return nil, err
	case !res.Aborted:
		return &res.Result, nil
	case opt.MaxPasses > 0 && res.Stats.Passes >= opt.MaxPasses:
		// The pass limit ends the search where a next pass would begin,
		// as it ends Pincer-Search: with the maximal sets found so far.
		return nil, &mfi.PartialResultError{Result: &res.Result, Pass: res.Stats.Passes, Reason: mfi.ReasonMaxPasses}
	}
	return nil, fmt.Errorf("topdown: frontier exceeded %d elements; this miner only suits concentrated data", opt.MaxElements)
}

func runAIS(r *run) (*mfi.Result, error) {
	opt := ais.DefaultOptions()
	opt.KeepFrequent = r.KeepFrequent
	res, err := ais.MineCount(r.sc, r.minCount, opt)
	if err == nil && res.Aborted {
		err = errors.New("ais: candidate explosion; use the pincer or apriori miner")
	}
	if err != nil {
		return nil, err
	}
	return &res.Result, nil
}
