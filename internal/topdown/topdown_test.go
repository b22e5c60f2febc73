package topdown

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pincer/internal/apriori"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
)

func TestTopDownLongMaximalIsFast(t *testing.T) {
	// The favourable case: the maximal itemset is the (near-)whole universe,
	// so the top-down search finds it immediately.
	d := dataset.Empty(8)
	for i := 0; i < 5; i++ {
		d.Append(itemset.Range(0, 8))
	}
	res := must(MineCount(dataset.NewScanner(d), 3, DefaultOptions()))
	if res.Aborted {
		t.Fatal("aborted")
	}
	if err := mfi.VerifyAgainst(res.MFS, []itemset.Itemset{itemset.Range(0, 8)}); err != nil {
		t.Fatalf("MFS: %v (got %v)", err, res.MFS)
	}
	if res.Stats.Passes != 1 {
		t.Errorf("passes = %d, want 1", res.Stats.Passes)
	}
}

func TestTopDownDescendsLevels(t *testing.T) {
	d := dataset.New([]dataset.Transaction{
		itemset.New(0, 1, 2),
		itemset.New(0, 1, 2),
		itemset.New(0, 3),
		itemset.New(0, 3),
	})
	res := must(MineCount(dataset.NewScanner(d), 2, DefaultOptions()))
	if res.Aborted {
		t.Fatal("aborted")
	}
	want := []itemset.Itemset{itemset.New(0, 1, 2), itemset.New(0, 3)}
	if err := mfi.VerifyAgainst(res.MFS, want); err != nil {
		t.Fatalf("MFS: %v (got %v)", err, res.MFS)
	}
	// universe {0,1,2,3} → level 3 → level 2: at least 3 passes
	if res.Stats.Passes < 3 {
		t.Errorf("passes = %d, want ≥ 3", res.Stats.Passes)
	}
}

func TestTopDownEmptyAndInfrequent(t *testing.T) {
	res := must(MineCount(dataset.NewScanner(dataset.Empty(4)), 1, DefaultOptions()))
	if len(res.MFS) != 0 || res.Aborted {
		t.Fatalf("empty db: MFS=%v aborted=%v", res.MFS, res.Aborted)
	}
	d := dataset.New([]dataset.Transaction{itemset.New(0), itemset.New(1)})
	res = must(MineCount(dataset.NewScanner(d), 2, DefaultOptions()))
	if len(res.MFS) != 0 {
		t.Fatalf("MFS = %v, want empty", res.MFS)
	}
}

func TestTopDownAbortsOnFrontierExplosion(t *testing.T) {
	// Frequent singletons only over a wide universe: the frontier must blow
	// past a tiny element budget on its way down.
	d := dataset.Empty(24)
	for i := 0; i < 24; i++ {
		d.Append(itemset.New(itemset.Item(i)))
		d.Append(itemset.New(itemset.Item(i)))
	}
	opt := Options{MaxElements: 50}
	res := must(MineCount(dataset.NewScanner(d), 2, opt))
	if !res.Aborted {
		t.Fatal("expected abort")
	}
}

func TestTopDownMaxPasses(t *testing.T) {
	d := dataset.New([]dataset.Transaction{itemset.New(0, 1), itemset.New(0, 1), itemset.New(2)})
	opt := DefaultOptions()
	opt.MaxPasses = 1
	res := must(MineCount(dataset.NewScanner(d), 2, opt))
	if !res.Aborted {
		t.Fatal("expected abort after 1 pass")
	}
	if res.Stats.Passes != 1 {
		t.Errorf("passes = %d", res.Stats.Passes)
	}
}

func TestQuickTopDownMatchesApriori(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		universe := 3 + r.Intn(6) // small: the frontier is exponential in it
		numTx := 4 + r.Intn(30)
		d := dataset.Empty(universe)
		for i := 0; i < numTx; i++ {
			n := 1 + r.Intn(universe)
			items := make([]itemset.Item, n)
			for j := range items {
				items[j] = itemset.Item(r.Intn(universe))
			}
			d.Append(itemset.New(items...))
		}
		minCount := int64(1 + r.Intn(numTx/2+1))
		res := must(MineCount(dataset.NewScanner(d), minCount, Options{}))
		if res.Aborted {
			return false
		}
		ares := must(apriori.MineCount(dataset.NewScanner(d), minCount, apriori.DefaultOptions()))
		return mfi.VerifyAgainst(res.MFS, ares.MFS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// must unwraps the (result, error) mining returns; in-memory test scans
// cannot fail.
func must[R any](res R, err error) R {
	if err != nil {
		panic(err)
	}
	return res
}

// TestDeadlinePreemptsSplit pins the preemption bound the load harness
// exposed: between database scans the miner splits the frontier in memory,
// and on unconcentrated data that split — not the scan — is where the time
// goes (a 48-item universe held a deadline off for ~50s). The split loop
// must poll the context so an expired deadline surfaces as a partial
// result promptly instead of after the frontier finishes exploding.
func TestDeadlinePreemptsSplit(t *testing.T) {
	// One duplicated 22-item transaction with an unreachable support: every
	// level of the lattice splits, so the run is almost entirely split-loop
	// work. Unlimited MaxElements keeps the frontier guard from ending the
	// run before the deadline check would.
	d := dataset.Empty(22)
	d.Append(itemset.Range(0, 22))
	d.Append(itemset.Range(0, 22))
	opt := Options{Deadline: 100 * time.Millisecond}
	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := MineCount(dataset.NewScanner(d), 3, opt)
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		var pe *mfi.PartialResultError
		if !errors.As(o.err, &pe) {
			t.Fatalf("err = %v, want PartialResultError", o.err)
		}
		if pe.Reason != mfi.ReasonDeadline {
			t.Errorf("reason = %q, want %q", pe.Reason, mfi.ReasonDeadline)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("deadline did not preempt the frontier split within 15s")
	}
}

// TestMaxElementsBoundsBuiltFrontier pins that MaxElements bounds the
// frontier the miner builds, not only the one it keeps: over a wide
// universe of sparse transactions the second pass would split 100
// infrequent 99-item elements into C(100,2) = 4950 children, and the
// budget must stop the splitting one element past it while the pass still
// classifies its whole frontier.
func TestMaxElementsBoundsBuiltFrontier(t *testing.T) {
	const n = 100
	r := rand.New(rand.NewSource(1))
	d := dataset.Empty(n)
	for i := 0; i < 50; i++ {
		d.Append(itemset.New(itemset.Item(r.Intn(n)), itemset.Item(r.Intn(n)), itemset.Item(r.Intn(n))))
	}
	c := obsv.NewCollector()
	opt := DefaultOptions()
	opt.MaxElements = 150
	opt.Tracer = c
	res := must(MineCount(dataset.NewScanner(d), 2, opt))
	if !res.Aborted {
		t.Fatal("run over a 4950-element frontier did not abort at MaxElements=150")
	}
	passes := c.Passes()
	if len(passes) != 2 || res.Stats.Passes != 2 {
		t.Fatalf("passes = %d (events %d), want 2", res.Stats.Passes, len(passes))
	}
	if got := passes[1].MFCSSize; got > opt.MaxElements+1 {
		t.Errorf("built frontier = %d elements, want ≤ MaxElements+1 = %d", got, opt.MaxElements+1)
	}
	if got := res.Stats.PassDetails[1].Candidates; got != n {
		t.Errorf("pass 2 classified %d elements, want the whole frontier of %d", got, n)
	}
}
