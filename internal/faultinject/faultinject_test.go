package faultinject_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"pincer/internal/apriori"
	"pincer/internal/checkpoint"
	"pincer/internal/core"
	"pincer/internal/dataset"
	"pincer/internal/faultinject"
	"pincer/internal/mfi"
	"pincer/internal/parallel"
	"pincer/internal/quest"
)

// testData is the shared workload: small enough that the full fault matrix
// (every pass boundary × every flavor × kill/cancel, each followed by a
// resumed run) stays fast under -race, but structured enough to take
// several passes.
func testData() (*dataset.Dataset, int64) {
	d := quest.Generate(quest.Params{
		NumTransactions:  800,
		AvgTxLen:         10,
		AvgPatternLen:    4,
		NumPatterns:      15,
		NumItems:         30,
		Seed:             7,
		CorrelationLevel: 0.5,
		CorruptionMean:   0.5,
		CorruptionStdDev: 0.1,
	})
	return d, dataset.MinCountFor(d.Len(), 0.05)
}

// faultRun runs one faulted mine; it must return a *mfi.PartialResultError.
type faultRun func(cp checkpoint.Checkpointer) error

// flavor is one miner configuration under test.
type flavor struct {
	name     string
	baseline func() (*mfi.Result, error)
	resume   func(cp checkpoint.Checkpointer) (*mfi.Result, error)
	// faults enumerates the fault points for the pass-boundary index
	// pass (1-based); half is a mid-scan transaction offset.
	faults func(pass, half int) map[string]faultRun
}

func flavors(d *dataset.Dataset, minCount int64) []flavor {
	coreOpt := func(cp checkpoint.Checkpointer) core.Options {
		o := core.DefaultOptions()
		o.Checkpointer = cp
		return o
	}
	parOpt := func(cp checkpoint.Checkpointer, ctr core.PassCounter) core.Options {
		o := coreOpt(cp)
		o.Algorithm = "pincer-parallel"
		o.Counter = ctr
		return o
	}
	aprOpt := func(cp checkpoint.Checkpointer) apriori.Options {
		o := apriori.DefaultOptions()
		o.Checkpointer = cp
		return o
	}

	fl := []flavor{
		{
			name: "pincer-sequential",
			baseline: func() (*mfi.Result, error) {
				return core.MineCount(dataset.NewScanner(d), minCount, coreOpt(nil))
			},
			resume: func(cp checkpoint.Checkpointer) (*mfi.Result, error) {
				return core.MineResume(dataset.NewScanner(d), minCount, coreOpt(cp))
			},
			faults: func(pass, half int) map[string]faultRun {
				kill := func(afterTx int) faultRun {
					return func(cp checkpoint.Checkpointer) error {
						sc := &faultinject.Scanner{Scanner: dataset.NewScanner(d), TripAtScan: pass, AfterTx: afterTx}
						_, err := core.MineCount(sc, minCount, coreOpt(cp))
						return err
					}
				}
				return map[string]faultRun{
					"kill-boundary": kill(0),
					"kill-midscan":  kill(half),
					"cancel-midscan": func(cp checkpoint.Checkpointer) error {
						ctx, cancel := context.WithCancel(context.Background())
						defer cancel()
						sc := &faultinject.Scanner{Scanner: dataset.NewScanner(d), TripAtScan: pass, AfterTx: half, OnTrip: cancel}
						o := coreOpt(cp)
						o.Context = ctx
						o.CancelCheckEvery = 1
						_, err := core.MineCount(sc, minCount, o)
						return err
					},
				}
			},
		},
		{
			name: "apriori",
			baseline: func() (*mfi.Result, error) {
				return apriori.MineCount(dataset.NewScanner(d), minCount, aprOpt(nil))
			},
			resume: func(cp checkpoint.Checkpointer) (*mfi.Result, error) {
				return apriori.MineResume(dataset.NewScanner(d), minCount, aprOpt(cp))
			},
			faults: func(pass, half int) map[string]faultRun {
				kill := func(afterTx int) faultRun {
					return func(cp checkpoint.Checkpointer) error {
						sc := &faultinject.Scanner{Scanner: dataset.NewScanner(d), TripAtScan: pass, AfterTx: afterTx}
						_, err := apriori.MineCount(sc, minCount, aprOpt(cp))
						return err
					}
				}
				return map[string]faultRun{
					"kill-boundary": kill(0),
					"kill-midscan":  kill(half),
					"cancel-midscan": func(cp checkpoint.Checkpointer) error {
						ctx, cancel := context.WithCancel(context.Background())
						defer cancel()
						sc := &faultinject.Scanner{Scanner: dataset.NewScanner(d), TripAtScan: pass, AfterTx: half, OnTrip: cancel}
						o := aprOpt(cp)
						o.Context = ctx
						o.CancelCheckEvery = 1
						_, err := apriori.MineCount(sc, minCount, o)
						return err
					},
				}
			},
		},
		{
			name: "pincer-stream-w2",
			baseline: func() (*mfi.Result, error) {
				ctr := parallel.NewStreamPassCounter(dataset.NewScanner(d), 2)
				return core.MineCount(dataset.NewScanner(d), minCount, parOpt(nil, ctr))
			},
			resume: func(cp checkpoint.Checkpointer) (*mfi.Result, error) {
				ctr := parallel.NewStreamPassCounter(dataset.NewScanner(d), 2)
				return core.MineResume(dataset.NewScanner(d), minCount, parOpt(cp, ctr))
			},
			faults: func(pass, half int) map[string]faultRun {
				kill := func(afterTx int) faultRun {
					return func(cp checkpoint.Checkpointer) error {
						sc := &faultinject.Scanner{Scanner: dataset.NewScanner(d), TripAtScan: pass, AfterTx: afterTx}
						ctr := parallel.NewStreamPassCounter(sc, 2)
						_, err := core.MineCount(dataset.NewScanner(d), minCount, parOpt(cp, ctr))
						return err
					}
				}
				return map[string]faultRun{
					"kill-boundary": kill(0),
					"kill-midscan":  kill(half),
					"cancel-midscan": func(cp checkpoint.Checkpointer) error {
						ctx, cancel := context.WithCancel(context.Background())
						defer cancel()
						sc := &faultinject.Scanner{Scanner: dataset.NewScanner(d), TripAtScan: pass, AfterTx: half, OnTrip: cancel}
						ctr := parallel.NewStreamPassCounter(sc, 2)
						o := parOpt(cp, ctr)
						o.Context = ctx
						o.CancelCheckEvery = 1
						_, err := core.MineCount(dataset.NewScanner(d), minCount, o)
						return err
					},
				}
			},
		},
	}

	for _, workers := range []int{1, 4} {
		workers := workers
		name := "pincer-parallel-w1"
		if workers == 4 {
			name = "pincer-parallel-w4"
		}
		fl = append(fl, flavor{
			name: name,
			baseline: func() (*mfi.Result, error) {
				return core.MineCount(dataset.NewScanner(d), minCount, parOpt(nil, parallel.NewPassCounter(d, workers)))
			},
			resume: func(cp checkpoint.Checkpointer) (*mfi.Result, error) {
				return core.MineResume(dataset.NewScanner(d), minCount, parOpt(cp, parallel.NewPassCounter(d, workers)))
			},
			faults: func(pass, half int) map[string]faultRun {
				return map[string]faultRun{
					"kill-boundary": func(cp checkpoint.Checkpointer) error {
						ctr := &faultinject.Counter{Inner: parallel.NewPassCounter(d, workers), TripAt: pass, Mode: faultinject.ModeKill}
						_, err := core.MineCount(dataset.NewScanner(d), minCount, parOpt(cp, ctr))
						return err
					},
					"cancel-midscan": func(cp checkpoint.Checkpointer) error {
						ctx, cancel := context.WithCancel(context.Background())
						defer cancel()
						ctr := &faultinject.Counter{Inner: parallel.NewPassCounter(d, workers), TripAt: pass, Mode: faultinject.ModeCancel, Cancel: cancel}
						o := parOpt(cp, ctr)
						o.Context = ctx
						o.CancelCheckEvery = 1
						_, err := core.MineCount(dataset.NewScanner(d), minCount, o)
						return err
					},
				}
			},
		})
	}

	// Parallel Apriori is Apriori with a partitioned counter: the counter
	// wrapper trips at every pass boundary, a kill there or a cancellation
	// the worker guards catch mid-scan.
	aprParOpt := func(cp checkpoint.Checkpointer, ctr core.PassCounter) apriori.Options {
		o := aprOpt(cp)
		o.Counter = ctr
		return o
	}
	fl = append(fl, flavor{
		name: "apriori-parallel-w4",
		baseline: func() (*mfi.Result, error) {
			return apriori.MineCount(dataset.NewScanner(d), minCount, aprParOpt(nil, parallel.NewPassCounter(d, 4)))
		},
		resume: func(cp checkpoint.Checkpointer) (*mfi.Result, error) {
			return apriori.MineResume(dataset.NewScanner(d), minCount, aprParOpt(cp, parallel.NewPassCounter(d, 4)))
		},
		faults: func(pass, half int) map[string]faultRun {
			return map[string]faultRun{
				"kill-boundary": func(cp checkpoint.Checkpointer) error {
					ctr := &faultinject.Counter{Inner: parallel.NewPassCounter(d, 4), TripAt: pass, Mode: faultinject.ModeKill}
					_, err := apriori.MineCount(dataset.NewScanner(d), minCount, aprParOpt(cp, ctr))
					return err
				},
				"cancel-midscan": func(cp checkpoint.Checkpointer) error {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					ctr := &faultinject.Counter{Inner: parallel.NewPassCounter(d, 4), TripAt: pass, Mode: faultinject.ModeCancel, Cancel: cancel}
					o := aprParOpt(cp, ctr)
					o.Context = ctx
					o.CancelCheckEvery = 1
					_, err := apriori.MineCount(dataset.NewScanner(d), minCount, o)
					return err
				},
			}
		},
	})
	return fl
}

// sameResult asserts the resumed result is indistinguishable from the
// uninterrupted one: MFS, supports, frequent sets, and the complete pass
// statistics — everything except wall-clock durations.
func sameResult(t *testing.T, want, got *mfi.Result) {
	t.Helper()
	if len(got.MFS) != len(want.MFS) {
		t.Fatalf("MFS size = %d, want %d", len(got.MFS), len(want.MFS))
	}
	for i, m := range want.MFS {
		if !got.MFS[i].Equal(m) {
			t.Fatalf("MFS[%d] = %v, want %v", i, got.MFS[i], m)
		}
		if got.MFSSupports[i] != want.MFSSupports[i] {
			t.Fatalf("MFSSupports[%d] = %d, want %d", i, got.MFSSupports[i], want.MFSSupports[i])
		}
	}
	if (got.Frequent == nil) != (want.Frequent == nil) {
		t.Fatalf("Frequent nil-ness differs: got %v, want %v", got.Frequent == nil, want.Frequent == nil)
	}
	if want.Frequent != nil {
		wf, gf := want.Frequent.Sorted(), got.Frequent.Sorted()
		if len(wf) != len(gf) {
			t.Fatalf("frequent set size = %d, want %d", len(gf), len(wf))
		}
		for i := range wf {
			if !wf[i].Equal(gf[i]) {
				t.Fatalf("frequent[%d] = %v, want %v", i, gf[i], wf[i])
			}
			wc, _ := want.Frequent.Count(wf[i])
			gc, _ := got.Frequent.Count(gf[i])
			if wc != gc {
				t.Fatalf("count(%v) = %d, want %d", wf[i], gc, wc)
			}
		}
	}
	ws, gs := want.Stats, got.Stats
	ws.Duration, gs.Duration = 0, 0
	if !reflect.DeepEqual(ws, gs) {
		t.Fatalf("stats diverge:\n got %+v\nwant %+v", gs, ws)
	}
}

// TestResumeEquivalence is the fault-injection matrix of ISSUE 3: for every
// miner flavor, kill or cancel the run at every pass boundary and mid-scan
// point, resume from the surviving checkpoint, and require the final result
// to be identical to an uninterrupted run.
func TestResumeEquivalence(t *testing.T) {
	d, minCount := testData()
	half := d.Len() / 2
	for _, f := range flavors(d, minCount) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			base, err := f.baseline()
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			passes := base.Stats.Passes
			if passes < 3 {
				t.Fatalf("workload finished in %d passes; too shallow to exercise the matrix", passes)
			}
			for pass := 1; pass <= passes; pass++ {
				for fname, fault := range f.faults(pass, half) {
					t.Run(fname+"/pass"+itoa(pass), func(t *testing.T) {
						cp := &checkpoint.MemCheckpointer{}
						ferr := fault(cp)
						if ferr == nil {
							t.Fatalf("fault at pass %d did not trip", pass)
						}
						var pe *mfi.PartialResultError
						if !errors.As(ferr, &pe) {
							t.Fatalf("fault returned %T (%v), want *mfi.PartialResultError", ferr, ferr)
						}
						if pe.Result == nil {
							t.Fatalf("partial result is nil")
						}
						got, rerr := f.resume(cp)
						if rerr != nil {
							t.Fatalf("resume: %v", rerr)
						}
						sameResult(t, base, got)
					})
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestPartialResultIsAnytime checks the anytime contract on the faulted
// runs themselves: the partial MFS is a lower bound (every element is
// contained in some true maximal frequent itemset) and the reported MFCS is
// an upper bound (every true maximal frequent itemset is contained in some
// MFCS element).
func TestPartialResultIsAnytime(t *testing.T) {
	d, minCount := testData()
	base, err := core.MineCount(dataset.NewScanner(d), minCount, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= base.Stats.Passes; pass++ {
		sc := &faultinject.Scanner{Scanner: dataset.NewScanner(d), TripAtScan: pass, AfterTx: d.Len() / 2}
		_, ferr := core.MineCount(sc, minCount, core.DefaultOptions())
		var pe *mfi.PartialResultError
		if !errors.As(ferr, &pe) {
			t.Fatalf("pass %d: got %v, want *mfi.PartialResultError", pass, ferr)
		}
		for _, m := range pe.Result.MFS {
			covered := false
			for _, full := range base.MFS {
				if m.IsSubsetOf(full) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("pass %d: partial MFS element %v not below any true maximal set", pass, m)
			}
		}
		for _, full := range base.MFS {
			covered := false
			for _, u := range pe.MFCS {
				if full.IsSubsetOf(u) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("pass %d: true maximal set %v not covered by the reported MFCS bound %v", pass, full, pe.MFCS)
			}
		}
	}
}
