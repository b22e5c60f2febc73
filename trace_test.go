// End-to-end agreement between the trace event stream and the miners' own
// Stats: for every traced run, the PassDone events must mirror
// Stats.PassDetails entry for entry, and the RunStart/RunDone bracket must
// match the run's inputs and final Stats. This is the acceptance contract
// of the observability layer (obsv package doc, PassEvent doc).
package pincer

import (
	"fmt"
	"testing"

	"pincer/internal/apriori"
	"pincer/internal/core"
	"pincer/internal/dataset"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
	"pincer/internal/parallel"
	"pincer/internal/quest"
	"pincer/internal/topdown"
)

// checkTrace asserts the collected event stream agrees exactly with the
// result's Stats.
func checkTrace(t *testing.T, c *obsv.Collector, res *mfi.Result, wantWorkers int) {
	t.Helper()
	s := res.Stats

	runs := c.Runs()
	if len(runs) != 1 {
		t.Fatalf("RunStart events = %d, want 1", len(runs))
	}
	if runs[0].Algorithm != s.Algorithm || runs[0].MinCount != res.MinCount ||
		runs[0].NumTransactions != res.NumTransactions || runs[0].Workers != wantWorkers {
		t.Errorf("RunInfo = %+v, want algorithm %q minCount %d transactions %d workers %d",
			runs[0], s.Algorithm, res.MinCount, res.NumTransactions, wantWorkers)
	}

	passes := c.Passes()
	if len(passes) != len(s.PassDetails) {
		t.Fatalf("PassDone events = %d, PassDetails = %d", len(passes), len(s.PassDetails))
	}
	for i, ev := range passes {
		pd := s.PassDetails[i]
		if ev.Pass != pd.Pass || ev.Candidates != pd.Candidates ||
			ev.MFCSCandidates != pd.MFCSCandidates || ev.Frequent != pd.Frequent ||
			ev.MFSFound != pd.MFSFound {
			t.Errorf("event %d = %+v does not mirror PassDetails %+v", i, ev, pd)
		}
		if ev.Infrequent != pd.Candidates-pd.Frequent {
			t.Errorf("event %d Infrequent = %d, want %d", i, ev.Infrequent, pd.Candidates-pd.Frequent)
		}
		if ev.Algorithm != s.Algorithm {
			t.Errorf("event %d algorithm %q, want %q", i, ev.Algorithm, s.Algorithm)
		}
		if ev.Phase == "" {
			t.Errorf("event %d has no phase tag", i)
		}
		if ev.Workers != wantWorkers {
			t.Errorf("event %d workers = %d, want %d", i, ev.Workers, wantWorkers)
		}
	}

	sums := c.Summaries()
	if len(sums) != 1 {
		t.Fatalf("RunDone events = %d, want 1", len(sums))
	}
	sum := sums[0]
	if sum.Algorithm != s.Algorithm || sum.Passes != s.Passes ||
		sum.Candidates != s.Candidates || sum.MFSSize != len(res.MFS) ||
		sum.Duration != s.Duration {
		t.Errorf("RunSummary = %+v does not mirror Stats %+v (|MFS|=%d)", sum, s, len(res.MFS))
	}
}

func TestTraceEventsMirrorStats(t *testing.T) {
	workloads := []quest.Params{
		{NumTransactions: 300, AvgTxLen: 5, AvgPatternLen: 2, NumPatterns: 100, NumItems: 60, Seed: 1},
		{NumTransactions: 300, AvgTxLen: 10, AvgPatternLen: 4, NumPatterns: 40, NumItems: 50, Seed: 2},
		{NumTransactions: 300, AvgTxLen: 12, AvgPatternLen: 6, NumPatterns: 15, NumItems: 40, Seed: 3},
	}
	for wi, p := range workloads {
		d := quest.Generate(p)
		t.Run(p.Name(), func(t *testing.T) {
			t.Run("pincer", func(t *testing.T) {
				c := obsv.NewCollector()
				opt := core.DefaultOptions()
				opt.Tracer = c
				res := must(core.Mine(dataset.NewScanner(d), 0.04, opt))
				checkTrace(t, c, res, 1)
			})
			t.Run("apriori", func(t *testing.T) {
				c := obsv.NewCollector()
				opt := apriori.DefaultOptions()
				opt.Tracer = c
				res := must(apriori.Mine(dataset.NewScanner(d), 0.04, opt))
				checkTrace(t, c, res, 1)
			})
			t.Run("parallel-pincer", func(t *testing.T) {
				c := obsv.NewCollector()
				opt := core.DefaultOptions()
				opt.Algorithm = "pincer-parallel"
				opt.Counter = parallel.NewPassCounter(d, 3)
				opt.Tracer = c
				res := must(core.Mine(dataset.NewScanner(d), 0.04, opt))
				checkTrace(t, c, res, 3)
			})
		})
		// The pure top-down miner needs a tiny universe; give it its own
		// concentrated workload per seed.
		small := quest.Generate(quest.Params{
			NumTransactions: 400, AvgTxLen: 10, AvgPatternLen: 6,
			NumPatterns: 5, NumItems: 20, Seed: int64(100 + wi),
		})
		t.Run(fmt.Sprintf("topdown-seed%d", 100+wi), func(t *testing.T) {
			c := obsv.NewCollector()
			opt := topdown.DefaultOptions()
			opt.Tracer = c
			res := must(topdown.Mine(dataset.NewScanner(small), 0.10, opt))
			checkTrace(t, c, &res.Result, 1)
		})
	}
}
