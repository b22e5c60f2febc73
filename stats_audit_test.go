// Audit of the Stats invariants every miner must maintain: Duration is
// stamped on the way out, Passes equals the number of PassDetails entries,
// and the algorithm is named. The observability layer leans on these —
// trace events mirror PassDetails one-to-one — so they are pinned here
// across every pass-structured miner.
package pincer

import (
	"testing"

	"pincer/internal/ais"
	"pincer/internal/apriori"
	"pincer/internal/core"
	"pincer/internal/dataset"
	"pincer/internal/mfi"
	"pincer/internal/parallel"
	"pincer/internal/quest"
	"pincer/internal/topdown"
)

func TestStatsAuditAcrossMiners(t *testing.T) {
	d := quest.Generate(quest.Params{
		NumTransactions: 300, AvgTxLen: 8, AvgPatternLen: 4,
		NumPatterns: 20, NumItems: 40, Seed: 11,
	})
	// The pure top-down miner needs a tiny universe to stay tractable.
	small := quest.Generate(quest.Params{
		NumTransactions: 500, AvgTxLen: 10, AvgPatternLen: 6,
		NumPatterns: 5, NumItems: 24, Seed: 3,
	})

	cases := []struct {
		name string
		run  func() mfi.Stats
	}{
		{"pincer", func() mfi.Stats {
			return must(core.Mine(dataset.NewScanner(d), 0.05, core.DefaultOptions())).Stats
		}},
		{"apriori", func() mfi.Stats {
			return must(apriori.Mine(dataset.NewScanner(d), 0.05, apriori.DefaultOptions())).Stats
		}},
		{"ais", func() mfi.Stats {
			return must(ais.Mine(dataset.NewScanner(d), 0.05, ais.DefaultOptions())).Stats
		}},
		{"topdown", func() mfi.Stats {
			return must(topdown.Mine(dataset.NewScanner(small), 0.10, topdown.DefaultOptions())).Stats
		}},
		{"parallel-pincer", func() mfi.Stats {
			opt := core.DefaultOptions()
			opt.Algorithm = "pincer-parallel"
			opt.Counter = parallel.NewPassCounter(d, 4)
			return must(core.Mine(dataset.NewScanner(d), 0.05, opt)).Stats
		}},
		{"parallel-apriori", func() mfi.Stats {
			opt := apriori.DefaultOptions()
			opt.Counter = parallel.NewPassCounter(d, 4)
			return must(apriori.Mine(dataset.NewScanner(d), 0.05, opt)).Stats
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.run()
			if s.Duration <= 0 {
				t.Errorf("Stats.Duration = %v, want > 0", s.Duration)
			}
			if s.Passes != len(s.PassDetails) {
				t.Errorf("Stats.Passes = %d but len(PassDetails) = %d", s.Passes, len(s.PassDetails))
			}
			if s.Algorithm == "" {
				t.Error("Stats.Algorithm is empty")
			}
			for i, p := range s.PassDetails {
				if p.Pass != i+1 {
					t.Errorf("PassDetails[%d].Pass = %d, want %d", i, p.Pass, i+1)
				}
			}
		})
	}
}
