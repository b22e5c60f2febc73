package checkpoint_test

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"pincer/internal/checkpoint"
	"pincer/internal/incremental"
	"pincer/internal/mfi"
	"pincer/internal/quest"
)

// TestPacedFailedWriteAbortsRemine: when a due barrier cannot be written,
// the re-mine aborts with ReasonCheckpoint instead of mining on undurably.
func TestPacedFailedWriteAbortsRemine(t *testing.T) {
	// Every reading of this clock is one interval past the last, so every
	// barrier is due.
	clock := time.Unix(1000, 0)
	now := func() time.Time {
		clock = clock.Add(checkpoint.DurableInterval)
		return clock
	}
	cp := checkpoint.NewPacedCheckpointerClock(filepath.Join(t.TempDir(), "missing", "mine.ckpt"), now)
	m, err := incremental.New(incremental.Options{MinSupport: 0.08, MineCheckpointer: cp})
	if err != nil {
		t.Fatal(err)
	}
	d := quest.Generate(quest.Params{NumTransactions: 240, AvgTxLen: 10,
		AvgPatternLen: 5, NumPatterns: 10, NumItems: 30, Seed: 5})
	_, err = m.Append(d.Transactions())
	var pe *mfi.PartialResultError
	if !errors.As(err, &pe) || pe.Reason != mfi.ReasonCheckpoint {
		t.Fatalf("re-mine with an unwritable checkpoint: err %v, want reason %q", err, mfi.ReasonCheckpoint)
	}
	if m.Seq() != 0 {
		t.Fatalf("failed re-mine committed batch %d", m.Seq())
	}
}
