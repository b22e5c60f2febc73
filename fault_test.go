package pincer_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"pincer"
)

func questDB(t *testing.T) *pincer.Dataset {
	t.Helper()
	return pincer.GenerateQuest(pincer.QuestParams{
		NumTransactions: 800, AvgTxLen: 10, AvgPatternLen: 4,
		NumPatterns: 15, NumItems: 30, Seed: 7,
	})
}

func TestMineContextMatchesMine(t *testing.T) {
	d := questDB(t)
	want := pincer.Mine(d, 0.05)
	got, err := pincer.MineContext(context.Background(), d, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MFS) != len(want.MFS) {
		t.Fatalf("MFS size %d, want %d", len(got.MFS), len(want.MFS))
	}
	for i := range want.MFS {
		if !got.MFS[i].Equal(want.MFS[i]) {
			t.Fatalf("MFS[%d] = %v, want %v", i, got.MFS[i], want.MFS[i])
		}
	}
}

func TestMineContextCancelled(t *testing.T) {
	d := questDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must stop at the first boundary
	_, err := pincer.MineContext(ctx, d, 0.05)
	var pe *pincer.PartialResultError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *pincer.PartialResultError", err)
	}
	if pe.Reason != pincer.ReasonCancelled {
		t.Errorf("reason %q, want %q", pe.Reason, pincer.ReasonCancelled)
	}
}

func TestMinePassBudgetAndResume(t *testing.T) {
	d := questDB(t)
	cp := pincer.NewFileCheckpointer(filepath.Join(t.TempDir(), "mine.ckpt"))

	opt := pincer.DefaultPincerOptions()
	opt.Checkpointer = cp
	opt.MaxTotalPasses = 2
	_, err := pincer.MineWithOptionsContext(context.Background(), d, 0.05, opt)
	var pe *pincer.PartialResultError
	if !errors.As(err, &pe) {
		t.Fatalf("budgeted run returned %v, want *pincer.PartialResultError", err)
	}
	if pe.Reason != pincer.ReasonMaxPasses || pe.Pass != 2 {
		t.Fatalf("aborted with reason %q at pass %d, want %q at pass 2", pe.Reason, pe.Pass, pincer.ReasonMaxPasses)
	}

	opt.MaxTotalPasses = 0
	got, err := pincer.MineResume(context.Background(), d, 0.05, opt)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	want := pincer.Mine(d, 0.05)
	if len(got.MFS) != len(want.MFS) {
		t.Fatalf("resumed MFS size %d, want %d", len(got.MFS), len(want.MFS))
	}
	for i := range want.MFS {
		if !got.MFS[i].Equal(want.MFS[i]) {
			t.Fatalf("resumed MFS[%d] = %v, want %v", i, got.MFS[i], want.MFS[i])
		}
	}
	// A completed resume clears the checkpoint.
	if st, err := cp.Load(); err != nil || st != nil {
		t.Fatalf("checkpoint after completed resume = (%v, %v), want (nil, nil)", st, err)
	}
}

func TestMineAprioriParallelContext(t *testing.T) {
	d := questDB(t)
	want := pincer.MineApriori(d, 0.05)
	opt := pincer.DefaultAprioriOptions()
	opt.Counter = pincer.NewParallelCounter(d, 3)
	got, err := pincer.MineAprioriWithOptionsContext(context.Background(), d, 0.05, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MFS) != len(want.MFS) {
		t.Fatalf("MFS size %d, want %d", len(got.MFS), len(want.MFS))
	}
}
