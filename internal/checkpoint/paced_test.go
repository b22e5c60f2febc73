package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// fakeClock is a settable clock for PacedCheckpointer.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestPaced(t *testing.T) (*PacedCheckpointer, *fakeClock, string) {
	t.Helper()
	clock := &fakeClock{t: time.Unix(1000, 0)}
	path := filepath.Join(t.TempDir(), "mine.ckpt")
	return newPaced(path, clock.now), clock, path
}

func fileExists(t *testing.T, path string) bool {
	t.Helper()
	_, err := os.Stat(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return err == nil
}

// TestPacedDueBarrierWritesFileBytes: a barrier offered once the interval
// has run out is written at once, byte for byte as FileCheckpointer writes
// it.
func TestPacedDueBarrierWritesFileBytes(t *testing.T) {
	p, clock, path := newTestPaced(t)
	clock.advance(DurableInterval)
	written, err := Offer(p, sampleState())
	if err != nil || !written {
		t.Fatalf("Offer of a due barrier = (%v, %v), want (true, nil)", written, err)
	}
	ref := filepath.Join(t.TempDir(), "ref.ckpt")
	if err := NewFileCheckpointer(ref).Save(sampleState()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("paced write differs from FileCheckpointer's: %d bytes, want %d", len(got), len(want))
	}
}

// TestPacedBarrierInsideIntervalWritesNoFile: barriers offered inside the
// interval, counted from construction and again from each Load, stay in
// memory.
func TestPacedBarrierInsideIntervalWritesNoFile(t *testing.T) {
	p, clock, path := newTestPaced(t)
	clock.advance(DurableInterval - time.Millisecond)
	if written, err := Offer(p, sampleState()); err != nil || written {
		t.Fatalf("Offer inside the interval = (%v, %v), want (false, nil)", written, err)
	}
	if fileExists(t, path) {
		t.Fatal("a barrier inside the interval reached the file")
	}
	// Load restarts the interval: a barrier 1.5 intervals after
	// construction but half of one after Load is still held.
	if _, err := p.Load(); err != nil {
		t.Fatal(err)
	}
	clock.advance(DurableInterval / 2)
	if err := p.Save(sampleState()); err != nil {
		t.Fatal(err)
	}
	if fileExists(t, path) {
		t.Fatal("a barrier inside the interval restarted by Load reached the file")
	}
	// Once the interval has run out, the next barrier goes to disk, and
	// the interval restarts from that write.
	clock.advance(DurableInterval / 2)
	if written, err := Offer(p, sampleState()); err != nil || !written {
		t.Fatalf("Offer of a due barrier = (%v, %v), want (true, nil)", written, err)
	}
	if written, err := Offer(p, sampleState()); err != nil || written {
		t.Fatalf("Offer right after a write = (%v, %v), want (false, nil)", written, err)
	}
}

// TestPacedFlushWritesHeldBarrier: Flush writes the newest held barrier,
// which Load then returns.
func TestPacedFlushWritesHeldBarrier(t *testing.T) {
	p, _, path := newTestPaced(t)
	if err := p.Flush(); err != nil || fileExists(t, path) {
		t.Fatalf("Flush with nothing held: err %v, file written %v", err, fileExists(t, path))
	}
	first, last := sampleState(), sampleState()
	first.Stage, last.Stage, last.K = "pass2", "tail", 4
	for _, st := range []*State{first, last} {
		if err := p.Save(st); err != nil {
			t.Fatal(err)
		}
	}
	if fileExists(t, path) {
		t.Fatal("barriers inside the interval reached the file before Flush")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := p.Load(); err != nil || !reflect.DeepEqual(got, last) {
		t.Fatalf("Load after Flush = (%+v, %v), want the last barrier saved", got, err)
	}
}

// TestPacedClearDropsHeldAndFile: Clear removes the written checkpoint and
// forgets the held one, so a later Flush writes nothing.
func TestPacedClearDropsHeldAndFile(t *testing.T) {
	p, clock, path := newTestPaced(t)
	clock.advance(DurableInterval)
	if err := p.Save(sampleState()); err != nil { // written
		t.Fatal(err)
	}
	if err := p.Save(sampleState()); err != nil { // held
		t.Fatal(err)
	}
	if err := p.Clear(); err != nil {
		t.Fatal(err)
	}
	if fileExists(t, path) {
		t.Fatal("Clear left the checkpoint file")
	}
	if err := p.Flush(); err != nil || fileExists(t, path) {
		t.Fatalf("Flush after Clear: err %v, file written %v", err, fileExists(t, path))
	}
	if st, err := p.Load(); st != nil || err != nil {
		t.Fatalf("Load after Clear = (%v, %v), want (nil, nil)", st, err)
	}
}

// TestPacedFailedWrite: a due barrier whose write fails reports the error,
// and stays held for a later Flush.
func TestPacedFailedWrite(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	p := newPaced(filepath.Join(t.TempDir(), "missing", "mine.ckpt"), clock.now)
	clock.advance(DurableInterval)
	if written, err := Offer(p, sampleState()); err == nil || written {
		t.Fatalf("Offer into a missing directory = (%v, %v), want an error", written, err)
	}
	if err := p.Flush(); err == nil {
		t.Fatal("Flush into a missing directory reported success")
	}
}

// TestForBatch: a bound checkpointer stamps its batch into every state it
// saves, refuses another batch's state, and accepts an unstamped one, as
// older builds wrote.
func TestForBatch(t *testing.T) {
	mem := &MemCheckpointer{}
	if err := ForBatch(mem, 24).Save(sampleState()); err != nil {
		t.Fatal(err)
	}
	if st, err := ForBatch(mem, 24).Load(); err != nil || st == nil || st.Batch != 24 {
		t.Fatalf("own batch Load = (%+v, %v), want the state stamped 24", st, err)
	}
	st, err := ForBatch(mem, 1).Load()
	var me *MismatchError
	if st != nil || !errors.As(err, &me) || me.Field != "batch" {
		t.Fatalf("other batch Load = (%v, %v), want a batch *MismatchError", st, err)
	}
	if err := mem.Save(sampleState()); err != nil {
		t.Fatal(err)
	}
	if st, err := ForBatch(mem, 1).Load(); err != nil || st == nil {
		t.Fatalf("unstamped Load = (%v, %v), want the state", st, err)
	}
	// Offer sees through the binding to a paced checkpointer.
	p, clock, _ := newTestPaced(t)
	if written, err := Offer(ForBatch(p, 3), sampleState()); err != nil || written {
		t.Fatalf("Offer through ForBatch inside the interval = (%v, %v), want (false, nil)", written, err)
	}
	clock.advance(DurableInterval)
	if written, err := Offer(ForBatch(p, 3), sampleState()); err != nil || !written {
		t.Fatalf("Offer through ForBatch once due = (%v, %v), want (true, nil)", written, err)
	}
	if st, err := p.Load(); err != nil || st.Batch != 3 {
		t.Fatalf("paced Load = (%+v, %v), want the state stamped 3", st, err)
	}
}
