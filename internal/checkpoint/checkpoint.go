// Package checkpoint persists the pass-barrier state of a mining run so an
// interrupted mine can resume instead of restarting. The state is a plain
// snapshot of everything the level-wise loop carries across a pass barrier
// — pass statistics, the frequent sets found so far, the current candidate
// level, and the MFCS with element states and counts — so a resumed run
// replays the exact remaining passes of the uninterrupted one.
//
// Files are written with the temp-file + rename protocol: the encoded state
// goes to a sibling ".tmp" file which is synced and then renamed over the
// target, so a crash mid-write never leaves a truncated checkpoint behind —
// the old checkpoint (or none) survives intact. A checkpoint that is
// nevertheless unreadable decodes to a *CorruptError rather than being
// silently ignored.
//
// FileCheckpointer writes every barrier it is given. PacedCheckpointer,
// which a stream's re-mines use, writes one only when DurableInterval has
// passed since its last write and holds the newest barrier in memory until
// then or until its Flush; core reports each barrier it offers as written
// or deferred (Offer).
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"pincer/internal/itemset"
	"pincer/internal/mfi"
)

// Version is the checkpoint format version written by this build. Load
// rejects other versions instead of guessing at field meanings.
const Version = 1

// MFCSElement is one element of the persisted MFCS frontier: its itemset,
// classification state, last support count, and whether it was already
// harvested into the MFS.
type MFCSElement struct {
	Set       itemset.Itemset
	State     uint8
	Count     int64
	Harvested bool
}

// TriangleState is the persisted pass-2 pair-count triangle. The support
// resolver answers 2-itemset lookups from it, so it must survive a restart
// for MFCS classification to replay identically.
type TriangleState struct {
	Universe int
	Live     []itemset.Item
	Counts   []int64
}

// State is everything a miner saves at a pass barrier. It is deliberately
// a dumb data bag — no behaviour — so it can be gob-encoded and inspected.
type State struct {
	Version int

	// Identity of the run; MineResume validates these against its own
	// arguments so a checkpoint is never applied to a different database
	// or support threshold.
	Algorithm       string
	MinCount        int64
	NumTransactions int64
	NumItems        int
	// Batch is the stream batch whose re-mine wrote the state (ForBatch);
	// 0 for every other run, and in states that older builds wrote.
	Batch int64

	// Stage names the phase to re-enter ("pass2", "levelwise", "tail") and
	// K/Tail position the level-wise and tail loops inside it.
	Stage string
	K     int
	Tail  int

	// Level-wise loop state.
	Lk         []itemset.Itemset // current frequent level L_k
	RemovedAny bool              // some of L_k was filtered by the MFS
	Abandoned  bool              // adaptive mode dropped the MFCS

	// Discovered-so-far state.
	MFS         []itemset.Itemset // maximal frequent itemsets harvested so far
	AllFrequent []itemset.Itemset // every frequent itemset counted (k ≥ 3)
	Cache       map[string]int64  // support cache keyed by Itemset.Key
	ItemCounts  []int64           // pass-1 singleton counts
	Pairs       *TriangleState    // pass-2 pair counts (nil before pass 2)

	// Top-down frontier.
	MFCS []MFCSElement

	Stats mfi.Stats
}

// Checkpointer persists and recalls mining state at pass barriers. Save
// replaces any previous checkpoint atomically; Load returns (nil, nil)
// when no checkpoint exists; Clear removes the checkpoint (called after a
// successful run so a later resume starts fresh).
type Checkpointer interface {
	Save(st *State) error
	Load() (*State, error)
	Clear() error
}

// CorruptError reports a checkpoint that exists but cannot be decoded —
// e.g. truncated by a crash of a writer not using the rename protocol, or
// written by an incompatible build.
type CorruptError struct {
	Path string
	Err  error
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint %s is corrupt: %v", e.Path, e.Err)
}

// Unwrap exposes the decoding error.
func (e *CorruptError) Unwrap() error { return e.Err }

// MismatchError reports a checkpoint whose identity does not match the
// resume call — a different database, support threshold, or algorithm.
type MismatchError struct {
	Field string
	Want  string
	Got   string
}

// Error implements error.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint does not match this run: %s is %s, checkpoint has %s", e.Field, e.Want, e.Got)
}

// ForBatch binds cp to the re-mine of one stream batch: Save stamps the
// batch into the state, and Load reports a state stamped for another batch
// as a *MismatchError. Consecutive full windows of a stream share every
// other identity field, so without the stamp a journal replay would resume
// the checkpoint of whichever batch's re-mine was interrupted last. An
// unstamped state (Batch 0) still loads, so a checkpoint written by an
// older build resumes.
func ForBatch(cp Checkpointer, batch int64) Checkpointer {
	return batchCheckpointer{cp: cp, batch: batch}
}

type batchCheckpointer struct {
	cp    Checkpointer
	batch int64
}

func (b batchCheckpointer) stamp(st *State) *State {
	c := *st
	c.Batch = b.batch
	return &c
}

func (b batchCheckpointer) Save(st *State) error { return b.cp.Save(b.stamp(st)) }

func (b batchCheckpointer) offer(st *State) (bool, error) { return Offer(b.cp, b.stamp(st)) }

func (b batchCheckpointer) Load() (*State, error) {
	st, err := b.cp.Load()
	if err != nil || st == nil || st.Batch == 0 || st.Batch == b.batch {
		return st, err
	}
	return nil, &MismatchError{Field: "batch", Want: fmt.Sprint(b.batch), Got: fmt.Sprint(st.Batch)}
}

func (b batchCheckpointer) Clear() error { return b.cp.Clear() }

// FileCheckpointer stores the state gob-encoded in a single file, written
// via temp-file + rename so readers never observe a partial write.
type FileCheckpointer struct {
	path string
}

// NewFileCheckpointer builds a checkpointer backed by path. The file is
// created on the first Save.
func NewFileCheckpointer(path string) *FileCheckpointer {
	return &FileCheckpointer{path: path}
}

// Path returns the checkpoint file path.
func (f *FileCheckpointer) Path() string { return f.path }

// Save atomically replaces the checkpoint file with the encoded state.
func (f *FileCheckpointer) Save(st *State) error {
	raw, err := encode(st)
	if err != nil {
		return err
	}
	return f.write(raw)
}

// write atomically replaces the checkpoint file with an encoded state.
func (f *FileCheckpointer) write(raw []byte) error {
	if err := WriteFile(f.path, raw); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load decodes the checkpoint file; (nil, nil) when none exists.
func (f *FileCheckpointer) Load() (*State, error) {
	file, err := os.Open(f.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer file.Close()
	var st State
	if err := gob.NewDecoder(file).Decode(&st); err != nil {
		return nil, &CorruptError{Path: f.path, Err: err}
	}
	if st.Version != Version {
		return nil, &CorruptError{Path: f.path, Err: fmt.Errorf("format version %d, this build reads %d", st.Version, Version)}
	}
	return &st, nil
}

// Clear removes the checkpoint file; missing is not an error.
func (f *FileCheckpointer) Clear() error {
	err := os.Remove(f.path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// WriteFile replaces path with data by the atomic protocol: the bytes go
// to a sibling temp file, which is synced and then renamed over path, so a
// crash mid-write leaves the previous file (or none) intact. Its errors
// come unwrapped from package os, which names the file.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// encode gob-encodes one state, as Save writes it.
func encode(st *State) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// MemCheckpointer keeps the checkpoint in memory, gob-round-tripped on
// every Save/Load so the stored state shares no slices or maps with the
// live miner — the same isolation a file gives, without the disk. Used by
// the fault-injection tests.
type MemCheckpointer struct {
	data  []byte
	Saves int
}

// Save encodes the state into the in-memory buffer.
func (m *MemCheckpointer) Save(st *State) error {
	raw, err := encode(st)
	if err != nil {
		return err
	}
	m.data = raw
	m.Saves++
	return nil
}

// Load decodes the buffered state; (nil, nil) when empty.
func (m *MemCheckpointer) Load() (*State, error) {
	if m.data == nil {
		return nil, nil
	}
	var st State
	if err := gob.NewDecoder(bytes.NewReader(m.data)).Decode(&st); err != nil {
		return nil, &CorruptError{Path: "(memory)", Err: err}
	}
	return &st, nil
}

// Clear drops the buffered state.
func (m *MemCheckpointer) Clear() error {
	m.data = nil
	return nil
}
