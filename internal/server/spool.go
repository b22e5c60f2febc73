package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pincer/internal/checkpoint"
	"pincer/internal/dataset"
)

// The spool directory is the daemon's durability root. Each job owns up to
// four files, all named by its id:
//
//	<id>.job          the submitted spec (written before the job is queued)
//	<id>.ckpt         the miner's pass-barrier checkpoint (checkpointable miners)
//	<id>.trace.jsonl  per-pass trace events (JSON lines)
//	<id>.result       the terminal record: status, error, result document
//
// A job with a .job file and no .result file did not reach a terminal
// state — the daemon died (or was SIGINT-aborted) while it was queued or
// running — and is re-enqueued on the next start; its surviving .ckpt lets
// the miner re-enter at the last pass barrier instead of pass 1. Records
// are written with the same temp-file + rename protocol as checkpoints, so
// a crash never leaves a half-written record that would mask a resumable
// job.

// jobFile is the persisted submission.
type jobFile struct {
	ID   string     `json:"id"`
	Key  string     `json:"cache_key"`
	Spec JobRequest `json:"spec"`
}

// resultRecord is the persisted terminal state.
type resultRecord struct {
	ID     string     `json:"id"`
	Status string     `json:"status"`
	Error  string     `json:"error,omitempty"`
	Doc    *ResultDoc `json:"result,omitempty"`
}

// spool wraps the directory with typed accessors.
type spool struct {
	dir string
}

func (s spool) jobPath(id string) string        { return filepath.Join(s.dir, id+".job") }
func (s spool) checkpointPath(id string) string { return filepath.Join(s.dir, id+".ckpt") }
func (s spool) tracePath(id string) string      { return filepath.Join(s.dir, id+".trace.jsonl") }
func (s spool) resultPath(id string) string     { return filepath.Join(s.dir, id+".result") }

// writeAtomic persists a value as JSON via temp-file + rename.
func (s spool) writeAtomic(path string, v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("server: encode %s: %w", filepath.Base(path), err)
	}
	return s.writeAtomicBytes(path, data)
}

// writeAtomicBytes persists raw bytes via temp-file + rename, the
// checkpoint package's protocol.
func (s spool) writeAtomicBytes(path string, data []byte) error {
	if err := checkpoint.WriteFile(path, data); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// saveJob persists the submission.
func (s spool) saveJob(j *Job) error {
	return s.writeAtomic(s.jobPath(j.ID), jobFile{ID: j.ID, Key: j.Key, Spec: j.Spec})
}

// saveResult persists a terminal record.
func (s spool) saveResult(j *Job, status, errMsg string, doc *ResultDoc) error {
	return s.writeAtomic(s.resultPath(j.ID), resultRecord{ID: j.ID, Status: status, Error: errMsg, Doc: doc})
}

// dropJob removes a submission that never entered the queue (429).
func (s spool) dropJob(id string) {
	os.Remove(s.jobPath(id))
}

// scan enumerates the spool: every persisted job, each paired with its
// terminal record when one exists. IDs come back sorted so restart order is
// deterministic.
func (s spool) scan() (jobs []jobFile, records map[string]*resultRecord, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("server: scan spool: %w", err)
	}
	records = map[string]*resultRecord{}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".job"):
			data, err := os.ReadFile(filepath.Join(s.dir, name))
			if err != nil {
				return nil, nil, fmt.Errorf("server: scan spool: %w", err)
			}
			var jf jobFile
			if err := json.Unmarshal(data, &jf); err != nil || jf.ID == "" {
				continue // foreign or corrupt file: skip, never crash the daemon
			}
			jobs = append(jobs, jf)
		case strings.HasSuffix(name, ".result"):
			data, err := os.ReadFile(filepath.Join(s.dir, name))
			if err != nil {
				return nil, nil, fmt.Errorf("server: scan spool: %w", err)
			}
			var rec resultRecord
			if err := json.Unmarshal(data, &rec); err != nil || rec.ID == "" {
				continue
			}
			records[rec.ID] = &rec
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	return jobs, records, nil
}

// loadDatasetBytes materializes the job's database bytes — the inline
// basket text, or the referenced file read whole (the bytes are also what
// the cache key hashes, so a file swapped in place yields a new key).
func loadDatasetBytes(spec JobRequest) ([]byte, error) {
	if spec.Baskets != "" {
		return []byte(spec.Baskets), nil
	}
	data, err := os.ReadFile(spec.DatasetPath)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return data, nil
}

// parseDataset decodes database bytes, sniffing the library's binary magic
// and falling back to the basket text format — the same convention as
// dataset.Load, over bytes already in hand.
func parseDataset(data []byte) (*dataset.Dataset, error) {
	if len(data) >= 5 && string(data[:4]) == "PNCR" {
		return dataset.ReadBinary(bytes.NewReader(data))
	}
	return dataset.ReadBasket(bytes.NewReader(data))
}
