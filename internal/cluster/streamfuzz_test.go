package cluster_test

// FuzzStreamClusterMessage throws arbitrary bytes at a worker's count
// endpoint, seeded with the sets kind that stream delta counts ride on:
// the worker must never panic, answer 200 only for well-formed,
// semantically valid messages over a loaded shard, reject everything else
// as a typed JSON error document — and answer a duplicate delivery of any
// accepted message idempotently from its memo, with the same support
// vector it sent the first time.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"pincer/internal/cluster"
)

func FuzzStreamClusterMessage(f *testing.F) {
	shard := "1 2 3\n2 3\n0 2\n"
	id := cluster.ShardID(8, []byte(shard))
	sets := func(jobID string, pass, numItems int, elems string) []byte {
		return []byte(fmt.Sprintf(`{"job_id":%q,"pass":%d,"kind":"sets","shard_id":%q,"num_items":%d,"elems":%s}`,
			jobID, pass, id, numItems, elems))
	}

	// Seeds: a valid count on every side of a batch, then one per
	// rejection class — fields of the pass kinds, unknown shard, universe
	// mismatch, malformed sets, and byte-level garbage.
	f.Add(sets("s.b1.append", 1, 8, `[[2],[2,3]]`))
	f.Add(sets("s.b2.evict", 2, 8, `[[0]]`))
	f.Add(sets("s.b3.border", 3, 8, `[[1,2,3]]`))
	f.Add([]byte(fmt.Sprintf(`{"job_id":"s.b1.append","pass":1,"kind":"sets","shard_id":%q,"num_items":8,"elems":[[1]],"live":[1]}`, id)))
	f.Add(sets("s.b1.append", -1, 8, `[[1]]`))
	f.Add([]byte(fmt.Sprintf(`{"job_id":"s.b1.append","pass":1,"kind":"sets","shard_id":%q,"num_items":8,"elems":[[1]],"candidates":[[1]]}`, id)))
	f.Add([]byte(`{"job_id":"s.b1.append","pass":1,"kind":"sets","shard_id":"ZZ","num_items":8,"elems":[[1]]}`))
	f.Add(sets("s.b1.append", 1, 4, `[[1]]`))
	f.Add(sets("s.b1.append", 1, 99999999, `[[1]]`))
	f.Add(sets("s.b1.append", 1, 8, `[]`))
	f.Add(sets("s.b1.append", 1, 8, `[[]]`))
	f.Add(sets("s.b1.append", 1, 8, `[[3,2]]`))
	f.Add(sets("s.b1.append", 1, 8, `[[1,1]]`))
	f.Add(sets("s.b1.append", 1, 8, `[[9]]`))
	f.Add([]byte(fmt.Sprintf(`{"job_id":"s.b1.append","pass":1,"kind":"sets","shard_id":%q,"num_items":8,"elems":[[1]],"bogus":1}`, id)))
	f.Add([]byte(`{not json`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"job_id":"s.b1.append"} trailing`))
	f.Add([]byte(fmt.Sprintf(`{"job_id":"s.b1.append","pass":1,"kind":"sets","shard_id":%q,"num_items":8,"elems":[[1]],"engine":"trie"}`, id)))

	w := cluster.NewWorker(cluster.WorkerConfig{ID: "fuzz", MaxBodyBytes: 1 << 20})

	// Pre-load the shard the valid seeds reference so the fuzzer can reach
	// the 200 path (and, through it, the memo idempotency contract).
	load := httptest.NewRequest(http.MethodPost, "http://worker/cluster/v1/shards",
		bytes.NewReader([]byte(fmt.Sprintf(`{"shard_id":%q,"num_items":8,"baskets":%q}`, id, shard))))
	loadRec := httptest.NewRecorder()
	w.ServeHTTP(loadRec, load)
	if loadRec.Code != http.StatusOK {
		f.Fatalf("shard preload failed: %d %s", loadRec.Code, loadRec.Body.String())
	}

	post := func(body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "http://worker/cluster/v1/count", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		w.ServeHTTP(rec, req) // must not panic, whatever the bytes
		return rec
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(body)
		if rec.Code != http.StatusOK {
			var e struct {
				Error  string `json:"error"`
				Reason string `json:"reason"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("%d response is not the error JSON shape (%v): %q", rec.Code, err, rec.Body.String())
			}
			if e.Reason == "" {
				t.Fatalf("%d response lacks typed reason: %q", rec.Code, rec.Body.String())
			}
			return
		}

		var first cluster.CountResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil {
			t.Fatalf("200 response is not a CountResponse (%v): %q", err, rec.Body.String())
		}

		// Duplicate delivery: the retry must also succeed, be flagged as
		// memoized, and carry the identical support vector.
		rec2 := post(body)
		if rec2.Code != http.StatusOK {
			t.Fatalf("duplicate delivery rejected: %d %s", rec2.Code, rec2.Body.String())
		}
		var second cluster.CountResponse
		if err := json.Unmarshal(rec2.Body.Bytes(), &second); err != nil {
			t.Fatalf("duplicate 200 is not a CountResponse (%v): %q", err, rec2.Body.String())
		}
		if !second.Memoized {
			t.Fatalf("duplicate delivery was recounted, not memoized: %+v", second)
		}
		if len(second.ElemCounts) != len(first.ElemCounts) {
			t.Fatalf("memoized reply length %d != original %d", len(second.ElemCounts), len(first.ElemCounts))
		}
		for i := range first.ElemCounts {
			if first.ElemCounts[i] != second.ElemCounts[i] {
				t.Fatalf("memoized reply diverges at %d: %d != %d", i, second.ElemCounts[i], first.ElemCounts[i])
			}
		}
	})
}
