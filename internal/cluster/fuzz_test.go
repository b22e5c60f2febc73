package cluster_test

// FuzzClusterMessage throws arbitrary bytes at a worker's wire endpoints:
// the contract is that a worker never panics, answers 200 only for a
// well-formed, semantically valid message, and answers every rejection as a
// typed JSON error document with a machine-readable reason — the same
// contract FuzzJobRequest pins for the public server API. A count the
// worker accepts, of any kind, must also be idempotent: a second delivery
// is answered from the memo, flagged, and otherwise byte-identical.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pincer/internal/cluster"
)

func FuzzClusterMessage(f *testing.F) {
	shard := "1 2 3\n2 3\n"
	id := cluster.ShardID(8, []byte(shard))

	// Seeds: valid load and count messages on each route, then one per
	// rejection class the decoders must map to a typed error.
	f.Add("/cluster/v1/shards", []byte(fmt.Sprintf(`{"shard_id":%q,"num_items":8,"baskets":%q}`, id, shard)))
	f.Add("/cluster/v1/shards", []byte(fmt.Sprintf(`{"shard_id":%q,"num_items":8,"baskets":"tampered"}`, id)))
	f.Add("/cluster/v1/shards", []byte(`{"shard_id":"short","num_items":8,"baskets":""}`))
	f.Add("/cluster/v1/shards", []byte(`{"shard_id":"ZZ","num_items":-1}`))
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"j","pass":1,"kind":"items","shard_id":%q,"num_items":8}`, id)))
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"j","pass":2,"kind":"pairs","shard_id":%q,"num_items":8,"live":[1,2,3]}`, id)))
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"j","pass":3,"kind":"candidates","shard_id":%q,"num_items":8,"engine":"trie","candidates":[[1,2,3]]}`, id)))
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"j","pass":1,"kind":"items","shard_id":%q,"num_items":8,"elems":[[1,2]]}`, id)))
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"j","pass":1,"kind":"nope","shard_id":%q,"num_items":8}`, id)))
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"j","pass":1,"kind":"items","shard_id":%q,"num_items":8,"live":[1]}`, id)))
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"j","pass":1,"kind":"items","shard_id":%q,"num_items":8,"candidates":[[1]]}`, id)))
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"j","pass":3,"kind":"candidates","shard_id":%q,"num_items":8,"engine":"quantum","candidates":[[1]]}`, id)))
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"j","pass":2,"kind":"pairs","shard_id":%q,"num_items":8,"live":[3,2,1]}`, id)))
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"j","pass":2,"kind":"pairs","shard_id":%q,"num_items":4,"live":[1,9]}`, id)))
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"j","pass":-1,"kind":"items","shard_id":%q,"num_items":8}`, id)))
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"j","pass":1,"kind":"items","shard_id":%q,"num_items":99999999}`, id)))
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"j","pass":1,"kind":"items","shard_id":%q,"num_items":8,"bogus":1}`, id)))
	f.Add("/cluster/v1/count", []byte(`{not json`))
	f.Add("/cluster/v1/count", []byte(``))
	f.Add("/cluster/v1/count", []byte(`null`))
	f.Add("/cluster/v1/count", []byte(`{"job_id":"j"} trailing`))
	f.Add("/cluster/v1/other", []byte(`{}`))
	// The sets kind (stream delta counts): a valid count, so the memo
	// contract below runs for it too. Its rejection classes are the seeds
	// of FuzzStreamClusterMessage.
	f.Add("/cluster/v1/count", []byte(fmt.Sprintf(`{"job_id":"s.b1.append","pass":1,"kind":"sets","shard_id":%q,"num_items":8,"elems":[[2],[2,3],[1,2,3]]}`, id)))

	w := cluster.NewWorker(cluster.WorkerConfig{ID: "fuzz", MaxBodyBytes: 1 << 20})
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "http://worker/"+strings.TrimLeft(path, "/"), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		w.ServeHTTP(rec, req) // must not panic, whatever the bytes
		return rec
	}
	// Pre-load the shard the count seeds reference, so they reach the
	// counting path and, through it, the memo.
	if rec := post("/cluster/v1/shards", []byte(fmt.Sprintf(`{"shard_id":%q,"num_items":8,"baskets":%q}`, id, shard))); rec.Code != http.StatusOK {
		f.Fatalf("shard preload failed: %d %s", rec.Code, rec.Body.String())
	}

	f.Fuzz(func(t *testing.T, path string, body []byte) {
		path = sanitizePath(path)
		rec := post(path, body)
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
		if strings.TrimLeft(path, "/") != "cluster/v1/count" {
			return
		}
		rec2 := post(path, body)
		if rec2.Code != http.StatusOK {
			t.Fatalf("duplicate delivery rejected: %d %s", rec2.Code, rec2.Body.String())
		}
		var first, second cluster.CountResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil {
			t.Fatalf("200 response is not a CountResponse (%v): %q", err, rec.Body.String())
		}
		if err := json.Unmarshal(rec2.Body.Bytes(), &second); err != nil {
			t.Fatalf("duplicate 200 is not a CountResponse (%v): %q", err, rec2.Body.String())
		}
		if !second.Memoized {
			t.Fatalf("duplicate delivery was recounted, not memoized: %s", rec2.Body.String())
		}
		// An earlier input may already have memoized this count.
		first.Memoized, second.Memoized = false, false
		a, _ := json.Marshal(first)
		b, _ := json.Marshal(second)
		if !bytes.Equal(a, b) {
			t.Fatalf("memoized reply diverges:\n%s\nvs\n%s", a, b)
		}
	})
}

// sanitizePath keeps fuzzed paths legal for http.NewRequest while leaving
// the router's behavior fully exercised.
func sanitizePath(p string) string {
	clean := make([]byte, 0, len(p))
	for i := 0; i < len(p); i++ {
		c := p[i]
		if c > ' ' && c < 0x7f && c != '#' && c != '?' && c != '%' {
			clean = append(clean, c)
		}
	}
	return string(clean)
}
