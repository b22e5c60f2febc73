// Package cluster distributes the per-pass support counting of a mining
// run across worker processes holding horizontal dataset shards — the
// count-distribution scheme of Agrawal & Shafer mapped onto the
// core.PassCounter seam. A Coordinator implements PassCounter by fanning
// each pass's candidate set out to the workers of a Pool and merging their
// count vectors at the pass barrier; counts are additive over disjoint
// horizontal partitions, so the merged result is byte-identical to a
// single sequential scan.
//
// The package is built for node loss. Workers are monitored by heartbeats
// with a liveness deadline; every RPC has a timeout and is retried with
// capped, jittered exponential backoff; requests are pass-stamped and
// workers memoize their replies, so a retried RPC whose first attempt
// actually completed is answered from the memo and detected as a duplicate
// rather than double-merged. Shards are content-addressed by the SHA-256
// of their declared item universe and basket encoding (see ShardID), so
// when a worker dies its shards are re-pushed
// to any surviving worker at the next pass barrier; a shard no live worker
// can serve is counted locally by the coordinator with the same counting
// procedure, and when the cluster drops below a configured quorum the
// coordinator degrades to local counting entirely and still finishes the
// job, recording the degradation instead of failing. A StreamCoordinator
// runs an incremental stream's delta counts through the same fan-out, as
// count requests of kind "sets".
//
// Everything speaks HTTP/JSON over the standard library.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"pincer/internal/counting"
	"pincer/internal/itemset"
)

// ShardID content-addresses a shard: the SHA-256 of its declared item
// universe and its basket encoding. The universe is part of the identity
// because two shards with identical transactions but different declared
// universes produce count vectors of different widths — under a bytes-only
// address, a cached narrow-universe shard would poison every request from
// the wider universe (streams hit this constantly: small delta shards and
// re-mine window shards often share basket bytes).
func ShardID(numItems int, baskets []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "u%d\n", numItems)
	h.Write(baskets)
	return hex.EncodeToString(h.Sum(nil))
}

// Machine-readable reasons carried by wire-level error documents, in the
// style of the server's ValidationError reasons: clients (and the fuzz
// harness) branch on the reason without parsing prose.
const (
	// ReasonBadJSON rejects a body that is not well-formed JSON for the
	// expected message shape.
	ReasonBadJSON = "bad_json"
	// ReasonBadMessage rejects a well-formed message that violates a
	// semantic invariant (unknown kind, unsorted itemset, item out of
	// universe, wrong universe size, ...).
	ReasonBadMessage = "bad_message"
	// ReasonUnknownShard rejects a count request for a shard this worker
	// does not hold; the coordinator responds by re-pushing the shard.
	ReasonUnknownShard = "unknown_shard"
	// ReasonShardMismatch rejects a shard push whose bytes do not hash to
	// the claimed content address.
	ReasonShardMismatch = "shard_mismatch"
	// ReasonBadRoute rejects an unknown method/path pair.
	ReasonBadRoute = "bad_route"
	// ReasonInjected marks a fault-injection trip (test harness only).
	ReasonInjected = "injected"
	// ReasonDown marks a worker administratively killed by the fault
	// harness: every request fails until it is revived.
	ReasonDown = "down"
)

// Count request kinds, one per pass shape of the PassCounter seam plus the
// stream delta count.
const (
	KindItems      = "items"      // pass 1: per-item array
	KindPairs      = "pairs"      // pass 2: triangular pair matrix
	KindCandidates = "candidates" // pass ≥ 3: candidate engine
	KindSets       = "sets"       // stream delta: Elems alone, by direct subset tests
)

// maxWireUniverse bounds the item universe a message may declare, so a
// hostile size cannot force a giant allocation before validation.
const maxWireUniverse = 1 << 21

// WireError is a typed protocol rejection: the HTTP status to answer with
// and the machine-readable reason.
type WireError struct {
	Status int    // HTTP status code
	Reason string // Reason* constant
	Msg    string
}

func (e *WireError) Error() string { return fmt.Sprintf("cluster: %s: %s", e.Reason, e.Msg) }

func wireErrf(status int, reason, format string, args ...interface{}) *WireError {
	return &WireError{Status: status, Reason: reason, Msg: fmt.Sprintf(format, args...)}
}

// ErrorDoc is the JSON body of every non-2xx reply.
type ErrorDoc struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

// LoadShardRequest pushes one horizontal dataset shard to a worker. The
// shard is content-addressed: ShardID must be the ShardID hash of
// NumItems and Baskets, which any node can verify, so a shard can be
// re-pushed to any worker after its previous holder died.
type LoadShardRequest struct {
	// ShardID is the lowercase SHA-256 hex of Baskets.
	ShardID string `json:"shard_id"`
	// NumItems is the global item universe; the shard's transactions may
	// use only a prefix of it, but counting structures are sized to it so
	// per-shard count vectors align positionally.
	NumItems int `json:"num_items"`
	// Baskets is the shard in basket text format.
	Baskets string `json:"baskets"`
}

// LoadShardResponse acknowledges a shard push.
type LoadShardResponse struct {
	ShardID      string `json:"shard_id"`
	Transactions int    `json:"transactions"`
	// Cached reports the worker already held the shard (the push was a
	// content-address hit and the body was not re-parsed).
	Cached bool `json:"cached,omitempty"`
}

// CountRequest asks a worker to perform one pass's counting over one
// shard. The (JobID, Pass, Kind, ShardID) stamp identifies the logical
// request across retries; workers key their reply memo by the stamp plus a
// digest of the full payload, so a duplicate delivery is answered
// idempotently while a different payload under one stamp — a stream batch
// counts its MFS and its border over the same delta side — is counted
// afresh. Stream delta counts are stamped <stream>.b<seq>.<side> with the
// batch seq as Pass.
type CountRequest struct {
	JobID string `json:"job_id"`
	Pass  int    `json:"pass"`
	Kind  string `json:"kind"`
	// ShardID names the shard to count over (must be loaded first).
	ShardID string `json:"shard_id"`
	// NumItems is the global item universe (must match the loaded shard).
	NumItems int `json:"num_items"`
	// Live is the live-item set for KindPairs.
	Live itemset.Itemset `json:"live,omitempty"`
	// Engine names the counting structure for KindCandidates ("" = hashtree).
	Engine string `json:"engine,omitempty"`
	// Candidates are the bottom-up candidates for KindCandidates.
	Candidates []itemset.Itemset `json:"candidates,omitempty"`
	// Elems are MFCS elements piggybacked on any kind of pass; for
	// KindSets they are the whole request, and may be any set list, not
	// only an antichain.
	Elems []itemset.Itemset `json:"elems,omitempty"`
}

// CountResponse carries one shard's count vectors, positionally parallel
// to the request's inputs. At most one of ItemCounts / PairCounts /
// CandCounts is populated according to the request kind (none for
// KindSets; CandCounts may be empty when the candidate list was empty);
// ElemCounts is parallel to Elems.
type CountResponse struct {
	WorkerID     string `json:"worker_id"`
	ShardID      string `json:"shard_id"`
	Pass         int    `json:"pass"`
	Transactions int    `json:"transactions"`
	// Memoized reports the reply was served from the worker's idempotency
	// memo — the coordinator counts it as a detected duplicate delivery.
	Memoized   bool    `json:"memoized,omitempty"`
	ItemCounts []int64 `json:"item_counts,omitempty"`
	// PairCounts is the triangle's dense count vector (counting.Triangle
	// snapshot order over the request's Live set).
	PairCounts []int64 `json:"pair_counts,omitempty"`
	CandCounts []int64 `json:"cand_counts,omitempty"`
	ElemCounts []int64 `json:"elem_counts,omitempty"`
}

// WorkerStatus is the body of GET /cluster/v1/ping — the heartbeat reply,
// doubling as registration: it reports which shards the worker holds, so a
// restarted (empty) worker is re-seeded instead of assumed loaded.
type WorkerStatus struct {
	ID string `json:"id"`
	// Shards lists the content addresses of the shards held.
	Shards []string `json:"shards"`
	// CountsServed is the number of count RPCs answered since start.
	CountsServed int64 `json:"counts_served"`
}

// decodeStrict decodes one JSON document into v, rejecting unknown fields,
// trailing garbage, and bodies over limit bytes.
func decodeStrict(r io.Reader, limit int64, v interface{}) error {
	dec := json.NewDecoder(io.LimitReader(r, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return wireErrf(400, ReasonBadJSON, "decode: %v", err)
	}
	if dec.More() {
		return wireErrf(400, ReasonBadJSON, "trailing data after message")
	}
	return nil
}

// DecodeLoadShard decodes and validates a shard push (body capped at limit
// bytes). The content-address check against the basket bytes is the
// worker's job; this validates shape only.
func DecodeLoadShard(r io.Reader, limit int64) (*LoadShardRequest, error) {
	var req LoadShardRequest
	if err := decodeStrict(r, limit, &req); err != nil {
		return nil, err
	}
	if err := validShardID(req.ShardID); err != nil {
		return nil, err
	}
	if req.NumItems < 0 || req.NumItems > maxWireUniverse {
		return nil, wireErrf(400, ReasonBadMessage, "num_items %d outside [0, %d]", req.NumItems, maxWireUniverse)
	}
	return &req, nil
}

// DecodeCount decodes and validates a count request (body capped at limit
// bytes): known kind, plausible universe, and every itemset sorted,
// duplicate-free, and within the declared universe — the invariants the
// counting structures rely on.
func DecodeCount(r io.Reader, limit int64) (*CountRequest, error) {
	var req CountRequest
	if err := decodeStrict(r, limit, &req); err != nil {
		return nil, err
	}
	if err := validShardID(req.ShardID); err != nil {
		return nil, err
	}
	if req.Pass < 0 {
		return nil, wireErrf(400, ReasonBadMessage, "pass %d negative", req.Pass)
	}
	if req.NumItems <= 0 || req.NumItems > maxWireUniverse {
		return nil, wireErrf(400, ReasonBadMessage, "num_items %d outside [1, %d]", req.NumItems, maxWireUniverse)
	}
	switch req.Kind {
	case KindItems, KindPairs, KindCandidates:
	case KindSets:
		if len(req.Elems) == 0 {
			return nil, wireErrf(400, ReasonBadMessage, "elems empty (nothing to count)")
		}
	default:
		return nil, wireErrf(400, ReasonBadMessage, "unknown kind %q", req.Kind)
	}
	if req.Kind != KindPairs && len(req.Live) > 0 {
		return nil, wireErrf(400, ReasonBadMessage, "live applies to kind %q only", KindPairs)
	}
	if req.Kind != KindCandidates && (len(req.Candidates) > 0 || req.Engine != "") {
		return nil, wireErrf(400, ReasonBadMessage, "candidates/engine apply to kind %q only", KindCandidates)
	}
	if req.Engine != "" {
		if _, err := counting.ParseEngine(req.Engine); err != nil {
			return nil, wireErrf(400, ReasonBadMessage, "%v", err)
		}
	}
	if err := validSet(req.Live, req.NumItems, "live"); err != nil {
		return nil, err
	}
	for i, c := range req.Candidates {
		if len(c) == 0 {
			return nil, wireErrf(400, ReasonBadMessage, "candidates[%d] empty", i)
		}
		if err := validSet(c, req.NumItems, fmt.Sprintf("candidates[%d]", i)); err != nil {
			return nil, err
		}
	}
	for i, e := range req.Elems {
		if len(e) == 0 {
			return nil, wireErrf(400, ReasonBadMessage, "elems[%d] empty", i)
		}
		if err := validSet(e, req.NumItems, fmt.Sprintf("elems[%d]", i)); err != nil {
			return nil, err
		}
	}
	return &req, nil
}

// validShardID checks the lowercase SHA-256 hex shape.
func validShardID(id string) error {
	if len(id) != 64 {
		return wireErrf(400, ReasonBadMessage, "shard_id must be 64 hex chars, got %d", len(id))
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return wireErrf(400, ReasonBadMessage, "shard_id has non-hex byte %q", c)
		}
	}
	return nil
}

// validSet checks the itemset invariant: strictly increasing items within
// [0, universe).
func validSet(s itemset.Itemset, universe int, what string) error {
	for i, it := range s {
		if it < 0 || int(it) >= universe {
			return wireErrf(400, ReasonBadMessage, "%s: item %d outside universe [0, %d)", what, it, universe)
		}
		if i > 0 && s[i-1] >= it {
			return wireErrf(400, ReasonBadMessage, "%s: items not strictly increasing", what)
		}
	}
	return nil
}
