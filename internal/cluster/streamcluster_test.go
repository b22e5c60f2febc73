package cluster

// Unit tests for the stream side of the cluster: the StreamCoordinator's
// delta-count fan-out must merge to the exact vector a single local scan
// produces, under every failure mode the job coordinator handles —
// because the incremental maintainer's correctness argument (the
// Mannila–Toivonen border check) consumes these counts as ground truth.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/obsv"
)

// refStreamCounts is the single-node reference: each set's support in d.
func refStreamCounts(d *dataset.Dataset, sets []itemset.Itemset) []int64 {
	counts := make([]int64, len(sets))
	for i, s := range sets {
		counts[i] = d.Support(s)
	}
	return counts
}

// testStreamSets builds a deliberately non-antichain set list (singletons,
// the pairs of the first six items, a containing triple and a repeated
// pair) — the wire contract promises correct counts for any set list, not
// just the maintainer's antichains. With more than 16 sets the workers
// count it through the element trie.
func testStreamSets(d *dataset.Dataset) []itemset.Itemset {
	n := min(d.NumItems(), 6)
	sets := []itemset.Itemset{}
	for i := 0; i < n; i++ {
		sets = append(sets, itemset.Itemset{itemset.Item(i)})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sets = append(sets, itemset.Itemset{itemset.Item(i), itemset.Item(j)})
		}
	}
	if n >= 3 {
		sets = append(sets, itemset.Itemset{0, 1, 2}, itemset.Itemset{0, 1})
	}
	return sets
}

func assertSameCounts(t *testing.T, label string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d counts, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: set %d counted %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestStreamClusterCountMatchesLocal pins the tentpole contract at the
// cluster layer: the fanned-out delta count is byte-identical to one
// local scan for every worker count.
func TestStreamClusterCountMatchesLocal(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			tc := startCluster(t, workers, testPoolConfig())
			sc := NewStreamCoordinator("s1", tc.pool, nil)
			for seed := int64(1); seed <= 3; seed++ {
				d := testDataset(seed)
				sets := testStreamSets(d)
				want := refStreamCounts(d, sets)
				got := sc.CountSets(seed, "append", d, sets)
				assertSameCounts(t, fmt.Sprintf("seed%d", seed), got, want)
				doc := sc.TakeDoc()
				if doc.Degraded {
					t.Fatalf("seed%d: healthy cluster degraded: %+v", seed, doc)
				}
				if doc.RPCs == 0 {
					t.Fatalf("seed%d: no RPCs issued — counting did not distribute", seed)
				}
			}
		})
	}
}

// TestStreamClusterEmptyDelta pins the trivial paths: an empty delta or an
// empty set list returns zeros without touching the cluster.
func TestStreamClusterEmptyDelta(t *testing.T) {
	tc := startCluster(t, 1, testPoolConfig())
	sc := NewStreamCoordinator("s-empty", tc.pool, nil)
	if got := sc.CountSets(1, "evict", nil, []itemset.Itemset{{0}}); got[0] != 0 {
		t.Fatalf("nil dataset counted %d, want 0", got[0])
	}
	d := testDataset(1)
	if got := sc.CountSets(1, "append", d, nil); len(got) != 0 {
		t.Fatalf("empty set list returned %d counts", len(got))
	}
	if doc := sc.TakeDoc(); doc.RPCs != 0 {
		t.Fatalf("trivial counts issued %d RPCs", doc.RPCs)
	}
}

// TestStreamClusterNodeLoss kills 1-of-2 and 1-of-4 workers at the batch
// barrier and mid-delta-scan, at every RPC ordinal until the tripwire runs
// off the end: every count must still merge to the reference vector via
// failover, never degradation.
func TestStreamClusterNodeLoss(t *testing.T) {
	d := testDataset(7)
	sets := testStreamSets(d)
	want := refStreamCounts(d, sets)
	for _, workers := range []int{2, 4} {
		workers := workers
		for _, afterTx := range []int{0, 11} {
			afterTx := afterTx
			mode := "barrier"
			if afterTx > 0 {
				mode = "midscan"
			}
			t.Run(fmt.Sprintf("w%d/%s", workers, mode), func(t *testing.T) {
				for trip := 1; ; trip++ {
					tc := startCluster(t, workers, testPoolConfig())
					nk := tc.kills[0]
					nk.TripAtCount = trip
					nk.AfterTx = afterTx
					col := obsv.NewCollector()
					sc := NewStreamCoordinator("s-loss", tc.pool, col)
					got := sc.CountSets(1, "append", d, sets)
					assertSameCounts(t, fmt.Sprintf("trip%d", trip), got, want)
					doc := sc.TakeDoc()
					if doc.Degraded {
						t.Fatalf("trip %d: lost 1 of %d workers but degraded: %+v", trip, workers, doc)
					}
					tripped := nk.Down()
					if tripped && doc.WorkerDeaths == 0 {
						t.Fatalf("trip %d: worker was killed but no death recorded: %+v", trip, doc)
					}
					if tripped && doc.Failovers == 0 {
						t.Fatalf("trip %d: worker died but no failover recorded: %+v", trip, doc)
					}
					if !tripped {
						if trip == 1 {
							t.Fatal("tripwire never fired — matrix tested nothing")
						}
						return
					}
				}
			})
		}
	}
}

// TestStreamClusterDegradationRearms pins the deliberate difference from
// job degradation: a below-quorum batch counts locally and says so, and
// the NEXT batch re-checks quorum instead of staying degraded forever.
func TestStreamClusterDegradationRearms(t *testing.T) {
	d := testDataset(11)
	sets := testStreamSets(d)
	want := refStreamCounts(d, sets)

	reg := obsv.NewRegistry()
	cfg := testPoolConfig()
	cfg.Quorum = 2
	cfg.Registry = reg
	tc := startCluster(t, 2, cfg)
	col := obsv.NewCollector()
	sc := NewStreamCoordinator("s-degrade", tc.pool, col)

	// Batch 1: healthy.
	assertSameCounts(t, "healthy", sc.CountSets(1, "append", d, sets), want)
	if doc := sc.TakeDoc(); doc.Degraded {
		t.Fatalf("healthy batch degraded: %+v", doc)
	}

	// Kill one worker and wait for the heartbeat to notice: live 1 < quorum 2.
	tc.kills[0].Kill()
	deadline := time.Now().Add(15 * time.Second)
	for len(tc.pool.Live()) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("dead worker never left the live set")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Batch 2: below quorum — counted locally, byte-identical, recorded.
	assertSameCounts(t, "degraded", sc.CountSets(2, "append", d, sets), want)
	doc := sc.TakeDoc()
	if !doc.Degraded || doc.DegradedReason == "" {
		t.Fatalf("below-quorum batch not recorded as degraded: %+v", doc)
	}
	if doc.RPCs != 0 {
		t.Fatalf("degraded batch still issued %d RPCs", doc.RPCs)
	}
	if doc.LocalShardCounts == 0 {
		t.Fatalf("degraded batch recorded no local counts: %+v", doc)
	}
	var sawDegraded bool
	for _, ev := range col.ClusterEvents() {
		if ev.Event == "degraded" {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatalf("no 'degraded' trace event; events: %+v", col.ClusterEvents())
	}
	if n := reg.Snapshot()["pincer_cluster_degraded_total"]; n == 0 {
		t.Fatal("pincer_cluster_degraded_total not incremented")
	}

	// Revive; batch 3 must fan out again — degradation did not stick.
	tc.kills[0].Revive()
	for len(tc.pool.Live()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("revived worker never rejoined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertSameCounts(t, "recovered", sc.CountSets(3, "append", d, sets), want)
	doc = sc.TakeDoc()
	if doc.Degraded {
		t.Fatalf("recovered batch still degraded: %+v", doc)
	}
	if doc.RPCs == 0 {
		t.Fatal("recovered batch did not return to the cluster")
	}
}

// TestStreamClusterCancelFinishesLocally pins the stream side of the
// cancellation contract: cancelling the bound context while every shard
// waits out a backoff, or while the count RPCs hang, returns CountSets far
// inside one RPCTimeout with the exact vector — the shards not counted
// remotely are counted locally — and declares no worker dead.
func TestStreamClusterCancelFinishesLocally(t *testing.T) {
	d := testDataset(29)
	sets := testStreamSets(d)
	want := refStreamCounts(d, sets)
	for _, tt := range []struct {
		name    string
		backoff time.Duration
		hook    func(release <-chan struct{}) error
	}{
		{"mid-backoff", 5 * time.Second, func(<-chan struct{}) error { return errors.New("count refused") }},
		{"mid-rpc", time.Millisecond, func(release <-chan struct{}) error { <-release; return nil }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testPoolConfig()
			cfg.RPCTimeout = 5 * time.Second
			cfg.BackoffBase, cfg.BackoffCap = tt.backoff, tt.backoff
			tc := startCluster(t, 1, cfg)
			release := make(chan struct{})
			defer close(release) // before the cleanup closes the servers
			tc.handlers[0].Set(NewWorker(WorkerConfig{
				ID:        "w0",
				CountHook: func(*CountRequest) error { return tt.hook(release) },
			}))

			sc := NewStreamCoordinator("s-cancel", tc.pool, nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sc.BindContext(ctx, 0)
			time.AfterFunc(100*time.Millisecond, cancel)
			start := time.Now()
			got := sc.CountSets(1, "append", d, sets)
			if elapsed := time.Since(start); elapsed >= time.Second {
				t.Fatalf("cancelled CountSets returned after %v, want < 1s", elapsed)
			}
			assertSameCounts(t, tt.name, got, want)
			if doc := sc.TakeDoc(); doc.LocalShardCounts == 0 || doc.WorkerDeaths != 0 {
				t.Fatalf("cancelled count: %+v, want local shard counts and no deaths", doc)
			}
			if n := len(tc.pool.Live()); n != 1 {
				t.Fatalf("cancellation left %d live workers, want 1", n)
			}
		})
	}
}

// TestStreamClusterDecodeValidation pins the wire rejections of the sets
// kind a stream delta count rides on: a malformed message must be refused
// at decode, before it reaches a shard.
func TestStreamClusterDecodeValidation(t *testing.T) {
	shard := strings.Repeat("ab", 32)
	sets := func(numItems int, elems, extra string) string {
		return fmt.Sprintf(`{"job_id":"s1.b1.append","pass":1,"kind":"sets","shard_id":"%s","num_items":%d,"elems":%s%s}`,
			shard, numItems, elems, extra)
	}
	if _, err := DecodeCount(strings.NewReader(sets(4, `[[0,2]]`, ``)), 1<<20); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []struct {
		name, body string
	}{
		{"empty", ``},
		{"not-json", `{`},
		{"unknown-field", sets(4, `[[0]]`, `,"bogus":1`)},
		{"bad-shard", `{"job_id":"s1.b1.append","pass":1,"kind":"sets","shard_id":"zz","num_items":4,"elems":[[0]]}`},
		{"zero-universe", sets(0, `[[0]]`, ``)},
		{"huge-universe", sets(9999999, `[[0]]`, ``)},
		{"no-sets", sets(4, `[]`, ``)},
		{"empty-set", sets(4, `[[]]`, ``)},
		{"unsorted-set", sets(4, `[[2,0]]`, ``)},
		{"dup-item", sets(4, `[[1,1]]`, ``)},
		{"out-of-universe", sets(4, `[[7]]`, ``)},
		{"live", sets(4, `[[0]]`, `,"live":[0]`)},
		{"candidates", sets(4, `[[0]]`, `,"candidates":[[0]]`)},
		{"engine", sets(4, `[[0]]`, `,"engine":"trie"`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeCount(strings.NewReader(tc.body), 1<<20); err == nil {
				t.Fatalf("malformed request %q accepted", tc.body)
			}
		})
	}
}
