package loadgen

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"pincer/internal/cluster"
	"pincer/internal/faultinject"
)

// LocalCluster runs n in-process cluster counting workers for self-contained
// distributed-mining load runs. Each worker is a real HTTP server on its own
// loopback port with a faultinject.NodeKill wired into its fault seams, so
// the chaos harness can crash workers at pass barriers or mid-scan and
// revive them, while the pool's heartbeat/retry/reassignment machinery keeps
// the daemon's cluster jobs byte-identical to single-node runs.
type LocalCluster struct {
	servers []*http.Server
	kills   []*faultinject.NodeKill
	pool    *cluster.Pool

	mu     sync.Mutex
	victim int
}

// StartLocalCluster boots n workers and a started pool over them. The
// caller wires Pool() into server.Config.Cluster and must Close the cluster
// after the daemon is done with it.
func StartLocalCluster(n int, logf func(format string, args ...interface{})) (*LocalCluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("loadgen: cluster needs at least 1 worker, got %d", n)
	}
	lc := &LocalCluster{}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		nk := &faultinject.NodeKill{}
		w := cluster.NewWorker(cluster.WorkerConfig{
			ID:   fmt.Sprintf("local%d", i),
			Down: nk.Down,
			// Job passes and stream delta counts share the kill tripwire,
			// so an armed crash lands on whichever count arrives next.
			CountHook: func(*cluster.CountRequest) error { return nk.CountHook() },
			TxHook:    nk.TxHook,
			Logf:      logf,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lc.Close()
			return nil, err
		}
		hs := &http.Server{Handler: w, ReadHeaderTimeout: 5 * time.Second}
		go hs.Serve(ln)
		lc.servers = append(lc.servers, hs)
		lc.kills = append(lc.kills, nk)
		addrs = append(addrs, "http://"+ln.Addr().String())
	}
	pool, err := cluster.NewPool(addrs, cluster.PoolConfig{
		HeartbeatInterval: 100 * time.Millisecond,
		// Generous: a kill is detected by RPC exhaustion within one pass;
		// the liveness deadline only has to catch silent deaths, and a tight
		// one misdeclares every worker dead under race-detector stalls.
		LivenessDeadline: 5 * time.Second,
		Logf:             logf,
	})
	if err != nil {
		lc.Close()
		return nil, err
	}
	pool.Start()
	lc.pool = pool
	return lc, nil
}

// Pool returns the started worker pool for server.Config.Cluster.
func (lc *LocalCluster) Pool() *cluster.Pool { return lc.pool }

// Workers returns the worker count.
func (lc *LocalCluster) Workers() int { return len(lc.kills) }

// ChaosTick is one worker-kill chaos step, shaped for ChaosConfig.KillWorker:
// it revives every downed worker (a crashed process restarted — the
// coordinator re-seeds its shards on demand), then arms a kill on the next
// victim round-robin, alternating pass-barrier crashes (down at its next
// count RPC) with mid-scan crashes (down seven transactions into it).
func (lc *LocalCluster) ChaosTick(tick int) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, k := range lc.kills {
		k.Revive()
	}
	k := lc.kills[lc.victim%len(lc.kills)]
	lc.victim++
	if tick%2 == 0 {
		k.Arm(1, 0) // pass-barrier crash
	} else {
		k.Arm(1, 7) // mid-scan crash
	}
}

// ReviveAll brings every worker back up (end-of-run cleanup so the drain
// window finishes at full capacity).
func (lc *LocalCluster) ReviveAll() {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, k := range lc.kills {
		k.Revive()
	}
}

// Close stops the pool and every worker server.
func (lc *LocalCluster) Close() error {
	if lc.pool != nil {
		lc.pool.Close()
	}
	var firstErr error
	for _, hs := range lc.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := hs.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
		cancel()
	}
	return firstErr
}
