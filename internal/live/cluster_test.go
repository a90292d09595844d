package live

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"fortyconsensus/internal/det"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
)

// startCluster brings up n live servers on loopback ports and returns
// them with the client-facing address list (index = node ID).
func startCluster(t *testing.T, n, shards int, backend string, seed uint64) ([]*Server, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make(map[types.NodeID]string, n)
	addrList := make([]string, n)
	for i := 0; i < n; i++ {
		ln, addr, err := Listen()
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[types.NodeID(i)] = addr
		addrList[i] = addr
	}
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		srv, err := NewServerOn(lns[i], ServerConfig{
			Self:      types.NodeID(i),
			Addrs:     addrs,
			Shards:    shards,
			Backend:   backend,
			TickEvery: time.Millisecond,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		srv.Start()
	}
	t.Cleanup(func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	})
	return servers, addrList
}

// findLeader polls until some running server claims leadership of sh.
func findLeader(t *testing.T, servers []*Server, sh int) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for i, s := range servers {
			if s == nil {
				continue
			}
			if isLead, _, ok := s.Leader(sh); ok && isLead {
				return i
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no leader emerged for shard %d", sh)
	return -1
}

// TestClusterSmoke commits through the client library against a 3-node
// live raft cluster, kills the shard-0 leader, and keeps committing.
func TestClusterSmoke(t *testing.T) {
	servers, addrList := startCluster(t, 3, 2, BackendRaft, 42)
	cl, err := NewClient(ClientConfig{
		Addrs: addrList, Shards: 2, SessionBase: 50_000,
		AttemptTimeout: 2 * time.Second, Deadline: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const before = 40
	for i := 0; i < before; i++ {
		key := fmt.Sprintf("key-%02d", i)
		if _, err := cl.Do(kvstore.Put(key, []byte(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}

	// Kill the shard-0 leader; the survivors must elect and keep serving.
	dead := findLeader(t, servers, 0)
	servers[dead].Close()
	servers[dead] = nil

	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("after-%02d", i)
		if _, err := cl.Do(kvstore.Put(key, []byte("post-failover"))); err != nil {
			t.Fatalf("put %s after failover: %v", key, err)
		}
	}

	// Reads go through consensus too, so they see every prior write.
	for i := 0; i < before; i += 7 {
		key := fmt.Sprintf("key-%02d", i)
		got, err := cl.Do(kvstore.Get(key))
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if want := fmt.Sprintf("v%d", i); string(got) != want {
			t.Fatalf("get %s = %q, want %q", key, got, want)
		}
	}

	// The two survivors must converge to identical per-shard KV state.
	var sA, sB *Server
	for _, s := range servers {
		if s == nil {
			continue
		}
		if sA == nil {
			sA = s
		} else {
			sB = s
		}
	}
	for sh := 0; sh < 2; sh++ {
		waitFor(t, 10*time.Second, func() bool {
			a, okA := sA.SnapshotKV(sh)
			b, okB := sB.SnapshotKV(sh)
			// Skip the 8-byte applied counter: leader no-ops inflate it
			// differently per node; the KV contents must match exactly.
			return okA && okB && len(a) >= 8 && len(b) >= 8 && bytes.Equal(a[8:], b[8:])
		})
	}

	// Metrics sanity: the surviving nodes committed real operations.
	var committed uint64
	for _, s := range servers {
		if s != nil {
			committed += s.Metrics().Committed()
		}
	}
	if committed == 0 {
		t.Fatal("no server recorded committed operations")
	}
	if sA.TransportStats().Sent == 0 {
		t.Fatal("no peer frames were ever sent")
	}
}

// TestClusterPipelining drives many concurrent in-flight operations
// through one client; per-request sessions keep them all exactly-once.
func TestClusterPipelining(t *testing.T) {
	_, addrList := startCluster(t, 3, 2, BackendRaft, 7)
	cl, err := NewClient(ClientConfig{
		Addrs: addrList, Shards: 2, SessionBase: 90_000,
		AttemptTimeout: 2 * time.Second, Deadline: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 32
	calls := make([]*Call, n)
	for i := 0; i < n; i++ {
		calls[i] = cl.Go(kvstore.Incr("counter", 1))
	}
	for i, c := range calls {
		if _, err := c.Wait(); err != nil {
			t.Fatalf("pipelined op %d: %v", i, err)
		}
	}
	got, err := cl.Do(kvstore.Get("counter"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != fmt.Sprint(n) {
		t.Fatalf("counter = %q, want %d (retries must not double-apply)", got, n)
	}
}

// TestClusterMultiPaxosBackend runs the same client path over the
// multipaxos backend to pin the codec + hosting genericity.
func TestClusterMultiPaxosBackend(t *testing.T) {
	_, addrList := startCluster(t, 3, 1, BackendMultiPaxos, 3)
	cl, err := NewClient(ClientConfig{
		Addrs: addrList, Shards: 1, SessionBase: 70_000,
		AttemptTimeout: 2 * time.Second, Deadline: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 10; i++ {
		if _, err := cl.Do(kvstore.Incr("pxc", 1)); err != nil {
			t.Fatalf("incr %d: %v", i, err)
		}
	}
	got, err := cl.Do(kvstore.Get("pxc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "10" {
		t.Fatalf("pxc = %q, want 10", got)
	}
}

// TestClusterMultiPaxosPipelinedFailover keeps 64 Puts in flight on a
// 2-shard multipaxos cluster, so the leaders batch phase 2, and closes
// the shard-0 leader while the first wave is outstanding. Every
// acknowledged Put must read back, and the survivors must hold
// byte-identical state per shard.
func TestClusterMultiPaxosPipelinedFailover(t *testing.T) {
	servers, addrList := startCluster(t, 3, 2, BackendMultiPaxos, 13)
	cl, err := NewClient(ClientConfig{
		Addrs: addrList, Shards: 2, SessionBase: 75_000,
		AttemptTimeout: 2 * time.Second, Deadline: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dead := findLeader(t, servers, 0)

	const inflight = 64
	acked := map[string]string{}
	wave := func(name string, mid func()) {
		keys, vals, calls := make([]string, inflight), make([]string, inflight), make([]*Call, inflight)
		for i := range calls {
			keys[i], vals[i] = fmt.Sprintf("%s-%02d", name, i), fmt.Sprintf("v-%s-%d", name, i)
			calls[i] = cl.Go(kvstore.Put(keys[i], []byte(vals[i])))
		}
		if mid != nil {
			mid()
		}
		for i, c := range calls {
			if _, err := c.Wait(); err == nil {
				acked[keys[i]] = vals[i]
			}
		}
	}
	wave("a", func() {
		// Let part of the wave commit before the leader dies.
		waitFor(t, 10*time.Second, func() bool { return servers[dead].Metrics().Committed() > 0 })
		servers[dead].Close()
		servers[dead] = nil
	})
	wave("b", nil)
	// The client retries past the failover well within its deadline.
	if len(acked) != 2*inflight {
		t.Fatalf("only %d of %d Puts acknowledged", len(acked), 2*inflight)
	}

	for _, key := range det.SortedKeys(acked) {
		got, err := cl.Do(kvstore.Get(key))
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if string(got) != acked[key] {
			t.Fatalf("get %s = %q, want acknowledged %q", key, got, acked[key])
		}
	}

	var live []*Server
	for _, s := range servers {
		if s != nil {
			live = append(live, s)
		}
	}
	for sh := 0; sh < 2; sh++ {
		waitFor(t, 10*time.Second, func() bool {
			a, okA := live[0].SnapshotKV(sh)
			b, okB := live[1].SnapshotKV(sh)
			return okA && okB && bytes.Equal(a, b)
		})
	}
}
