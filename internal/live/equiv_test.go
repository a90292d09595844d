package live

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/shard"
)

// equivOps is the deterministic workload both worlds execute.
func equivOps() []kvstore.Command {
	var ops []kvstore.Command
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%d", i%10)
		switch i % 4 {
		case 0:
			ops = append(ops, kvstore.Put(key, []byte(fmt.Sprintf("val-%d", i))))
		case 1:
			ops = append(ops, kvstore.Incr(key+"-ctr", int64(i)))
		case 2:
			ops = append(ops, kvstore.Put(key, []byte("overwrite")))
		case 3:
			ops = append(ops, kvstore.Delete(fmt.Sprintf("k%d", (i+3)%10)))
		}
	}
	return ops
}

// TestLiveSimEquivalence runs one deterministic op sequence through a
// real 3-node TCP cluster and through the in-process simulation, then
// compares the per-shard KV snapshots byte for byte, for each backend.
// Both worlds apply decisions through the same smr decision stage;
// the state machine must not care which runtime hosted it.
func TestLiveSimEquivalence(t *testing.T) {
	for _, b := range []struct{ live, sim string }{
		{BackendRaft, shard.BackendRaft},
		{BackendMultiPaxos, shard.BackendMultiPaxos},
	} {
		t.Run(b.live, func(t *testing.T) { checkLiveSimEquivalence(t, b.live, b.sim) })
	}
}

func checkLiveSimEquivalence(t *testing.T, liveBackend, simBackend string) {
	const shards = 2
	ops := equivOps()

	// Live world: commit each op in order through the client library.
	servers, addrList := startCluster(t, 3, shards, liveBackend, 11)
	cl, err := NewClient(ClientConfig{
		Addrs: addrList, Shards: shards, SessionBase: 30_000,
		AttemptTimeout: 2 * time.Second, Deadline: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, op := range ops {
		if _, err := cl.Do(op); err != nil {
			t.Fatalf("live op %d: %v", i, err)
		}
	}

	// Sim world: same ops, same order, through shard.Service.
	svc := shard.NewService(shard.Config{
		Shards: shards, Replicas: 3, Backend: simBackend, Seed: 11,
	})
	svc.Run(300) // let every group elect
	for i, op := range ops {
		seq := svc.SubmitKV(op)
		replied := false
		for step := 0; step < 5000 && !replied; step++ {
			svc.Step()
			// Match the reply to this submission: retransmissions can
			// surface duplicate replies for earlier ops.
			for _, r := range svc.TakeKVReplies() {
				if r.SeqNo == seq {
					replied = true
				}
			}
		}
		if !replied {
			t.Fatalf("sim op %d never committed", i)
		}
	}
	// The reply proves the leader applied; give followers (replica 0
	// included) time to learn the final commit index.
	svc.Run(500)

	// Compare per-shard snapshots, skipping the 8-byte applied counter
	// (leader no-ops in the live world inflate it nondeterministically).
	for sh := 0; sh < shards; sh++ {
		simSnap := svc.Groups()[sh].Stores()[0].KV().Snapshot()
		ok := false
		var liveSnap []byte
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) && !ok {
			liveSnap, _ = servers[0].SnapshotKV(sh)
			ok = len(liveSnap) >= 8 && len(simSnap) >= 8 && bytes.Equal(liveSnap[8:], simSnap[8:])
			if !ok {
				time.Sleep(5 * time.Millisecond)
			}
		}
		if !ok {
			t.Fatalf("shard %d: live and sim KV snapshots diverged\n live: %x\n  sim: %x",
				sh, liveSnap, simSnap)
		}
	}
}
