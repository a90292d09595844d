package shard

import (
	"fmt"

	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/nemesis"
	"fortyconsensus/internal/pbft"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// Group is one shard's replicated SMR group: a consensus cluster whose
// replicas apply Store. The consensus protocol is pluggable — any
// harness that can submit to a leader, step its runner, and expose its
// decision streams and fault surface fits.
type Group interface {
	nemesis.Target
	nemesis.ByzTarget

	// Step advances the group's runner one tick.
	Step()
	// Submit hands an encoded client request to the current live
	// leader, reporting whether one was found. A false return is not an
	// error: the caller retries after the group re-stabilizes.
	Submit(v types.Value) bool
	// Pump drains newly committed decisions into the per-replica
	// executors and returns the (replies, per-replica decisions) both
	// produced this tick.
	Pump() ([]types.Reply, [][]types.Decision)
	// Crashed reports whether the replica with the given local ID is
	// currently crashed.
	Crashed(local types.NodeID) bool
	// Replicas returns the group size.
	Replicas() int
	// Stores returns the per-replica shard state machines.
	Stores() []*Store
	// Stats returns the group runner's message and fault counters.
	Stats() runner.Stats
}

// Backends supported by NewGroup.
const (
	BackendRaft       = "raft"
	BackendMultiPaxos = "multipaxos"
	BackendPBFT       = "pbft"
)

// NewGroup builds one shard group of the named backend over its own
// seeded fabric. PBFT sizes itself to 3f+1 >= replicas.
func NewGroup(backend string, replicas int, seed uint64) (Group, error) {
	fabric := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 3, Seed: seed})
	var stores []*Store
	newSM := func() smr.StateMachine {
		st := NewStore()
		stores = append(stores, st)
		return st
	}
	switch backend {
	case BackendRaft:
		c := raft.NewCluster(replicas, fabric, raft.Config{Seed: seed}, newSM)
		return &group{c.Cluster, stores, submitToLeaders(c.Cluster, c.Nodes),
			func() ([]types.Reply, [][]types.Decision, error) { return smr.PumpAll(c.Nodes, c.Execs) }}, nil
	case BackendMultiPaxos:
		c := multipaxos.NewCluster(replicas, fabric, multipaxos.Config{Seed: seed}, newSM)
		return &group{c.Cluster, stores, submitToLeaders(c.Cluster, c.Nodes),
			func() ([]types.Reply, [][]types.Decision, error) { return smr.PumpAll(c.Nodes, c.Execs) }}, nil
	case BackendPBFT:
		f := (replicas - 1) / 3
		if f < 1 {
			f = 1
		}
		c := pbft.NewCluster(f, fabric, pbft.Config{}, newSM)
		// Enter through the first live replica: PBFT backups forward
		// client requests to the primary, so any live entry point works.
		submit := func(v types.Value) bool {
			for i := range c.Replicas {
				if id := types.NodeID(i); !c.Crashed(id) {
					c.Submit(id, v)
					return true
				}
			}
			return false
		}
		return &group{c.Cluster, stores, submit,
			func() ([]types.Reply, [][]types.Decision, error) { return smr.PumpAll(c.Replicas, c.Execs) }}, nil
	default:
		return nil, fmt.Errorf("shard: unknown backend %q", backend)
	}
}

// cluster is the part of a protocol harness a shard group passes
// through unchanged: its runner and fault surface.
type cluster interface {
	nemesis.Target
	nemesis.ByzTarget
	Step()
	Crashed(local types.NodeID) bool
	Stats() runner.Stats
}

// group is every backend's Group: the harness's fault surface, the
// per-replica Stores, the backend's submission rule, and a pump of the
// harness's modules into its executors.
type group struct {
	cluster
	stores []*Store
	submit func(types.Value) bool
	pump   func() ([]types.Reply, [][]types.Decision, error)
}

// leader is a module that can claim leadership and take a submission.
type leader interface {
	IsLeader() bool
	Submit(types.Value)
}

// submitToLeaders hands v to every live node claiming leadership: under
// a partition a deposed leader may still claim the title, and stopping
// at the first claimant would starve the majority side's real leader.
// Duplicates are deduplicated by the smr executor's (client, seqno)
// cache, so over-submitting is safe.
func submitToLeaders[N leader](c cluster, nodes []N) func(types.Value) bool {
	return func(v types.Value) bool {
		sent := false
		for i, n := range nodes {
			if !c.Crashed(types.NodeID(i)) && n.IsLeader() {
				n.Submit(v)
				sent = true
			}
		}
		return sent
	}
}

func (g *group) Submit(v types.Value) bool { return g.submit(v) }
func (g *group) Replicas() int             { return len(g.stores) }
func (g *group) Stores() []*Store          { return g.stores }

func (g *group) Pump() ([]types.Reply, [][]types.Decision) {
	replies, ds, err := g.pump()
	if err != nil {
		panic("shard: snapshot restore: " + err.Error())
	}
	return replies, ds
}
