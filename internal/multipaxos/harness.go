package multipaxos

import (
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// Cluster bundles Multi-Paxos replicas with per-replica SMR executors
// over one fabric.
type Cluster struct {
	*runner.Cluster[Message]
	Nodes []*Node
	Execs []*smr.Executor
}

// NewCluster builds n replicas (IDs 0..n-1) each applying to its own
// state machine produced by newSM (nil newSM skips executors).
func NewCluster(n int, fabric *simnet.Fabric, cfg Config, newSM func() smr.StateMachine) *Cluster {
	peers := make([]types.NodeID, n)
	for i := range peers {
		peers[i] = types.NodeID(i)
	}
	cfg.Peers = peers
	rc := runner.New(runner.Config[Message]{Fabric: fabric, Dest: Dest, Src: Src, Kind: Kind})
	c := &Cluster{Cluster: rc}
	for i := 0; i < n; i++ {
		node := New(types.NodeID(i), cfg)
		c.Nodes = append(c.Nodes, node)
		rc.Add(types.NodeID(i), node)
		if newSM != nil {
			c.Execs = append(c.Execs, smr.NewExecutor(types.NodeID(i), newSM()))
		}
	}
	return c
}

// Pump drains every node's decisions into its executor through
// smr.PumpAll and returns all client replies produced this call. Call
// after Step/Run. A node that installed a state-transfer snapshot has
// its executor restored from the snapshot's application state before
// post-snapshot decisions apply.
func (c *Cluster) Pump() []types.Reply {
	replies, _, err := smr.PumpAll(c.Nodes, c.Execs)
	if err != nil {
		panic("multipaxos: harness snapshot restore: " + err.Error())
	}
	return replies
}

// RunPumped runs ticks steps, pumping decisions each step, and collects
// replies.
func (c *Cluster) RunPumped(ticks int) []types.Reply {
	var replies []types.Reply
	for i := 0; i < ticks; i++ {
		c.Step()
		replies = append(replies, c.Pump()...)
	}
	return replies
}

// TakeAllDecisions drains every replica's decision queue, indexed by
// replica position. It consumes the same queue Pump does; use one or
// the other per run.
func (c *Cluster) TakeAllDecisions() [][]types.Decision {
	out := make([][]types.Decision, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.TakeDecisions()
	}
	return out
}

// WaitLeader runs until some node believes it leads, returning it (nil on
// timeout).
func (c *Cluster) WaitLeader(maxTicks int) *Node {
	var lead *Node
	c.RunUntil(func() bool {
		for _, n := range c.Nodes {
			if n.IsLeader() && !c.Crashed(n.id) {
				lead = n
				return true
			}
		}
		return false
	}, maxTicks)
	return lead
}

// CommitFrontierMin returns the lowest commit frontier among live nodes.
func (c *Cluster) CommitFrontierMin() types.Seq {
	min := types.Seq(1<<62 - 1)
	for _, n := range c.Nodes {
		if c.Crashed(n.id) {
			continue
		}
		if n.CommitFrontier() < min {
			min = n.CommitFrontier()
		}
	}
	return min
}
