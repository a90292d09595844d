package raft

import (
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// Cluster bundles Raft replicas with per-replica SMR executors.
type Cluster struct {
	*runner.Cluster[Message]
	Nodes []*Node
	Execs []*smr.Executor
}

// NewCluster builds n replicas (IDs 0..n-1); newSM may be nil.
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

// Pump drains decisions into executors through smr.PumpAll, returning
// replies. A node that installed a snapshot has its executor restored
// from the snapshot's application state before any post-snapshot
// decisions apply.
func (c *Cluster) Pump() []types.Reply {
	replies, _, err := smr.PumpAll(c.Nodes, c.Execs)
	if err != nil {
		panic("raft: harness snapshot restore: " + err.Error())
	}
	return replies
}

// RunPumped runs ticks steps, pumping each step.
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

// WaitLeader runs until a live leader exists, returning it (nil on
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

// CheckLogMatching verifies the Log Matching property across all nodes:
// if two logs hold an entry with the same index and term, the logs are
// identical up through that index. Logs are aligned by global index, so
// replicas that compacted different prefixes compare only over the
// range both still hold.
func (c *Cluster) CheckLogMatching() error {
	for i := 0; i < len(c.Nodes); i++ {
		for j := i + 1; j < len(c.Nodes); j++ {
			na, nb := c.Nodes[i], c.Nodes[j]
			a, b := na.Log(), nb.Log()
			baseA, baseB := na.SnapshotIndex(), nb.SnapshotIndex()
			lo := baseA
			if baseB > lo {
				lo = baseB
			}
			hi := baseA + types.Seq(len(a)-1)
			if h := baseB + types.Seq(len(b)-1); h < hi {
				hi = h
			}
			for k := hi; k > lo; k-- {
				if a[k-baseA].Term == b[k-baseB].Term {
					// Everything at and below k (that both hold) must match.
					for l := lo + 1; l <= k; l++ {
						ea, eb := a[l-baseA], b[l-baseB]
						if ea.Term != eb.Term || !ea.Val.Equal(eb.Val) {
							return &logMatchError{na.id, nb.id, k, l}
						}
					}
					break
				}
			}
		}
	}
	return nil
}

type logMatchError struct {
	a, b      types.NodeID
	agreeIdx  types.Seq
	divergeAt types.Seq
}

func (e *logMatchError) Error() string {
	return "raft: log matching violated between " + e.a.String() + " and " + e.b.String()
}
