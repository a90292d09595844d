package hotstuff

import (
	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// Cluster bundles 3f+1 HotStuff replicas with SMR executors.
type Cluster struct {
	*runner.Cluster[Message]
	Replicas []*Replica
	Execs    []*smr.Executor
	F        int
}

// NewCluster builds a 3f+1 replica cluster sharing one keyring.
func NewCluster(f int, fabric *simnet.Fabric, cfg Config, newSM func() smr.StateMachine) *Cluster {
	n := quorum.Byzantine{F: f}.Size()
	cfg.N, cfg.F = n, f
	if cfg.Keyring == nil {
		cfg.Keyring = chaincrypto.NewKeyring(n, 0x40757ff)
	}
	rc := runner.New(runner.Config[Message]{Fabric: fabric, Dest: Dest, Src: Src, Kind: Kind})
	c := &Cluster{Cluster: rc, F: f}
	for i := 0; i < n; i++ {
		rep := NewReplica(types.NodeID(i), cfg)
		c.Replicas = append(c.Replicas, rep)
		rc.Add(types.NodeID(i), rep)
		if newSM != nil {
			c.Execs = append(c.Execs, smr.NewExecutor(types.NodeID(i), newSM()))
		}
	}
	return c
}

// Pump drains decisions into executors through smr.PumpAll and returns
// replies. The replicas cannot snapshot, so no restore can fail.
func (c *Cluster) Pump() []types.Reply {
	replies, _, _ := smr.PumpAll(c.Replicas, c.Execs)
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
	out := make([][]types.Decision, len(c.Replicas))
	for i, rep := range c.Replicas {
		out[i] = rep.TakeDecisions()
	}
	return out
}

// Submit queues a request at every replica (any rotating leader will
// include it; commit-time dedup keeps it exactly-once).
func (c *Cluster) Submit(req types.Value) {
	for i := range c.Replicas {
		c.Inject(Message{Kind: MsgRequest, From: -1, To: types.NodeID(i), Req: req})
	}
}

// MinExecuted returns the lowest committed height among live replicas,
// skipping the listed byzantine ones.
func (c *Cluster) MinExecuted(byzantine ...types.NodeID) uint64 {
	skip := map[types.NodeID]bool{}
	for _, b := range byzantine {
		skip[b] = true
	}
	min := ^uint64(0)
	for _, rep := range c.Replicas {
		if skip[rep.id] || c.Crashed(rep.id) {
			continue
		}
		if rep.ExecutedHeight() < min {
			min = rep.ExecutedHeight()
		}
	}
	return min
}
