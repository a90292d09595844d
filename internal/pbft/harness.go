package pbft

import (
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// Cluster bundles 3f+1 PBFT replicas with SMR executors.
type Cluster struct {
	*runner.Cluster[Message]
	Replicas []*Replica
	Execs    []*smr.Executor
	F        int
}

// NewCluster builds a 3f+1 replica cluster; newSM may be nil.
func NewCluster(f int, fabric *simnet.Fabric, cfg Config, newSM func() smr.StateMachine) *Cluster {
	n := quorum.Byzantine{F: f}.Size()
	cfg.N, cfg.F = n, f
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

// Submit injects a client request at the given replica.
func (c *Cluster) Submit(at types.NodeID, req types.Value) {
	c.Inject(Message{Kind: MsgRequest, From: -1, To: at, Req: req})
}

// ExecutedEverywhere reports whether every live, correct replica has
// executed through seq. byzantine lists replicas excluded from the check.
func (c *Cluster) ExecutedEverywhere(seq types.Seq, byzantine ...types.NodeID) bool {
	skip := map[types.NodeID]bool{}
	for _, b := range byzantine {
		skip[b] = true
	}
	for _, rep := range c.Replicas {
		if skip[rep.id] || c.Crashed(rep.id) {
			continue
		}
		if rep.ExecutedFrontier() < seq {
			return false
		}
	}
	return true
}

// MatchingReplies counts replies for (client, seqno) agreeing on the
// same result; a client accepts at f+1 matching replies.
func MatchingReplies(replies []types.Reply, client types.ClientID, seqno uint64) (types.Value, int) {
	counts := map[string]int{}
	var best types.Value
	bestN := 0
	for _, r := range replies {
		if r.Client != client || r.SeqNo != seqno {
			continue
		}
		counts[string(r.Result)]++
		if counts[string(r.Result)] > bestN {
			bestN = counts[string(r.Result)]
			best = r.Result
		}
	}
	return best, bestN
}
