package raft

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// trio is a hand-driven 3-node cluster: node 0 leads, and the test
// decides which drained message reaches which node, in what order.
type trio struct {
	t     *testing.T
	nodes map[types.NodeID]*Node
	lead  *Node
}

// newTrio elects node 0 and completes its first round, so both
// followers hold the election no-op and are in the replicating state.
func newTrio(t *testing.T) *trio {
	t.Helper()
	peers := []types.NodeID{0, 1, 2}
	tr := &trio{t: t, nodes: map[types.NodeID]*Node{}}
	for _, id := range peers {
		tr.nodes[id] = New(id, Config{Peers: peers, Seed: 41})
	}
	tr.lead = tr.nodes[0]
	for i := 0; i < 100 && tr.lead.role != candidate; i++ {
		tr.lead.Tick()
	}
	tr.lead.Drain() // RequestVotes
	tr.lead.Step(Message{Kind: MsgVote, From: 1, To: 0, Term: tr.lead.term, Granted: true})
	if !tr.lead.IsLeader() {
		t.Fatal("setup: node 0 did not become leader")
	}
	tr.deliver(tr.lead.Drain())
	tr.settle()
	for _, p := range []types.NodeID{1, 2} {
		if pr := tr.lead.prs[p]; pr.probing || pr.match != tr.lead.lastIndex() {
			t.Fatalf("setup: follower %v progress %+v, leader last %d", p, *pr, tr.lead.lastIndex())
		}
	}
	return tr
}

// deliver steps each message at its destination, in order.
func (tr *trio) deliver(msgs []Message) {
	for _, m := range msgs {
		tr.nodes[m.To].Step(m)
	}
}

// settle delivers every node's output until the cluster is quiet.
func (tr *trio) settle() {
	for r := 0; r < 100; r++ {
		var pending []Message
		for _, id := range []types.NodeID{0, 1, 2} {
			pending = append(pending, tr.nodes[id].Drain()...)
		}
		if len(pending) == 0 {
			return
		}
		tr.deliver(pending)
	}
	tr.t.Fatal("cluster did not settle")
}

// heartbeat ticks the leader until its next heartbeat round goes out,
// returning that round's messages.
func (tr *trio) heartbeat() []Message {
	for i := 0; i <= tr.lead.cfg.HeartbeatTicks; i++ {
		tr.lead.Tick()
		if out := tr.lead.Drain(); len(out) > 0 {
			return out
		}
	}
	tr.t.Fatal("no heartbeat")
	return nil
}

// appendsTo filters msgs down to the AppendEntries addressed to p.
func appendsTo(msgs []Message, p types.NodeID) []Message {
	var out []Message
	for _, m := range msgs {
		if m.Kind == MsgAppend && m.To == p {
			out = append(out, m)
		}
	}
	return out
}

// checkConverged requires every follower's log and commit index to
// match the leader's.
func (tr *trio) checkConverged() {
	tr.t.Helper()
	for _, p := range []types.NodeID{1, 2} {
		f := tr.nodes[p]
		if f.lastIndex() != tr.lead.lastIndex() || f.CommitFrontier() != tr.lead.CommitFrontier() {
			tr.t.Fatalf("follower %v last=%d commit=%d, leader last=%d commit=%d",
				p, f.lastIndex(), f.CommitFrontier(), tr.lead.lastIndex(), tr.lead.CommitFrontier())
		}
		for i := types.Seq(1); i <= f.lastIndex(); i++ {
			if f.at(i).Term != tr.lead.at(i).Term || !f.at(i).Val.Equal(tr.lead.at(i).Val) {
				tr.t.Fatalf("follower %v entry %d differs from the leader's", p, i)
			}
		}
	}
}

func TestPipelinedSubmitSendsOnlyTheNewEntry(t *testing.T) {
	tr := newTrio(t)
	var inflight []Message
	for i := 0; i < 5; i++ {
		v := types.Value(fmt.Sprintf("v%d", i))
		tr.lead.Submit(v)
		out := tr.lead.Drain()
		if len(out) != 2 {
			t.Fatalf("submit %d: %d messages, want one append per follower", i, len(out))
		}
		for _, p := range []types.NodeID{1, 2} {
			as := appendsTo(out, p)
			if len(as) != 1 || len(as[0].Entries) != 1 || !as[0].Entries[0].Val.Equal(v) ||
				as[0].PrevIndex != tr.lead.lastIndex()-1 {
				t.Fatalf("submit %d to %v: %+v, want only the new entry at %d", i, p, as, tr.lead.lastIndex())
			}
		}
		inflight = append(inflight, out...) // nothing acked yet
	}
	tr.deliver(inflight)
	tr.settle()
	tr.deliver(tr.heartbeat()) // carries the commit index
	tr.settle()
	tr.checkConverged()
}

func TestDroppedAppendRecoveredByHeartbeatProbe(t *testing.T) {
	tr := newTrio(t)
	tr.lead.Submit(types.Value("lost"))
	out := tr.lead.Drain()
	tr.deliver(appendsTo(out, 2)) // follower 1's copy is lost
	tr.settle()
	if tr.nodes[1].lastIndex() == tr.lead.lastIndex() {
		t.Fatal("setup: follower 1 holds the lost entry")
	}

	// The heartbeat is anchored past the lost entry, so follower 1
	// rejects it; the leader probes and resends exactly what is missing.
	hb := tr.heartbeat()
	tr.deliver(appendsTo(hb, 1))
	rej := tr.nodes[1].Drain()
	if len(rej) != 1 || rej[0].Success {
		t.Fatalf("follower 1 answered the heartbeat with %+v, want a reject", rej)
	}
	tr.deliver(rej)
	if !tr.lead.prs[1].probing {
		t.Fatal("reject did not switch follower 1 to probing")
	}
	probe := appendsTo(tr.lead.Drain(), 1)
	if len(probe) != 1 || len(probe[0].Entries) != 1 || !probe[0].Entries[0].Val.Equal(types.Value("lost")) {
		t.Fatalf("probe %+v, want exactly the lost entry", probe)
	}

	// The probe is lost too. While it is outstanding a probing follower
	// gets nothing new; the next heartbeat resends the probe.
	tr.lead.Submit(types.Value("later"))
	out = tr.lead.Drain()
	if as := appendsTo(out, 1); len(as) != 0 {
		t.Fatalf("probing follower sent %+v with a probe outstanding", as)
	}
	tr.deliver(out)
	tr.settle()
	probe = appendsTo(tr.heartbeat(), 1)
	if len(probe) != 1 || len(probe[0].Entries) != 2 || !probe[0].Entries[0].Val.Equal(types.Value("lost")) {
		t.Fatalf("heartbeat probe %+v, want the lost entry and the one after it", probe)
	}
	tr.deliver(probe)
	tr.settle()
	if tr.lead.prs[1].probing {
		t.Fatal("probe ack did not return follower 1 to replicating")
	}
	tr.deliver(tr.heartbeat())
	tr.settle()
	tr.checkConverged()
}

func TestReorderedAppendsRewindOnce(t *testing.T) {
	tr := newTrio(t)
	base := tr.lead.lastIndex()
	var toF1 []Message
	for i := 0; i < 3; i++ {
		tr.lead.Submit(types.Value(fmt.Sprintf("r%d", i)))
		out := tr.lead.Drain()
		toF1 = append(toF1, appendsTo(out, 1)...)
		tr.deliver(appendsTo(out, 2))
	}
	// Follower 1 receives the three appends newest first: the first two
	// arrive ahead of a gap and are rejected.
	tr.deliver([]Message{toF1[2], toF1[1], toF1[0]})
	resps := tr.nodes[1].Drain()
	if len(resps) != 3 || resps[0].Success || resps[1].Success || !resps[2].Success {
		t.Fatalf("follower 1 responses %+v, want reject, reject, ack", resps)
	}

	// The first reject rewinds to the follower's hint and sends one
	// probe; the second is from an append sent before that rewind and
	// must not rewind again.
	tr.lead.Step(resps[0])
	if pr := tr.lead.prs[1]; !pr.probing || pr.next != base+1 {
		t.Fatalf("after first reject: %+v, want probing from %d", *pr, base+1)
	}
	if probe := appendsTo(tr.lead.Drain(), 1); len(probe) != 1 || probe[0].PrevIndex != base {
		t.Fatalf("first reject sent %+v, want one probe at %d", probe, base)
	}
	tr.lead.Step(resps[1])
	if pr := tr.lead.prs[1]; pr.next != base+1 {
		t.Fatalf("stale reject moved next to %d", pr.next)
	}
	if out := tr.lead.Drain(); len(out) != 0 {
		t.Fatalf("stale reject sent %+v", out)
	}
	tr.lead.Step(resps[2])
	tr.settle()
	tr.deliver(tr.heartbeat())
	tr.settle()
	tr.checkConverged()
}

func TestStaleRejectIgnoredWhileReplicating(t *testing.T) {
	tr := newTrio(t)
	for i := 0; i < 3; i++ {
		tr.lead.Submit(types.Value{byte(i)})
	}
	tr.settle()
	before := *tr.lead.prs[1]
	// A reject of an append at or below the acked match index is from a
	// superseded exchange: the follower already holds that prefix.
	tr.lead.Step(Message{Kind: MsgAppendResp, From: 1, To: 0, Term: tr.lead.term,
		PrevIndex: before.match - 1, MatchIndex: 0})
	if got := *tr.lead.prs[1]; got != before {
		t.Fatalf("stale reject changed progress %+v → %+v", before, got)
	}
	if out := tr.lead.Drain(); len(out) != 0 {
		t.Fatalf("stale reject sent %+v", out)
	}
}

func TestInflightCapPausesSilentFollower(t *testing.T) {
	tr := newTrio(t)
	var toSilent []Message
	for i := 0; i < maxInflight+20; i++ {
		tr.lead.Submit(types.Value{byte(i)})
		out := tr.lead.Drain()
		toSilent = append(toSilent, appendsTo(out, 2)...)
		tr.deliver(appendsTo(out, 1)) // follower 1 keeps acking
		tr.settle()
	}
	sent := 0
	for _, m := range toSilent {
		sent += len(m.Entries)
	}
	if sent != maxInflight {
		t.Fatalf("sent %d unacked entries to the silent follower, want the cap %d", sent, maxInflight)
	}
	if tr.lead.CommitFrontier() != tr.lead.lastIndex() {
		t.Fatalf("commit %d stalled below %d", tr.lead.CommitFrontier(), tr.lead.lastIndex())
	}
	// Heartbeats keep going to the paused follower, probing past the
	// window without adding to it.
	for round := 0; round < 3; round++ {
		hb := appendsTo(tr.heartbeat(), 2)
		if len(hb) != 1 || len(hb[0].Entries) != 0 {
			t.Fatalf("heartbeat %d to the silent follower: %+v", round, hb)
		}
	}
}

func TestReaddedMemberGetsFreshProgress(t *testing.T) {
	tr := newTrio(t)
	tr.lead.Submit(confVal(snapshot.ConfRemove, 2))
	for i := 0; i < 3; i++ {
		tr.lead.Submit(types.Value(fmt.Sprintf("v%d", i)))
	}
	tr.settle()
	tr.deliver(tr.heartbeat())
	tr.settle()
	if tr.lead.isMember(2) || tr.lead.CommitFrontier() != tr.lead.lastIndex() {
		t.Fatalf("setup: members %v, commit %d of %d", tr.lead.Members(), tr.lead.CommitFrontier(), tr.lead.lastIndex())
	}

	// Node 2 comes back under the same ID with an empty log, and the
	// same leader (no compaction) must catch it up by entry replay: the
	// old node's match index must not survive the removal.
	peers := []types.NodeID{0, 1, 2}
	tr.nodes[2] = New(2, Config{Peers: peers, Passive: true, Seed: 43})
	tr.lead.Submit(confVal(snapshot.ConfAdd, 2))
	tr.settle()
	for i := 0; i < 3; i++ {
		tr.deliver(tr.heartbeat())
		tr.settle()
	}
	tr.checkConverged()
}
