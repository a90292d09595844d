package multipaxos

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// trio is a hand-driven 3-node cluster: node 0 leads, and the test
// decides which drained message reaches which node, and when. Nodes
// tick only when the test ticks them.
type trio struct {
	t     *testing.T
	nodes map[types.NodeID]*Node
	lead  *Node
}

// newTrio elects node 0 and lets the election's traffic settle.
func newTrio(t *testing.T) *trio {
	t.Helper()
	peers := []types.NodeID{0, 1, 2}
	tr := &trio{t: t, nodes: map[types.NodeID]*Node{}}
	for _, id := range peers {
		tr.nodes[id] = New(id, Config{Peers: peers, Seed: 41})
	}
	tr.lead = tr.nodes[0]
	tr.campaign(tr.lead)
	tr.settle()
	if !tr.lead.IsLeader() {
		t.Fatal("setup: node 0 did not become leader")
	}
	return tr
}

// campaign ticks n until it starts an election.
func (tr *trio) campaign(n *Node) {
	tr.t.Helper()
	for i := 0; i < 1000 && n.role != candidate; i++ {
		n.Tick()
	}
	if n.role != candidate {
		tr.t.Fatalf("node %v never campaigned", n.id)
	}
}

// deliver steps each message at its destination, in order; messages to
// nodes outside the trio (a member being added) are dropped.
func (tr *trio) deliver(msgs []Message) {
	for _, m := range msgs {
		if n, ok := tr.nodes[m.To]; ok {
			n.Step(m)
		}
	}
}

// settle delivers every node's output until the cluster is quiet.
func (tr *trio) settle() {
	tr.t.Helper()
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

// submit hands the leader k values in one turn.
func (tr *trio) submit(k int) {
	for i := 0; i < k; i++ {
		tr.lead.Submit(types.Value(fmt.Sprintf("v%03d", i)))
	}
}

// ofKind returns the messages of kind k, in order.
func ofKind(msgs []Message, k MsgKind) []Message {
	var out []Message
	for _, m := range msgs {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	return out
}

// entryCounts returns each message's destination and entry count.
func entryCounts(msgs []Message) []string {
	var out []string
	for _, m := range msgs {
		out = append(out, fmt.Sprintf("%d:%d", int(m.To), len(m.Entries)))
	}
	return out
}

// TestBatchPhase2OneMessagePerFollower: k Submits before one Drain
// cost one Accept per follower carrying k entries, one Accepted back
// from each follower, and one Commit per follower carrying k entries.
func TestBatchPhase2OneMessagePerFollower(t *testing.T) {
	const k = 5
	tr := newTrio(t)
	base := tr.lead.CommitFrontier()
	tr.submit(k)

	out := tr.lead.Drain()
	accepts := ofKind(out, MsgAccept)
	if len(out) != 2 || len(accepts) != 2 || fmt.Sprint(entryCounts(accepts)) != "[1:5 2:5]" {
		t.Fatalf("leader drained %d messages, accepts %v; want one 5-entry Accept per follower", len(out), entryCounts(accepts))
	}
	for i, e := range accepts[0].Entries {
		if e.Slot != base+types.Seq(i+1) || e.AcceptNum != tr.lead.curBallot || string(e.Val) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("accept entry %d = %+v", i, e)
		}
	}
	tr.deliver(out)

	var acks []Message
	for _, id := range []types.NodeID{1, 2} {
		got := tr.nodes[id].Drain()
		if len(got) != 1 || got[0].Kind != MsgAccepted || len(got[0].Entries) != k {
			t.Fatalf("follower %v answered %+v, want one Accepted listing %d slots", id, got, k)
		}
		for _, e := range got[0].Entries {
			if e.Val != nil {
				t.Fatalf("Accepted carries a value: %+v", e)
			}
		}
		acks = append(acks, got...)
	}
	tr.deliver(acks)

	out = tr.lead.Drain()
	commits := ofKind(out, MsgCommit)
	if len(out) != 2 || fmt.Sprint(entryCounts(commits)) != "[1:5 2:5]" {
		t.Fatalf("leader drained %d messages, commits %v; want one 5-entry Commit per follower", len(out), entryCounts(commits))
	}
	if got := tr.lead.CommitFrontier(); got != base+k {
		t.Fatalf("leader frontier %d, want %d", got, base+k)
	}
	tr.deliver(out)
	for _, id := range []types.NodeID{1, 2} {
		if got := tr.nodes[id].CommitFrontier(); got != base+k {
			t.Fatalf("follower %v frontier %d, want %d", id, got, base+k)
		}
	}
}

// TestBatchSplitsAtMaxBatch: a turn of more than maxBatch Submits goes
// out as Accepts of at most maxBatch entries, and the Commits for them
// split the same way.
func TestBatchSplitsAtMaxBatch(t *testing.T) {
	const k = 2*maxBatch + 2
	tr := newTrio(t)
	base := tr.lead.CommitFrontier()
	tr.submit(k)

	out := tr.lead.Drain()
	want := fmt.Sprint([]string{"1:64", "2:64", "1:64", "2:64", "1:2", "2:2"})
	if got := fmt.Sprint(entryCounts(ofKind(out, MsgAccept))); len(out) != 6 || got != want {
		t.Fatalf("accepts %s, want %s", got, want)
	}
	tr.deliver(out)
	acks := tr.nodes[1].Drain()
	if len(acks) != 3 {
		t.Fatalf("follower 1 answered %d messages, want 3 Accepteds", len(acks))
	}
	tr.deliver(acks)
	out = tr.lead.Drain()
	if got := fmt.Sprint(entryCounts(ofKind(out, MsgCommit))); len(out) != 6 || got != want {
		t.Fatalf("commits %s, want %s", got, want)
	}
	if got := tr.lead.CommitFrontier(); got != base+k {
		t.Fatalf("leader frontier %d, want %d", got, base+k)
	}
}

// TestBatchDroppedOnStepDown: a leader that steps down with buffered
// phase-2 messages sends none of them at its old ballot, whether it
// learns of the higher ballot from a Prepare or from a Nack.
func TestBatchDroppedOnStepDown(t *testing.T) {
	higher := func(tr *trio) types.Ballot { return tr.lead.curBallot.Next(1) }
	stepDowns := map[string]func(tr *trio){
		"prepare": func(tr *trio) {
			tr.lead.Step(Message{Kind: MsgPrepare, From: 1, To: 0, Ballot: higher(tr)})
		},
		"nack": func(tr *trio) {
			tr.lead.Step(Message{Kind: MsgNack, From: 1, To: 0, Ballot: higher(tr)})
		},
	}
	for _, name := range []string{"prepare", "nack"} {
		t.Run(name+"/accepts", func(t *testing.T) {
			tr := newTrio(t)
			tr.submit(3)
			stepDowns[name](tr)
			if tr.lead.IsLeader() {
				t.Fatal("leader did not step down")
			}
			if out := tr.lead.Drain(); len(ofKind(out, MsgAccept)) != 0 {
				t.Fatalf("stepped-down leader sent Accepts: %+v", out)
			}
		})
		t.Run(name+"/commits", func(t *testing.T) {
			tr := newTrio(t)
			tr.submit(3)
			tr.deliver(tr.lead.Drain())
			tr.deliver(tr.nodes[1].Drain())
			stepDowns[name](tr)
			if out := tr.lead.Drain(); len(ofKind(out, MsgCommit)) != 0 {
				t.Fatalf("stepped-down leader sent Commits: %+v", out)
			}
		})
	}
}

// TestBatchRecoveredSlots: a new leader re-proposes every recovered
// slot, holes filled with no-ops, as one Accept per follower.
func TestBatchRecoveredSlots(t *testing.T) {
	tr := newTrio(t)
	old := tr.lead.curBallot
	// Node 1 accepted slots 1 and 3 of the old leader; slot 2 never
	// reached it.
	tr.nodes[1].Step(Message{Kind: MsgAccept, From: 0, To: 1, Ballot: old, Entries: []Entry{
		{Slot: 1, AcceptNum: old, Val: types.Value("a")},
		{Slot: 3, AcceptNum: old, Val: types.Value("c")},
	}})
	tr.nodes[1].Drain()

	n1 := tr.nodes[1]
	tr.campaign(n1)
	prepares := n1.Drain()
	for _, m := range prepares {
		if m.To == 2 {
			tr.nodes[2].Step(m)
		}
	}
	tr.deliver(tr.nodes[2].Drain()) // node 2's Ack elects node 1
	if !n1.IsLeader() {
		t.Fatal("node 1 did not become leader")
	}
	out := n1.Drain()
	accepts := ofKind(out, MsgAccept)
	if fmt.Sprint(entryCounts(accepts)) != "[0:3 2:3]" {
		t.Fatalf("new leader accepts %v, want one 3-entry Accept per follower", entryCounts(accepts))
	}
	want := []string{"a", "", "c"}
	for i, e := range accepts[0].Entries {
		if e.Slot != types.Seq(i+1) || string(e.Val) != want[i] || e.AcceptNum != n1.curBallot {
			t.Fatalf("recovered entry %d = %+v, want slot %d %q at %v", i, e, i+1, want[i], n1.curBallot)
		}
	}
}

// TestBatchConfChange: a membership change inside a batch is still
// vetted by confAllowed (a second change in the same turn is dropped)
// and activates at its choose slot + Alpha on every replica.
func TestBatchConfChange(t *testing.T) {
	tr := newTrio(t)
	base := tr.lead.CommitFrontier()
	tr.lead.Submit(types.Value("before"))
	tr.lead.Submit(confVal(snapshot.ConfAdd, 3))
	tr.lead.Submit(confVal(snapshot.ConfAdd, 4)) // overlapping: dropped
	tr.lead.Submit(types.Value("after"))
	out := tr.lead.Drain()
	accepts := ofKind(out, MsgAccept)
	if len(accepts) != 2 || len(accepts[0].Entries) != 3 {
		t.Fatalf("accepts %v, want one 3-entry Accept per follower", entryCounts(accepts))
	}
	confSlot := base + 2
	if e := accepts[0].Entries[1]; e.Slot != confSlot || !snapshot.IsConfChange(e.Val) {
		t.Fatalf("entry 1 = %+v, want the conf change at slot %d", e, confSlot)
	}
	tr.deliver(out)
	tr.settle()
	for _, id := range []types.NodeID{0, 1, 2} {
		n := tr.nodes[id]
		if n.CommitFrontier() != base+3 {
			t.Fatalf("node %v frontier %d, want %d", id, n.CommitFrontier(), base+3)
		}
		ep := n.configs[len(n.configs)-1]
		if ep.from != confSlot+Alpha || fmt.Sprint(ep.members) != "[n0 n1 n2 n3]" {
			t.Fatalf("node %v epoch (%d, %v), want (%d, [n0 n1 n2 n3])", id, ep.from, ep.members, confSlot+Alpha)
		}
	}
	if q := tr.lead.quorumFor(confSlot + Alpha - 1); q != 2 {
		t.Fatalf("pre-activation quorum %d, want 2", q)
	}
	if q := tr.lead.quorumFor(confSlot + Alpha); q != 3 {
		t.Fatalf("post-activation quorum %d, want 3", q)
	}
}

// TestBatchCommitPrecedesHeartbeat: when a turn both chooses slots and
// heartbeats, the Commit leaves first, so no follower sees a heartbeat
// advertising a frontier it has not been sent yet and asks to catch up.
func TestBatchCommitPrecedesHeartbeat(t *testing.T) {
	tr := newTrio(t)
	tr.submit(3)
	tr.deliver(tr.lead.Drain())
	tr.deliver(tr.nodes[1].Drain()) // slots chosen: Commits buffered
	tr.nodes[2].Drain()
	tr.lead.hbCooldown = 1
	tr.lead.Tick() // heartbeat queued behind them
	out := tr.lead.Drain()
	if len(ofKind(out, MsgCommit)) != 2 || len(ofKind(out, MsgHeartbeat)) != 2 {
		t.Fatalf("leader drained %+v, want a Commit and a heartbeat per follower", out)
	}
	tr.deliver(out)
	for _, id := range []types.NodeID{1, 2} {
		if got := ofKind(tr.nodes[id].Drain(), MsgCatchup); len(got) != 0 {
			t.Fatalf("follower %v asked to catch up: %+v", id, got)
		}
	}
}
