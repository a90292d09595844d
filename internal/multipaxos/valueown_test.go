package multipaxos

import (
	"testing"

	"fortyconsensus/internal/types"
	"fortyconsensus/internal/types/valuetest"
)

// TestCommitBatchOwnership pins at runtime what the valueown analyzer
// enforces statically: a learner copies what it needs out of a loaned
// Commit batch and never writes the shared Value bytes in place.
func TestCommitBatchOwnership(t *testing.T) {
	n := New(1, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 5})
	var g valuetest.Guard
	batch := []Entry{
		{Slot: 1, Val: g.Publish("slot 1", types.Value("alpha"))},
		{Slot: 2, Val: g.Publish("slot 2", types.Value("beta"))},
	}
	n.Step(Message{Kind: MsgCommit, From: 0, To: 1, Entries: batch})
	if n.CommitFrontier() != 2 {
		t.Fatalf("commit frontier = %d, want 2", n.CommitFrontier())
	}

	// The sender reuses its buffer after the call returns; the learner's
	// chosen values must be unaffected.
	valuetest.Poison(batch, Entry{Slot: 9, Val: types.Value("poison")})
	ds := n.TakeDecisions()
	if len(ds) != 2 ||
		ds[0].Slot != 1 || !ds[0].Val.Equal(types.Value("alpha")) ||
		ds[1].Slot != 2 || !ds[1].Val.Equal(types.Value("beta")) {
		t.Fatalf("decisions rewritten through the loaned batch slice: %+v", ds)
	}
	g.Check(t)
}

// TestAcceptBatchOwnership: an acceptor copies the slots it accepts out
// of a loaned Accept batch, and leaves the shared Value bytes alone.
func TestAcceptBatchOwnership(t *testing.T) {
	n := New(1, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 5})
	b := types.Ballot{Num: 1, Owner: 0}
	var g valuetest.Guard
	batch := []Entry{
		{Slot: 1, AcceptNum: b, Val: g.Publish("slot 1", types.Value("alpha"))},
		{Slot: 2, AcceptNum: b, Val: g.Publish("slot 2", types.Value("beta"))},
	}
	n.Step(Message{Kind: MsgAccept, From: 0, To: 1, Ballot: b, Entries: batch})
	out := n.Drain()
	if len(out) != 1 || out[0].Kind != MsgAccepted || len(out[0].Entries) != 2 {
		t.Fatalf("acceptor answered %+v, want one Accepted for 2 slots", out)
	}

	valuetest.Poison(batch, Entry{Slot: 9, Val: types.Value("poison")})
	if e := n.accepted[1]; !e.val.Equal(types.Value("alpha")) || e.num != b {
		t.Fatalf("slot 1 accepted state rewritten through the loaned batch: %+v", e)
	}
	if e := n.accepted[2]; !e.val.Equal(types.Value("beta")) {
		t.Fatalf("slot 2 accepted state rewritten through the loaned batch: %+v", e)
	}
	if _, ok := n.accepted[9]; ok {
		t.Fatal("acceptor retained the loaned batch slice")
	}
	if got := out[0].Entries; got[0].Slot != 1 || got[1].Slot != 2 {
		t.Fatalf("Accepted slots rewritten through the loaned batch: %+v", got)
	}
	g.Check(t)
}

// TestDrainHandsOffBatches: the Entries of a drained Accept or Commit
// belong to the messages from then on. Later proposals and commits go
// to a new buffer, and no replica writes the shared Value bytes.
func TestDrainHandsOffBatches(t *testing.T) {
	tr := newTrio(t)
	var g valuetest.Guard
	tr.lead.Submit(g.Publish("a", types.Value("a")))
	tr.lead.Submit(g.Publish("b", types.Value("b")))
	accepts := tr.lead.Drain()
	tr.lead.Submit(g.Publish("c", types.Value("c")))
	if got := accepts[0].Entries; len(got) != 2 || !got[0].Val.Equal(types.Value("a")) || !got[1].Val.Equal(types.Value("b")) {
		t.Fatalf("drained Accept rewritten by a later Submit: %+v", got)
	}

	tr.deliver(accepts)
	tr.deliver(tr.nodes[1].Drain())
	out := tr.lead.Drain() // Accept for c, Commit for a and b
	commits := ofKind(out, MsgCommit)
	if len(commits) != 2 || len(commits[0].Entries) != 2 {
		t.Fatalf("commits %v, want one 2-entry Commit per follower", entryCounts(commits))
	}
	tr.deliver(out)
	tr.settle()
	if got := commits[0].Entries; !got[0].Val.Equal(types.Value("a")) || !got[1].Val.Equal(types.Value("b")) {
		t.Fatalf("drained Commit rewritten by a later commit: %+v", got)
	}
	for _, id := range []types.NodeID{0, 1, 2} {
		if f := tr.nodes[id].CommitFrontier(); f != 3 {
			t.Fatalf("node %v frontier %d, want 3", id, f)
		}
	}
	g.Check(t)
}
