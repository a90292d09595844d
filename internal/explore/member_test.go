package explore

import (
	"testing"

	"fortyconsensus/internal/nemesis"
	"fortyconsensus/internal/simnet"
)

// A directed schedule: vote node 4 out early, re-admit it long after
// every survivor has compacted. The run can only end healthy if the
// fresh instance caught up through a snapshot install (the log prefix
// it needs is gone cluster-wide), so OutcomeOK asserts the whole
// remove → compact → re-add → InstallSnapshot → commit pipeline.
func TestRaftMemberSnapshotCatchUp(t *testing.T) {
	p, ok := Lookup("raft-member")
	if !ok {
		t.Fatal("raft-member not registered")
	}
	sched := nemesis.Schedule{Events: []nemesis.Event{
		{At: 80, Op: nemesis.OpRemoveNode, Node: 4},
		{At: 400, Op: nemesis.OpAddNode, Node: 4},
	}}
	res := RunOnce(p, 7, 0, 0, sched)
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome %s (violation %v)", res.Outcome, res.Violation)
	}
	// Bit-identical replay: the trace hash pins every message, every
	// snapshot transfer, and every membership change.
	again := RunOnce(p, 7, 0, 0, sched)
	if again.Hash != res.Hash {
		t.Fatalf("replay hash %s != %s", again.Hash, res.Hash)
	}
}

// A node removed and re-admitted before its removal commits keeps its
// old instance until the removal is in the committed history. Swapping
// the fresh instance in earlier let it vote, with an empty log, while
// still a member, and elect a leader missing committed entries.
func TestRaftMemberReAdmitWaitsForRemoval(t *testing.T) {
	e := newRaftMemberEpisode(5, 7)
	mt := e.Target.(memberTarget)
	ep := mt.ep
	old := ep.c.Nodes[4]
	// Both events land before any leader exists, so the removal cannot
	// have committed when the re-admission arrives.
	mt.RemoveNode(4)
	mt.AddNode(4)
	now := 0
	for ; now < 600 && len(ep.pending) == 2; now++ {
		if ep.c.Nodes[4] != old {
			t.Fatalf("tick %d: fresh instance swapped in before the removal committed", now)
		}
		e.Tick(now)
	}
	if memberIn(ep.members, 4) {
		t.Fatal("removal never committed")
	}
	for ; now < 1200 && len(ep.pending) > 0; now++ {
		e.Tick(now)
	}
	if ep.c.Nodes[4] == old || !memberIn(ep.members, 4) {
		t.Fatal("node 4 was not re-admitted as a fresh instance")
	}
	if v := e.Check(); v != nil {
		t.Fatal(v)
	}
}

// A seeded campaign mixing membership churn with crashes and
// partitions: no schedule may produce a safety violation, and the
// sweep must be deterministic end to end.
func TestRaftMemberCampaign(t *testing.T) {
	p, _ := Lookup("raft-member")
	camp := Campaign{
		Proto: p, Seeds: 6, SeedBase: 300, Faults: 3,
		Classes: []nemesis.Op{nemesis.OpRemoveNode, nemesis.OpCrash, nemesis.OpPartition},
	}
	res := camp.Run()
	if res.Outcomes[OutcomeViolation] > 0 {
		for _, f := range res.Failures {
			t.Errorf("seed %d: %v\n%s", f.Result.Seed, f.Result.Violation, f.Spec.Encode())
		}
		t.Fatal("membership campaign produced violations")
	}
	if _, ok := res.Matrix["rmnode"]; !ok {
		t.Fatal("no generated schedule contained a membership change")
	}
	again := camp.Run()
	if len(again.Outcomes) != len(res.Outcomes) {
		t.Fatalf("replayed campaign outcomes %v != %v", again.Outcomes, res.Outcomes)
	}
	for k, v := range res.Outcomes {
		if again.Outcomes[k] != v {
			t.Fatalf("replayed campaign outcomes %v != %v", again.Outcomes, res.Outcomes)
		}
	}
}

// Generated membership faults must be well-formed pairs the spec codec
// round-trips.
func TestMembershipScheduleRoundTrip(t *testing.T) {
	sched := nemesis.Generate(simnet.NewRNG(9), nemesis.GenConfig{
		Nodes: nodeIDs(5), Horizon: 600, Faults: 6,
		Classes: []nemesis.Op{nemesis.OpRemoveNode},
	})
	if sched.FaultCount() == 0 {
		t.Fatal("generator produced no membership faults")
	}
	sp := &nemesis.Spec{Protocol: "raft-member", Nodes: 5, Seed: 9, Horizon: 600, Schedule: sched}
	dec, err := nemesis.Decode(sp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Schedule.Events) != len(sched.Events) {
		t.Fatalf("round-trip lost events: %d != %d", len(dec.Schedule.Events), len(sched.Events))
	}
	for i, e := range dec.Schedule.Events {
		want := sched.Events[i]
		if e.Op != want.Op || e.At != want.At || e.Node != want.Node {
			t.Fatalf("event %d: %+v != %+v", i, e, want)
		}
	}
}
