package smr

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// fakeModule is a scripted decision stream with the compactor surface.
// calls records the order in which a Replica touches it.
type fakeModule struct {
	decisions []types.Decision
	installed *snapshot.Snapshot
	refuse    bool
	calls     []string
}

func (m *fakeModule) TakeDecisions() []types.Decision {
	m.calls = append(m.calls, "decide")
	ds := m.decisions
	m.decisions = nil
	return ds
}

func (m *fakeModule) TakeInstalledSnapshot() *snapshot.Snapshot {
	s := m.installed
	m.installed = nil
	if s != nil {
		m.calls = append(m.calls, "install")
	}
	return s
}

func (m *fakeModule) Compact(upTo types.Seq, state []byte) bool {
	m.calls = append(m.calls, fmt.Sprintf("compact %d", upTo))
	return !m.refuse
}

// incrs returns the decisions for slots lo..hi, each one client-1
// increment of "n" at seqno == slot.
func incrs(lo, hi types.Seq) []types.Decision {
	var ds []types.Decision
	for s := lo; s <= hi; s++ {
		ds = append(ds, types.Decision{Slot: s, Val: req(1, uint64(s), kvstore.Incr("n", 1))})
	}
	return ds
}

func collect(replies *[]types.Reply) func(types.Reply) {
	return func(r types.Reply) { *replies = append(*replies, r) }
}

func TestReplicaInstallApplyCompactOrder(t *testing.T) {
	ref := NewExecutor(0, kvstore.New())
	for _, d := range incrs(1, 3) {
		ref.Commit(d)
	}
	mod := &fakeModule{
		installed: &snapshot.Snapshot{LastIndex: 3, State: ref.SnapshotState()},
		decisions: incrs(2, 5), // 2 and 3 are covered by the snapshot
	}
	r := NewReplica(mod, NewExecutor(1, kvstore.New()), 2)
	var replies []types.Reply
	ds, err := r.Pump(collect(&replies))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"install", "decide", "compact 5"}; !reflect.DeepEqual(mod.calls, want) {
		t.Fatalf("calls %v, want %v", mod.calls, want)
	}
	if len(ds) != 4 || r.Installs() != 1 || r.Executor().NextSlot() != 6 {
		t.Fatalf("decisions %d installs %d next %d", len(ds), r.Installs(), r.Executor().NextSlot())
	}
	if len(replies) != 2 || replies[0].SeqNo != 4 || replies[1].SeqNo != 5 {
		t.Fatalf("replies %+v", replies)
	}
	// The applied suffix built on the restored state.
	for _, d := range incrs(4, 5) {
		ref.Commit(d)
	}
	if !bytes.Equal(r.Executor().SnapshotState(), ref.SnapshotState()) {
		t.Fatal("replica state differs from an executor that applied every slot")
	}
}

func TestReplicaCorruptSnapshot(t *testing.T) {
	mod := &fakeModule{
		installed: &snapshot.Snapshot{LastIndex: 9, State: []byte("garbage")},
		decisions: incrs(1, 2),
	}
	r := NewReplica(mod, NewExecutor(0, kvstore.New()), 0)
	var replies []types.Reply
	if _, err := r.Pump(collect(&replies)); !errors.Is(err, ErrDecode) {
		t.Fatalf("corrupt snapshot: err %v, want ErrDecode", err)
	}
	if r.Installs() != 0 {
		t.Fatal("a failed restore counted as an install")
	}
	if r.Executor().NextSlot() != 3 || len(replies) != 2 {
		t.Fatalf("the turn's decisions did not apply: next %d, %d replies", r.Executor().NextSlot(), len(replies))
	}
	mod.decisions = incrs(3, 3)
	if _, err := r.Pump(collect(&replies)); err != nil {
		t.Fatal(err)
	}
	if r.Executor().NextSlot() != 4 || len(replies) != 3 {
		t.Fatalf("later decisions did not apply: next %d, %d replies", r.Executor().NextSlot(), len(replies))
	}
}

func TestReplicaRetriesRefusedCompact(t *testing.T) {
	mod := &fakeModule{}
	r := NewReplica(mod, NewExecutor(0, kvstore.New()), 2)
	drop := func(types.Reply) {}
	steps := []struct {
		ds     []types.Decision
		refuse bool
		want   []string
	}{
		{incrs(1, 2), true, []string{"decide", "compact 2"}}, // refused
		{nil, false, []string{"decide", "compact 2"}},        // retried, accepted
		{incrs(3, 3), false, []string{"decide"}},             // 3 < 2+2
		{incrs(4, 4), false, []string{"decide", "compact 4"}},
	}
	for i, s := range steps {
		mod.decisions, mod.refuse, mod.calls = s.ds, s.refuse, nil
		if _, err := r.Pump(drop); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mod.calls, s.want) {
			t.Fatalf("pump %d: calls %v, want %v", i, mod.calls, s.want)
		}
	}
}

func TestReplicaEveryZeroNeverCompacts(t *testing.T) {
	mod := &fakeModule{}
	r := NewReplica(mod, NewExecutor(0, kvstore.New()), 0)
	for lo := types.Seq(1); lo < 500; lo += 50 {
		mod.decisions = incrs(lo, lo+49)
		if _, err := r.Pump(func(types.Reply) {}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range mod.calls {
		if c != "decide" {
			t.Fatalf("every == 0 called %q", c)
		}
	}
	if r.Executor().NextSlot() != 501 {
		t.Fatalf("next %d", r.Executor().NextSlot())
	}
}

// TestPumpAllNilExecsDrains: a harness built without state machines
// drains its modules' decisions and leaves installs to the caller.
func TestPumpAllNilExecsDrains(t *testing.T) {
	snap := &snapshot.Snapshot{LastIndex: 1}
	mods := []*fakeModule{{decisions: incrs(1, 1), installed: snap}, {decisions: incrs(1, 2)}}
	replies, ds, err := PumpAll(mods, nil)
	if err != nil || len(replies) != 0 {
		t.Fatalf("replies %v err %v", replies, err)
	}
	if len(ds) != 2 || len(ds[0]) != 1 || len(ds[1]) != 2 {
		t.Fatalf("decisions %v", ds)
	}
	if mods[0].decisions != nil || mods[1].decisions != nil || mods[0].installed != snap {
		t.Fatal("PumpAll did not drain only the decisions")
	}
}

// TestPumpAllAppliesInReplicaOrder: each module's decisions apply to
// its own executor, replies come back in replica order, and a corrupt
// install on one replica is reported after every replica has pumped.
func TestPumpAllAppliesInReplicaOrder(t *testing.T) {
	mods := []*fakeModule{
		{decisions: incrs(1, 2), installed: &snapshot.Snapshot{LastIndex: 5, State: []byte("garbage")}},
		{decisions: incrs(1, 1)},
	}
	execs := []*Executor{NewExecutor(0, kvstore.New()), NewExecutor(1, kvstore.New())}
	replies, ds, err := PumpAll(mods, execs)
	if !errors.Is(err, ErrDecode) {
		t.Fatalf("err %v, want ErrDecode", err)
	}
	if len(ds) != 2 || len(ds[0]) != 2 || len(ds[1]) != 1 {
		t.Fatalf("decisions %v", ds)
	}
	if execs[0].NextSlot() != 3 || execs[1].NextSlot() != 2 {
		t.Fatalf("next slots %d, %d", execs[0].NextSlot(), execs[1].NextSlot())
	}
	var got []types.NodeID
	for _, r := range replies {
		got = append(got, r.Node)
	}
	if want := []types.NodeID{0, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reply replicas %v, want %v", got, want)
	}
}
