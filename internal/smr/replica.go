package smr

import (
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// Decider is the decision stream a Replica consumes: every protocol
// module's TakeDecisions.
type Decider interface {
	TakeDecisions() []types.Decision
}

// compactor is the optional snapshot surface of a module that can fold
// its log into a snapshot and install one from a peer (raft.Node and
// multipaxos.Node).
type compactor interface {
	// TakeInstalledSnapshot drains the snapshot the module most
	// recently installed from a peer, nil if none.
	TakeInstalledSnapshot() *snapshot.Snapshot
	// Compact folds the log through upTo into state; false means the
	// module refused (e.g. a reconfiguration is pending).
	Compact(upTo types.Seq, state []byte) bool
}

// apply is the stateless part of a pump, in its fixed order: restore a
// snapshot mod installed into exec, then commit mod's new decisions,
// handing each reply to onReply. It returns the decisions, the snapshot
// it restored (nil if none), and the restore error: a snapshot that
// fails to restore is not returned, and the decisions still apply, in
// slot order from the executor's own frontier.
func apply(mod Decider, exec *Executor, onReply func(types.Reply)) ([]types.Decision, *snapshot.Snapshot, error) {
	var restored *snapshot.Snapshot
	var err error
	if c, ok := mod.(compactor); ok {
		if snap := c.TakeInstalledSnapshot(); snap != nil {
			if err = exec.RestoreState(snap.State); err == nil {
				restored = snap
			}
		}
	}
	ds := mod.TakeDecisions()
	for _, d := range ds {
		for _, rep := range exec.Commit(d) {
			onReply(rep)
		}
	}
	return ds, restored, err
}

// Replica is one long-lived replica's decision stage: apply plus log
// compaction on cadence, which needs state kept between pumps. The live
// runtime hosts one per shard group; the sim harnesses, which never
// compact, pump through PumpAll. Routing replies to clients stays with
// the host.
type Replica struct {
	mod  Decider
	exec *Executor

	every       types.Seq // compaction cadence in slots (0 = never)
	lastCompact types.Seq
	installs    int
}

// NewReplica binds mod's decision stream to exec. every > 0 compacts
// the module's log each time the apply frontier is every slots past
// the last compaction (or installed snapshot); every <= 0 never does,
// and neither does a module without the compactor surface, which also
// never installs.
func NewReplica(mod Decider, exec *Executor, every int) *Replica {
	if every < 0 {
		every = 0
	}
	return &Replica{mod: mod, exec: exec, every: types.Seq(every)}
}

// Pump runs one turn of the decision stage:
//  1. restore a snapshot the module installed into the executor;
//  2. commit the module's new decisions, handing each reply to onReply;
//  3. compact once the apply frontier is every slots past the last
//     compaction. A refused Compact is retried on the next pump.
//
// It returns the decisions taken this turn. A snapshot that fails to
// restore is returned as the error and does not count as an install;
// the turn's decisions still apply.
func (r *Replica) Pump(onReply func(types.Reply)) ([]types.Decision, error) {
	ds, snap, err := apply(r.mod, r.exec, onReply)
	if snap != nil {
		r.installs++
		r.lastCompact = snap.LastIndex
	}
	if c, ok := r.mod.(compactor); ok && r.every > 0 {
		if upTo := r.exec.NextSlot() - 1; upTo >= r.lastCompact+r.every &&
			c.Compact(upTo, r.exec.SnapshotState()) {
			r.lastCompact = upTo
		}
	}
	return ds, err
}

// Executor returns the replica's executor.
func (r *Replica) Executor() *Executor { return r.exec }

// Installs counts the snapshots restored from the module's installs.
func (r *Replica) Installs() int { return r.installs }

// PumpAll applies mods[i]'s decisions to execs[i] for every replica of
// a simulated cluster. It returns the replies in replica order and each
// replica's decisions. Nothing is kept between calls, so harness tests
// may splice nodes and executors into those slices between pumps. A
// nil execs drains and drops the decisions. The first failed restore
// is returned after every replica has pumped.
func PumpAll[M Decider](mods []M, execs []*Executor) ([]types.Reply, [][]types.Decision, error) {
	var replies []types.Reply
	onReply := func(rep types.Reply) { replies = append(replies, rep) }
	ds := make([][]types.Decision, len(mods))
	var first error
	for i, m := range mods {
		if execs == nil {
			ds[i] = m.TakeDecisions()
			continue
		}
		var err error
		if ds[i], _, err = apply(m, execs[i], onReply); err != nil && first == nil {
			first = err
		}
	}
	return replies, ds, first
}
