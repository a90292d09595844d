package main

import (
	"errors"
	"fmt"

	"fortyconsensus/internal/live"
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/shard"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// Replay settings. The replay is a deterministic in-memory model of the
// live cluster, not a recording of it: the same two shard groups of
// three modules, fed the same seeded op stream, routed to groups by the
// same partition map. Time advances in rounds of about one loopback
// hop:
//   - a message sent in one round is delivered in the next, in send
//     order, through the live codec;
//   - every node ticks once per replayRoundsPerTick rounds (the live
//     1 ms tick is about a dozen hops);
//   - closed loop: at most the workload's in-flight count of ops are
//     outstanding, and a completed op's slot takes the next op
//     replayClientRounds later (the reply and the next request each
//     cross the network once).
//
// Same seed, same counts.
const (
	replayOps           = 4096
	replayRoundsPerTick = 12
	replayClientRounds  = 2
	replayMaxRounds     = 2_000_000
)

// replayCounts are the replay's exact message counts over the measured
// ops (the preload is not counted).
type replayCounts struct {
	ops, msgs, bytes uint64
	batches, entries uint64 // raft MsgAppend / multipaxos MsgAccept, and the entries they carry
}

// traceRef lets the timing store and the replay share a tracer that is
// switched on only for the measured ops.
type traceRef struct{ tr *tracer }

func (r *traceRef) start() int64 {
	if r.tr == nil {
		return 0
	}
	return r.tr.now()
}

func (r *traceRef) end(l layer, id uint64, start int64) {
	if r.tr != nil {
		r.tr.add(l, id, start, r.tr.now())
	}
}

// timedStore is the smr.StateMachine the replay's executors apply to:
// shard.NewStore() with a span around each Apply.
type timedStore struct {
	st  *shard.Store
	ref *traceRef
}

func (s timedStore) Apply(cmd types.Value) types.Value {
	t := s.ref.start()
	res := s.st.Apply(cmd)
	s.ref.end(spanApply, 0, t)
	return res
}

func (s timedStore) Snapshot() []byte          { return s.st.Snapshot() }
func (s timedStore) Restore(snap []byte) error { return s.st.Restore(snap) }

type queued struct {
	to    types.NodeID
	frame []byte
}

// group is one shard group: three modules, the messages in flight
// between them, and the leader's executor.
type group[M any] struct {
	mods    []live.SMRModule[M]
	transit []queued // sent this round, delivered next round
	leader  types.NodeID
	exec    *smr.Executor
}

// replay drives every group of one backend.
type replay[M any] struct {
	groups []*group[M]
	codec  live.Codec[M]
	dest   func(M) types.NodeID
	batch  func(M) (isBatch bool, entries int) // the message kind that carries log entries
	pm     shard.PartitionMap
	g      gen
	ref    *traceRef
	counts replayCounts
	rounds int
	err    error

	// freeAt holds, oldest first, the round from which each idle
	// in-flight slot may take the next op.
	freeAt              []int
	nextOp, endOp, done uint64
}

func (r *replay[M]) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// route drains node i's outbox like live.Node: self-addressed messages
// are stepped at once, the rest are encoded and sent.
func (r *replay[M]) route(gr *group[M], i types.NodeID) {
	for {
		t := r.ref.start()
		out := gr.mods[i].Drain()
		r.ref.end(spanProtocol, r.counts.ops, t)
		if len(out) == 0 {
			return
		}
		for _, m := range out {
			to := r.dest(m)
			if to == i {
				t := r.ref.start()
				gr.mods[i].Step(m)
				r.ref.end(spanProtocol, r.counts.ops, t)
				continue
			}
			t := r.ref.start()
			frame := r.codec.Append(nil, m)
			r.ref.end(spanEncode, r.counts.ops, t)
			r.counts.msgs++
			r.counts.bytes += uint64(len(frame))
			if ok, n := r.batch(m); ok {
				r.counts.batches++
				r.counts.entries += uint64(n)
			}
			gr.transit = append(gr.transit, queued{to: to, frame: frame})
		}
	}
}

// pump applies newly committed slots: the leader's through the timed
// executor (each reply completes an op), the followers' are dropped.
// Until the group has a leader decisions stay with their module, so
// the executor sees the leader's log from slot 1.
func (r *replay[M]) pump(gr *group[M], i types.NodeID) {
	if gr.exec == nil {
		return
	}
	ds := gr.mods[i].TakeDecisions()
	if i != gr.leader {
		return
	}
	for _, d := range ds {
		t := r.ref.start()
		replies := gr.exec.Commit(d)
		r.ref.end(spanCommit, r.counts.ops, t)
		for _, rep := range replies {
			n := uint64(rep.Client) - 1
			if err := r.g.checkResult(n, rep.Result); err != nil {
				r.fail(fmt.Errorf("replay: %w", err))
			}
			r.done++
			r.counts.ops++
			r.freeAt = append(r.freeAt, r.rounds+replayClientRounds)
		}
	}
}

// deliver steps one message at its destination.
func (r *replay[M]) deliver(gr *group[M], qm queued) {
	t := r.ref.start()
	m, err := r.codec.Decode(qm.frame)
	r.ref.end(spanDecode, r.counts.ops, t)
	if err != nil {
		r.fail(fmt.Errorf("replay: decode: %w", err))
		return
	}
	t = r.ref.start()
	gr.mods[qm.to].Step(m)
	r.ref.end(spanProtocol, r.counts.ops, t)
	r.route(gr, qm.to)
	r.pump(gr, qm.to)
}

// round advances the model by one round.
func (r *replay[M]) round() {
	r.rounds++
	r.submitDue()
	tick := r.rounds%replayRoundsPerTick == 0
	for _, gr := range r.groups {
		if tick {
			for i := range gr.mods {
				id := types.NodeID(i)
				t := r.ref.start()
				gr.mods[i].Tick()
				r.ref.end(spanProtocol, r.counts.ops, t)
				r.route(gr, id)
				r.pump(gr, id)
			}
		}
		batch := gr.transit
		gr.transit = nil
		for _, qm := range batch {
			r.deliver(gr, qm)
		}
	}
}

// submitDue hands each in-flight slot whose client hop has ended the
// next op, at the leader of the op's shard group. Op n runs under its
// own smr session n+1, as live.Client gives every request its own
// session.
func (r *replay[M]) submitDue() {
	for len(r.freeAt) > 0 && r.freeAt[0] <= r.rounds && r.nextOp < r.endOp {
		r.freeAt = r.freeAt[1:]
		n := r.nextOp
		r.nextOp++
		cmd := r.g.command(n)
		gr := r.groups[r.pm.Shard(cmd.Key)]
		v := smr.EncodeRequest(types.Request{Client: types.ClientID(n + 1), SeqNo: 1, Op: cmd.Encode()})
		t := r.ref.start()
		gr.mods[gr.leader].Submit(v)
		r.ref.end(spanProtocol, r.counts.ops, t)
		r.route(gr, gr.leader)
	}
}

// agreedLeader returns the node every module of gr names as leader, or -1.
func agreedLeader[M any](gr *group[M]) types.NodeID {
	var lead types.NodeID = -1
	for i, m := range gr.mods {
		if m.IsLeader() {
			if lead >= 0 {
				return -1
			}
			lead = types.NodeID(i)
		}
	}
	if lead < 0 {
		return -1
	}
	for _, m := range gr.mods {
		if m.Leader() != lead {
			return -1
		}
	}
	return lead
}

// run drives ops [from, to) to completion.
func (r *replay[M]) run(from, to uint64) {
	r.nextOp, r.endOp, r.done = from, to, 0
	for r.done < to-from && r.err == nil {
		if r.rounds > replayMaxRounds {
			r.fail(errors.New("replay: no progress"))
			return
		}
		for _, gr := range r.groups {
			if !gr.mods[gr.leader].IsLeader() {
				r.fail(errors.New("replay: leadership moved"))
				return
			}
		}
		r.round()
	}
}

func newReplay[M any](mods [][]live.SMRModule[M], codec live.Codec[M], dest func(M) types.NodeID,
	batch func(M) (bool, int), g gen, inflight int) *replay[M] {
	r := &replay[M]{
		codec: codec, dest: dest, batch: batch, g: g, ref: &traceRef{},
		pm: shard.NewPartitionMap(len(mods)), freeAt: make([]int, inflight),
	}
	for _, ms := range mods {
		r.groups = append(r.groups, &group[M]{mods: ms, leader: -1})
	}
	return r
}

// elect runs rounds until every group has a leader all its modules
// name, then attaches an executor to each leader.
func (r *replay[M]) elect() error {
	for {
		ready := true
		for _, gr := range r.groups {
			if gr.leader < 0 {
				gr.leader = agreedLeader(gr)
			}
			ready = ready && gr.leader >= 0
		}
		if ready {
			break
		}
		if r.rounds > replayMaxRounds {
			return errors.New("replay: no leader elected")
		}
		r.round()
	}
	for _, gr := range r.groups {
		gr.exec = smr.NewExecutor(gr.leader, timedStore{st: shard.NewStore(), ref: r.ref})
	}
	return nil
}

// runReplay elects leaders, preloads every key uncounted and untraced,
// then replays the measured ops with spans on.
func runReplay[M any](r *replay[M], tr *tracer) (replayCounts, error) {
	if err := r.elect(); err != nil {
		return replayCounts{}, err
	}
	r.run(0, numKeys)
	r.counts = replayCounts{}
	r.ref.tr = tr
	r.run(numKeys, numKeys+replayOps)
	r.ref.tr = nil
	return r.counts, r.err
}

// replayBackend runs the replay for w's backend, configured as
// live.Server configures its modules: per-group seeds derived from the
// workload seed, every module of a group on the same seed.
func replayBackend(w workload, g gen, seed uint64, tr *tracer) (replayCounts, error) {
	peers := []types.NodeID{0, 1, 2}
	groupSeed := func(idx int) uint64 { return mix64(seed + 0x9e3779b97f4a7c15*uint64(idx)) }
	switch w.backend {
	case live.BackendRaft:
		mods := make([][]live.SMRModule[raft.Message], clusterShards)
		for gi := range mods {
			for _, id := range peers {
				mods[gi] = append(mods[gi], raft.New(id, raft.Config{Peers: peers, Seed: groupSeed(gi)}))
			}
		}
		return runReplay(newReplay(mods, live.RaftCodec{}, raft.Dest, func(m raft.Message) (bool, int) {
			return m.Kind == raft.MsgAppend, len(m.Entries)
		}, g, w.inflight), tr)
	case live.BackendMultiPaxos:
		mods := make([][]live.SMRModule[multipaxos.Message], clusterShards)
		for gi := range mods {
			for _, id := range peers {
				mods[gi] = append(mods[gi], multipaxos.New(id, multipaxos.Config{Peers: peers, Seed: groupSeed(gi)}))
			}
		}
		// An Accept carries exactly one value (Val).
		return runReplay(newReplay(mods, live.MultiPaxosCodec{}, multipaxos.Dest, func(m multipaxos.Message) (bool, int) {
			return m.Kind == multipaxos.MsgAccept, 1
		}, g, w.inflight), tr)
	}
	return replayCounts{}, fmt.Errorf("replay: unknown backend %q", w.backend)
}
