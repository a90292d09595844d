package raft

import "fortyconsensus/internal/types"

// maxInflight caps the entries the leader has sent one follower but not
// yet seen acked. A slow or dead follower stops receiving new entries
// once it is this far behind, so it cannot flood the transport's queue;
// heartbeats keep probing it.
const maxInflight = 256

// progress is the leader's view of one member's log, after etcd's
// Progress. A follower is in one of two states:
//
//   - replicating: the leader knows where the follower's log ends, so
//     it streams appends back to back and moves next past each batch
//     as it sends it (pipelining), up to maxInflight unacked entries;
//   - probing: the leader does not know, so it keeps at most one append
//     in flight and waits for the answer (or the next heartbeat) before
//     sending again.
//
// Every follower starts probing; the first successful ack moves it to
// replicating, and a reject moves it back.
type progress struct {
	match types.Seq // highest index known replicated on the follower
	next  types.Seq // index of the next entry to send

	probing bool
	// probeSent marks the probe's one append (or snapshot chunk) as in
	// flight. Until an ack or a reject clears it, only a heartbeat sends
	// to the follower again.
	probeSent bool
}

func newProgress(last types.Seq) *progress {
	return &progress{next: last + 1, probing: true}
}

// sent records an append carrying entries through hi.
func (pr *progress) sent(hi types.Seq) {
	if pr.probing {
		pr.probeSent = true
	} else if hi >= pr.next {
		pr.next = hi + 1
	}
}

// ack records a successful append response matching through idx. It
// only ever raises next: acks of older in-flight appends arrive after
// later ones were sent.
func (pr *progress) ack(idx types.Seq) {
	if idx > pr.match {
		pr.match = idx
	}
	if idx >= pr.next {
		pr.next = idx + 1
	}
	pr.probing, pr.probeSent = false, false
}

// reject handles the follower's reject of the append at PrevIndex
// rejected, with its resume hint. It reports whether next moved back; a
// reject of an append sent before the last rewind (or already covered
// by an ack) is stale and changes nothing.
func (pr *progress) reject(rejected, hint types.Seq) bool {
	if pr.probing && rejected != pr.next-1 || !pr.probing && rejected <= pr.match {
		return false
	}
	next := rejected
	if hint+1 < next {
		next = hint + 1
	}
	if next <= pr.match {
		next = pr.match + 1
	}
	pr.next = next
	pr.probing, pr.probeSent = true, false
	return true
}
