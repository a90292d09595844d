// Package live is the real-time cluster runtime: it hosts the
// repository's deterministic protocol modules — unchanged — behind a
// driver that translates wall-clock timers into protocol ticks and
// TCP-delivered bytes into handler calls. The protocol packages stay
// pure (no clocks, no goroutines, no sockets; the determinism contract
// still lint-enforced); every source of nondeterminism lives here.
//
// The pieces, bottom to top:
//
//	frame.go      length-prefixed binary framing: u32 big-endian length
//	              + payload, with a hello frame distinguishing peer and
//	              client connections on one listener.
//	codec.go      stateless per-message binary codecs (Codec[M]); every
//	              frame decodes independently, so a reconnect never
//	              loses codec state the way a streaming gob would.
//	transport.go  per-peer connection management: one writer goroutine
//	              per peer with a bounded outbound queue, dial-on-demand
//	              with exponential backoff, and outbound batching (the
//	              writer drains the queue and flushes once). Delivery is
//	              best-effort — a dead peer's frames are dropped, which
//	              is exactly the fault model every protocol here already
//	              tolerates.
//	node.go       the tick-translation driver: one goroutine per hosted
//	              module runs a select loop over {inbox, ticker, calls},
//	              so Step/Tick/Submit are serialized without any
//	              protocol-level locking. Self-addressed messages
//	              short-circuit through Step without touching the wire.
//	server.go     a Server hosts one replica of every shard group (raft
//	              or multipaxos per group) applying shard.Store through
//	              an smr.Replica (snapshot restore and
//	              compaction included), routes client requests to the owning
//	              group by key hash, and redirects non-leader
//	              submissions with a leader hint.
//	client.go     the client library: leader discovery per shard,
//	              redirect following, retry with backoff across nodes,
//	              per-attempt timeouts, and request pipelining (many
//	              in-flight requests demultiplexed by request ID).
//	metrics.go    a mutex-guarded view over internal/metrics counters
//	              and histograms, served as JSON over HTTP.
//
// What carries over from the simulation and what does not: replica
// state transitions remain deterministic functions of the delivered
// message sequence (the modules are the very ones the simulator and the
// fault campaigns verify), and the smr executor's session dedup makes
// client retries exactly-once. Scheduling, however, is real — message
// interleavings and election timing vary run to run — so live runs are
// not replayable; internal/simnet remains the verification substrate,
// and the live-vs-sim equivalence test pins the bridge between the two.
package live
