package live

import (
	"sync"
	"time"

	"fortyconsensus/internal/types"
)

// Module is the deterministic protocol contract the runtime hosts —
// the same Step/Tick/Drain surface runner.Node drives in simulation.
type Module[M any] interface {
	Step(M)
	Tick()
	Drain() []M
}

// Queue bounds of a Node. A full inbox drops messages — the
// lossy-network fault model again.
const (
	inboxLen = 4096 // inbound module messages
	callLen  = 1024 // queued closures
)

// NodeConfig tunes one hosted module's driver.
type NodeConfig struct {
	// TickEvery is the wall-clock duration of one protocol tick
	// (default 2ms). Every protocol timeout in the module's config is
	// expressed in ticks; this is the only place ticks meet the clock.
	TickEvery time.Duration
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.TickEvery <= 0 {
		c.TickEvery = 2 * time.Millisecond
	}
	return c
}

// Node runs one protocol module on a single goroutine: a select loop
// over the inbox, the tick ticker, and queued calls. Because only the
// loop goroutine ever touches the module, the protocol needs no
// locking — the simulator's single-threaded contract carries over
// verbatim. All module access from outside goes through Call/CallWait.
//
// The loop works in turns. A turn is the event select picked plus every
// message and call already queued at that moment; the outbox is drained
// and the after hook runs once per turn, not once per event.
type Node[M any] struct {
	mod   Module[M]
	self  types.NodeID
	dest  func(M) types.NodeID
	send  func(M) // deliver one outbound message (dest != self)
	after func()  // post-turn hook: pump decisions, route replies

	cfg   NodeConfig
	inbox chan M
	calls chan func()
	stop  chan struct{}
	done  chan struct{}

	startOnce, closeOnce sync.Once
}

// NewNode wraps mod. dest extracts a message's destination; send
// delivers outbound messages (self-addressed ones short-circuit
// through Step without touching send); after runs on the loop
// goroutine after every turn, once the module's outbox is drained.
func NewNode[M any](mod Module[M], self types.NodeID, dest func(M) types.NodeID, send func(M), after func(), cfg NodeConfig) *Node[M] {
	return &Node[M]{
		mod: mod, self: self, dest: dest, send: send, after: after,
		cfg:   cfg.withDefaults(),
		inbox: make(chan M, inboxLen),
		calls: make(chan func(), callLen),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start launches the event loop.
func (n *Node[M]) Start() {
	n.startOnce.Do(func() { go n.loop() })
}

func (n *Node[M]) loop() {
	defer close(n.done)
	ticker := time.NewTicker(n.cfg.TickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case m := <-n.inbox:
			n.turn(func() { n.mod.Step(m) })
		case <-ticker.C:
			n.turn(n.mod.Tick)
		case fn := <-n.calls:
			n.turn(fn)
		}
	}
}

// turn runs first, the event select picked, then every message and call
// that was already queued at that moment, so submissions that arrive
// together leave in one Drain. Anything queued later waits for the next
// turn, which bounds this one. The outbox is pumped and the after hook
// runs once, at the end.
func (n *Node[M]) turn(first func()) {
	msgs, calls := len(n.inbox), len(n.calls)
	first()
	for ; msgs > 0; msgs-- {
		n.mod.Step(<-n.inbox)
	}
	for ; calls > 0; calls-- {
		(<-n.calls)()
	}
	n.pump()
	if n.after != nil {
		n.after()
	}
}

// pump drains the module's outbox until it stays empty: self-addressed
// messages are stepped immediately (which may produce more output);
// everything else goes to send.
func (n *Node[M]) pump() {
	for {
		out := n.mod.Drain()
		if len(out) == 0 {
			return
		}
		for _, m := range out {
			if n.dest(m) == n.self {
				n.mod.Step(m)
			} else {
				n.send(m)
			}
		}
	}
}

// Deliver enqueues one inbound message without blocking; it reports
// false (message dropped) when the inbox is full or the node stopped.
func (n *Node[M]) Deliver(m M) bool {
	select {
	case <-n.stop:
		return false
	default:
	}
	select {
	case n.inbox <- m:
		return true
	default:
		return false
	}
}

// Call queues fn to run on the loop goroutine — the only legal way to
// touch the module from outside. It reports false if the node has
// stopped (fn will never run); a full call queue blocks, which is
// deliberate backpressure on request dispatch.
func (n *Node[M]) Call(fn func()) bool {
	// Check stop on its own first: with both channels ready, a single
	// select would pick randomly, letting a Call slip in after Close.
	select {
	case <-n.stop:
		return false
	default:
	}
	select {
	case <-n.stop:
		return false
	case n.calls <- fn:
		return true
	}
}

// CallWait runs fn on the loop goroutine and waits for it to finish,
// reporting false if the node stopped first.
func (n *Node[M]) CallWait(fn func()) bool {
	ran := make(chan struct{})
	if !n.Call(func() { fn(); close(ran) }) {
		return false
	}
	select {
	case <-ran:
		return true
	case <-n.done:
		// The loop exited with our call still queued.
		select {
		case <-ran:
			return true
		default:
			return false
		}
	}
}

// Close stops the loop and waits for it to exit. Idempotent.
func (n *Node[M]) Close() {
	n.closeOnce.Do(func() { close(n.stop) })
	n.Start() // a never-started node still closes cleanly
	<-n.done
}
