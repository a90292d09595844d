package live

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fortyconsensus/internal/types"
)

// fakeMsg is the message type of the test module.
type fakeMsg struct {
	to  types.NodeID
	tag string
}

// fakeModule records events and can emit queued outbound messages.
type fakeModule struct {
	mu      sync.Mutex
	stepped []fakeMsg
	ticks   int
	outbox  []fakeMsg
}

func (f *fakeModule) Step(m fakeMsg) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stepped = append(f.stepped, m)
	// A self-addressed "echo" message triggers one outbound reply, so
	// the test can watch pump() feed Step output back through send.
	if m.tag == "echo" {
		f.outbox = append(f.outbox, fakeMsg{to: 1, tag: "echoed"})
	}
}

func (f *fakeModule) Tick() {
	f.mu.Lock()
	f.ticks++
	f.mu.Unlock()
}

func (f *fakeModule) Drain() []fakeMsg {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.outbox
	f.outbox = nil
	return out
}

func (f *fakeModule) tickCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ticks
}

func (f *fakeModule) steppedTags() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	tags := make([]string, len(f.stepped))
	for i, m := range f.stepped {
		tags[i] = m.tag
	}
	return tags
}

func newFakeNode(mod *fakeModule, send func(fakeMsg), after func()) *Node[fakeMsg] {
	return NewNode[fakeMsg](mod, 0, func(m fakeMsg) types.NodeID { return m.to },
		send, after, NodeConfig{TickEvery: time.Millisecond})
}

func TestNodeTickTranslation(t *testing.T) {
	mod := &fakeModule{}
	n := newFakeNode(mod, func(fakeMsg) {}, nil)
	n.Start()
	defer n.Close()
	// Wall-clock time must translate into Tick() calls on the loop.
	waitFor(t, 2*time.Second, func() bool { return mod.tickCount() >= 5 })
}

func TestNodeDeliverAndSend(t *testing.T) {
	mod := &fakeModule{}
	var mu sync.Mutex
	var sent []fakeMsg
	n := newFakeNode(mod, func(m fakeMsg) { mu.Lock(); sent = append(sent, m); mu.Unlock() }, nil)
	n.Start()
	defer n.Close()

	if !n.Deliver(fakeMsg{to: 0, tag: "echo"}) {
		t.Fatal("Deliver refused")
	}
	// Step("echo") queues an outbound message to node 1; pump must
	// route it through send because dest != self.
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(sent) == 1
	})
	mu.Lock()
	if sent[0].tag != "echoed" || sent[0].to != 1 {
		t.Fatalf("sent %+v", sent[0])
	}
	mu.Unlock()
}

func TestNodeSelfRouting(t *testing.T) {
	mod := &fakeModule{}
	n := NewNode[fakeMsg](mod, 0, func(m fakeMsg) types.NodeID { return m.to },
		func(m fakeMsg) { t.Errorf("self-addressed message leaked to send: %+v", m) },
		nil, NodeConfig{TickEvery: time.Hour}) // no ticks: isolate the routing path
	n.Start()
	defer n.Close()

	// Queue a self-addressed outbound message via a call, then verify
	// pump steps it inline instead of sending it.
	n.Call(func() { mod.outbox = append(mod.outbox, fakeMsg{to: 0, tag: "loopback"}) })
	waitFor(t, 2*time.Second, func() bool {
		for _, tag := range mod.steppedTags() {
			if tag == "loopback" {
				return true
			}
		}
		return false
	})
}

func TestNodeAfterHook(t *testing.T) {
	mod := &fakeModule{}
	var afterRuns sync.WaitGroup
	afterRuns.Add(1)
	var once sync.Once
	n := newFakeNode(mod, func(fakeMsg) {}, func() { once.Do(afterRuns.Done) })
	n.Start()
	defer n.Close()
	n.Deliver(fakeMsg{to: 0, tag: "x"})
	done := make(chan struct{})
	go func() { afterRuns.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("after hook never ran")
	}
}

func TestNodeCallSemantics(t *testing.T) {
	mod := &fakeModule{}
	n := newFakeNode(mod, func(fakeMsg) {}, nil)
	n.Start()

	var got int
	if !n.CallWait(func() { got = 42 }) {
		t.Fatal("CallWait on a running node failed")
	}
	if got != 42 {
		t.Fatal("CallWait returned before fn ran")
	}

	n.Close()
	n.Close() // idempotent

	if n.Deliver(fakeMsg{}) {
		t.Fatal("Deliver succeeded after Close")
	}
	if n.Call(func() {}) {
		t.Fatal("Call succeeded after Close")
	}
	if n.CallWait(func() {}) {
		t.Fatal("CallWait succeeded after Close")
	}
}

func TestNodeCloseWithoutStart(t *testing.T) {
	mod := &fakeModule{}
	n := newFakeNode(mod, func(fakeMsg) {}, nil)
	done := make(chan struct{})
	go func() { n.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close on a never-started node hung")
	}
}

// turnRecorder is an after hook that reports, per turn, the tags the
// module had stepped by the end of that turn.
func turnRecorder(mod *fakeModule) (func(), <-chan []string) {
	turns := make(chan []string, 64) // room for every turn a test runs, so after never blocks the loop
	return func() { turns <- mod.steppedTags() }, turns
}

func nextTurn(t *testing.T, turns <-chan []string) []string {
	t.Helper()
	select {
	case tags := <-turns:
		return tags
	case <-time.After(2 * time.Second):
		t.Fatal("no turn ended")
		return nil
	}
}

func TestNodeTurnRunsQueuedEventsBeforeAfter(t *testing.T) {
	mod := &fakeModule{}
	after, turns := turnRecorder(mod)
	n := NewNode[fakeMsg](mod, 0, func(m fakeMsg) types.NodeID { return m.to },
		func(fakeMsg) {}, after, NodeConfig{TickEvery: time.Hour})
	defer n.Close()

	// Queue three messages and three calls before the loop starts: the
	// first turn must run all six before its one after call.
	var calls []string
	for _, tag := range []string{"a", "b", "c"} {
		n.Deliver(fakeMsg{to: 0, tag: tag})
		n.Call(func() { calls = append(calls, "call-"+tag) })
	}
	n.Start()
	if got := nextTurn(t, turns); fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("first turn stepped %v, want [a b c]", got)
	}
	var ran []string
	n.CallWait(func() { ran = append(ran, calls...) })
	if fmt.Sprint(ran) != "[call-a call-b call-c]" {
		t.Fatalf("calls run %v, want all three in order", ran)
	}
	select {
	case extra := <-turns:
		// The CallWait above is a turn of its own; nothing else may be.
		if fmt.Sprint(extra) != "[a b c]" {
			t.Fatalf("unexpected extra turn %v", extra)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("CallWait's turn never ended")
	}
	select {
	case extra := <-turns:
		t.Fatalf("queued events split across turns: extra turn %v", extra)
	default:
	}
}

func TestNodeTurnDefersLateEvents(t *testing.T) {
	mod := &fakeModule{}
	after, turns := turnRecorder(mod)
	n := NewNode[fakeMsg](mod, 0, func(m fakeMsg) types.NodeID { return m.to },
		func(fakeMsg) {}, after, NodeConfig{TickEvery: time.Hour})
	defer n.Close()

	// A call queued before the turn delivers "late" while the turn runs;
	// whichever event select picks first, "late" waits for the next turn.
	n.Deliver(fakeMsg{to: 0, tag: "early"})
	n.Call(func() { n.Deliver(fakeMsg{to: 0, tag: "late"}) })
	n.Start()
	if got := nextTurn(t, turns); fmt.Sprint(got) != "[early]" {
		t.Fatalf("first turn stepped %v, want [early]", got)
	}
	if got := nextTurn(t, turns); fmt.Sprint(got) != "[early late]" {
		t.Fatalf("second turn stepped %v, want [early late]", got)
	}
}

func TestNodeCloseDuringTurn(t *testing.T) {
	mod := &fakeModule{}
	n := NewNode[fakeMsg](mod, 0, func(m fakeMsg) types.NodeID { return m.to },
		func(fakeMsg) {}, nil, NodeConfig{TickEvery: time.Hour})
	n.Start()
	entered, gate := make(chan struct{}), make(chan struct{})
	n.Call(func() { close(entered); <-gate })
	<-entered
	// Queue work behind the blocked turn, then close: Close must wait
	// for the loop, and a CallWait caught by the close must not hang.
	for i := 0; i < 10; i++ {
		n.Deliver(fakeMsg{to: 0, tag: "queued"})
	}
	waited := make(chan bool, 1)
	go func() { waited <- n.CallWait(func() {}) }()
	closed := make(chan struct{})
	go func() { n.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a turn was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung")
	}
	select {
	case <-waited:
	case <-time.After(2 * time.Second):
		t.Fatal("CallWait hung across Close")
	}
	if n.Deliver(fakeMsg{}) || n.CallWait(func() {}) {
		t.Fatal("node accepted work after Close")
	}
}
