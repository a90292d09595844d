package main

import (
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"fortyconsensus/internal/live"
)

// frame is one length-prefixed frame as the live transport writes it.
func frame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

func hello(role byte) []byte {
	return frame(append([]byte{role}, make([]byte, 8)...))
}

// The counting listener attributes every byte of an accepted
// connection to peer or client traffic by the hello role byte, even
// when the hello arrives one byte at a time, and counts client-side
// writes.
func TestCountingListenerSplitsPeerAndClient(t *testing.T) {
	ln, _, err := live.Listen()
	if err != nil {
		t.Fatal(err)
	}
	var counts wireCounts
	var tr atomic.Pointer[tracer]
	var ids atomic.Uint64
	cl := &countingListener{Listener: ln, counts: &counts, tr: &tr, nextID: &ids}
	defer cl.Close()

	peerMsg := append(hello(rolePeer), frame([]byte("append-entries"))...)
	clientMsg := append(hello(roleClient), frame([]byte("get k0001"))...)
	reply := frame([]byte("OK"))

	tr.Store(newTracer(64))
	for _, c := range []struct {
		msg   []byte
		reply []byte
	}{{peerMsg, nil}, {clientMsg, reply}} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := cl.Accept()
		if err != nil {
			t.Fatal(err)
		}
		go func(msg []byte) {
			for i := range msg { // byte by byte: the role must survive fragmented reads
				conn.Write(msg[i : i+1])
			}
		}(c.msg)
		buf := make([]byte, len(c.msg))
		if _, err := io.ReadFull(srv, buf); err != nil {
			t.Fatal(err)
		}
		if c.reply != nil {
			if _, err := srv.Write(c.reply); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, make([]byte, len(c.reply))); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
		srv.Close()
	}
	got := counts.snapshot()
	want := wireSnapshot{
		peerBytes:    uint64(len(peerMsg)),
		clientBytes:  uint64(len(clientMsg) + len(reply)),
		clientWrites: 1,
	}
	if got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	spans := tr.Load()
	if spans.count[spanPeerRead] == 0 || spans.count[spanClientRead] == 0 || spans.count[spanClientWrite] != 1 {
		t.Errorf("span counts peer.read=%d client.read=%d client.write=%d",
			spans.count[spanPeerRead], spans.count[spanClientRead], spans.count[spanClientWrite])
	}
}
