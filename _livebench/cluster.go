package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fortyconsensus/internal/live"
	"fortyconsensus/internal/types"
)

// Cluster shape.
const (
	clusterNodes  = 3
	clusterShards = 2
	tickEvery     = time.Millisecond
)

// Connection roles, from the first byte of the hello frame every
// connection opens with (after its u32 length prefix).
const (
	rolePeer   = 0x50
	roleClient = 0x43
)

// wireCounts are byte and call counts on accepted connections. Every
// peer frame crosses exactly one accepted connection (the receiver's),
// so summing over all nodes counts each peer byte once.
type wireCounts struct {
	peerBytes, clientBytes, clientWrites atomic.Uint64
}

type wireSnapshot struct{ peerBytes, clientBytes, clientWrites uint64 }

func (w *wireCounts) snapshot() wireSnapshot {
	return wireSnapshot{w.peerBytes.Load(), w.clientBytes.Load(), w.clientWrites.Load()}
}

// countingListener wraps a node's listener so every accepted
// connection counts its traffic, split into peer and client by the
// hello role byte, and records Read/Write spans while tracing is on.
type countingListener struct {
	net.Listener
	counts *wireCounts
	tr     *atomic.Pointer[tracer]
	nextID *atomic.Uint64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l, id: l.nextID.Add(1)}, nil
}

// countingConn learns its role from the first five bytes read. Reads
// happen on one goroutine; Write may run on another (a client
// connection's writer), so the role is atomic.
type countingConn struct {
	net.Conn
	l    *countingListener
	id   uint64
	role atomic.Uint32

	hdr     [5]byte // reader goroutine only
	hdrSeen int
	early   uint64 // bytes read before the role was known
}

func (c *countingConn) Read(p []byte) (int, error) {
	tr := c.l.tr.Load()
	var start int64
	if tr != nil {
		start = tr.now()
	}
	n, err := c.Conn.Read(p)
	role := c.role.Load()
	if role == 0 {
		for i := 0; i < n && c.hdrSeen < len(c.hdr); i++ {
			c.hdr[c.hdrSeen] = p[i]
			c.hdrSeen++
		}
		c.early += uint64(n)
		if c.hdrSeen < len(c.hdr) {
			return n, err
		}
		role = uint32(c.hdr[4])
		c.role.Store(role)
		c.count(role, c.early)
	} else {
		c.count(role, uint64(n))
	}
	if tr != nil {
		l := spanClientRead
		if role == rolePeer {
			l = spanPeerRead
		}
		tr.add(l, c.id, start, tr.now())
	}
	return n, err
}

func (c *countingConn) count(role uint32, n uint64) {
	switch role {
	case rolePeer:
		c.l.counts.peerBytes.Add(n)
	case roleClient:
		c.l.counts.clientBytes.Add(n)
	}
}

func (c *countingConn) Write(p []byte) (int, error) {
	tr := c.l.tr.Load()
	var start int64
	if tr != nil {
		start = tr.now()
	}
	n, err := c.Conn.Write(p)
	role := c.role.Load()
	c.count(role, uint64(n))
	if role == roleClient {
		c.l.counts.clientWrites.Add(1)
	}
	if tr != nil {
		l := spanClientWrite
		if role == rolePeer {
			l = spanPeerWrite
		}
		tr.add(l, c.id, start, tr.now())
	}
	return n, err
}

// cluster is one in-process loopback cluster plus the client driving it.
type cluster struct {
	servers []*live.Server
	client  *live.Client
	counts  wireCounts
	tr      atomic.Pointer[tracer]
	connIDs atomic.Uint64
}

// startCluster binds one listener per node, starts every server and
// returns once both shards have a leader every node agrees on.
func startCluster(w workload, seed uint64) (*cluster, error) {
	c := &cluster{}
	lns := make([]net.Listener, clusterNodes)
	addrs := make(map[types.NodeID]string, clusterNodes)
	list := make([]string, clusterNodes)
	for i := range lns {
		ln, addr, err := live.Listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = &countingListener{Listener: ln, counts: &c.counts, tr: &c.tr, nextID: &c.connIDs}
		addrs[types.NodeID(i)] = addr
		list[i] = addr
	}
	for i, ln := range lns {
		srv, err := live.NewServerOn(ln, live.ServerConfig{
			Self: types.NodeID(i), Addrs: addrs, Shards: clusterShards,
			Backend: w.backend, TickEvery: tickEvery, Seed: seed,
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.close()
			return nil, fmt.Errorf("server %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
	}
	for _, s := range c.servers {
		s.Start()
	}
	cl, err := live.NewClient(live.ClientConfig{Addrs: list, Shards: clusterShards, Deadline: clientDeadline})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("client: %w", err)
	}
	c.client = cl
	if err := c.awaitLeaders(10 * time.Second); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// clientDeadline bounds one op including retries; an op that hits it
// counts as failed.
const clientDeadline = 5 * time.Second

// awaitLeaders polls until every shard has one leader that all nodes
// name.
func (c *cluster) awaitLeaders(timeout time.Duration) error {
	end := time.Now().Add(timeout)
	for {
		if c.leadersAgree() {
			return nil
		}
		if time.Now().After(end) {
			return errors.New("no stable shard leaders before timeout")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *cluster) leadersAgree() bool {
	for sh := 0; sh < clusterShards; sh++ {
		leaders := 0
		var lead types.NodeID = -1
		for i, s := range c.servers {
			isLead, l, ok := s.Leader(sh)
			if !ok || l < 0 || (lead >= 0 && l != lead) {
				return false
			}
			lead = l
			if isLead {
				leaders++
				if l != types.NodeID(i) {
					return false
				}
			}
		}
		if leaders != 1 {
			return false
		}
	}
	return true
}

// leaders returns each shard's leader as every node names it (call
// after awaitLeaders).
func (c *cluster) leaders() []types.NodeID {
	out := make([]types.NodeID, clusterShards)
	for sh := range out {
		_, out[sh], _ = c.servers[0].Leader(sh)
	}
	return out
}

// preload puts every key once (ops 0..numKeys-1), inflight at a time.
func (c *cluster) preload(g gen, inflight int) error {
	var next atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				if n >= numKeys {
					return
				}
				res, err := c.client.Do(g.command(n))
				if err == nil {
					err = g.checkResult(n, res)
				}
				if err != nil {
					errs <- fmt.Errorf("preload op %d: %w", n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (c *cluster) close() {
	if c.client != nil {
		c.client.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
}

// setUp runs one full set-up: listeners bound through every key
// preloaded and both shard leaders answering. It returns the cluster
// and how long that took.
func setUp(w workload, g gen, seed uint64) (*cluster, time.Duration, error) {
	t0 := time.Now()
	c, err := startCluster(w, seed)
	if err != nil {
		return nil, 0, err
	}
	if err := c.preload(g, w.inflight); err != nil {
		c.close()
		return nil, 0, err
	}
	return c, time.Since(t0), nil
}
