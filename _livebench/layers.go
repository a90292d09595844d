package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"syscall"
	"time"

	"fortyconsensus/internal/live"
)

// serverMetrics is the part of a node's /metrics JSON the benchmark
// reads.
type serverMetrics struct {
	Requests  uint64 `json:"requests"`
	NotLeader uint64 `json:"not_leader"`
	Latency   struct {
		Count int `json:"count"`
		P50   int `json:"p50"`
		P99   int `json:"p99"`
	} `json:"latency_us"`
}

// scrape reads a node's metrics through its public handler, in
// process: no socket is opened.
func scrape(s *live.Server) (serverMetrics, error) {
	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m serverMetrics
	if rec.Code != http.StatusOK {
		return m, fmt.Errorf("metrics handler: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		return m, fmt.Errorf("metrics handler: %w", err)
	}
	return m, nil
}

// counters is every monotonic counter the per-layer metrics difference
// across a window.
type counters struct {
	requests, notLeader uint64
	sent, dropped       uint64
	peerFrames          uint64
	wire                wireSnapshot
	cpu                 time.Duration
	totalAlloc          uint64
	numGC               uint32
}

func readCounters(c *cluster) (counters, error) {
	var k counters
	for _, s := range c.servers {
		m, err := scrape(s)
		if err != nil {
			return k, err
		}
		k.requests += m.Requests
		k.notLeader += m.NotLeader
		ts := s.TransportStats()
		k.sent += ts.Sent
		k.dropped += ts.Dropped
		k.peerFrames += ts.PeerFrames
	}
	k.wire = c.counts.snapshot()
	k.cpu = processCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k.totalAlloc, k.numGC = ms.TotalAlloc, ms.NumGC
	return k, nil
}

// processCPU is user plus system CPU time of this process: the whole
// cluster and the client share it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the peak live heap while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				h.sample()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.mu.Lock()
	if ms.HeapAlloc > h.peak {
		h.peak = ms.HeapAlloc
	}
	h.mu.Unlock()
}

// finish stops the sampler, waits for it, and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// commitLatency is the leader submit→apply latency (µs) over all nodes:
// each node's percentile weighted by its sample count, since only the
// per-node summaries are published.
func commitLatency(c *cluster) (p50, p99 float64, n int, err error) {
	for _, s := range c.servers {
		m, err := scrape(s)
		if err != nil {
			return 0, 0, 0, err
		}
		p50 += float64(m.Latency.P50) * float64(m.Latency.Count)
		p99 += float64(m.Latency.P99) * float64(m.Latency.Count)
		n += m.Latency.Count
	}
	if n == 0 {
		return 0, 0, 0, fmt.Errorf("no commit latency samples")
	}
	return p50 / float64(n), p99 / float64(n), n, nil
}

// liveLayers turns counter deltas over one window into the per-layer
// metrics of the client, transport, wire, server and process layers.
func liveLayers(c *cluster, before, after counters, win window, heapPeakMB float64, out metrics) error {
	ops := float64(win.completed())
	d := func(a, b uint64) float64 { return float64(b - a) }
	out.set("client.attempts_per_op", d(before.requests, after.requests)/ops, "count")
	out.set("client.not_leader_per_op", d(before.notLeader, after.notLeader)/ops, "count")
	out.set("transport.peer_frames_per_op", d(before.peerFrames, after.peerFrames)/ops, "count")
	out.set("transport.dropped_per_op", d(before.dropped, after.dropped)/ops, "count")
	sent := d(before.sent, after.sent)
	ratio := 0.0
	if sent > 0 {
		ratio = d(before.peerFrames, after.peerFrames) / sent
	}
	out.set("transport.delivered_ratio", ratio, "ratio")
	out.set("wire.peer_bytes_per_op", d(before.wire.peerBytes, after.wire.peerBytes)/ops, "bytes")
	out.set("wire.client_bytes_per_op", d(before.wire.clientBytes, after.wire.clientBytes)/ops, "bytes")
	out.set("wire.client_writes_per_op", d(before.wire.clientWrites, after.wire.clientWrites)/ops, "count")
	p50, p99, _, err := commitLatency(c)
	if err != nil {
		return err
	}
	out.set("server.commit_us_p50", p50, "us")
	out.set("server.commit_us_p99", p99, "us")
	client50 := float64(summarize(win.latencies).p50) / float64(time.Microsecond)
	out.set("server.outside_us_p50", client50-p50, "us")
	out.set("process.cpu_us_per_op", float64(after.cpu-before.cpu)/float64(time.Microsecond)/ops, "us")
	out.set("process.alloc_bytes_per_op", d(before.totalAlloc, after.totalAlloc)/ops, "bytes")
	out.set("process.gc_per_kop", float64(after.numGC-before.numGC)*1000/ops, "count")
	out.set("process.heap_peak_mb", heapPeakMB, "MB")
	return nil
}
