package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// layer names a span's layer. Spans are recorded only from this
// package, around calls into the program's public surface.
type layer uint8

const (
	spanDo          layer = iota // live.Client.Do, one per op
	spanClientRead               // Read on an accepted client connection
	spanClientWrite              // Write on an accepted client connection
	spanPeerRead                 // Read on an accepted peer connection
	spanPeerWrite                // Write on an accepted peer connection
	spanProtocol                 // replay: Submit/Step/Tick/Drain on a module
	spanEncode                   // replay: live codec Append
	spanDecode                   // replay: live codec Decode
	spanCommit                   // replay: smr.Executor.Commit (parent of spanApply)
	spanApply                    // replay: shard.Store.Apply
	numLayers
)

var layerNames = [numLayers]string{
	"client.do", "conn.client.read", "conn.client.write", "conn.peer.read", "conn.peer.write",
	"replay.protocol", "replay.encode", "replay.decode", "replay.smr_commit", "replay.shard_apply",
}

// span is one timed call; id is the op number for spanDo, the
// connection number for conn spans, and the op count at the time for
// replay spans. Times are nanoseconds since the tracer's base.
type span struct {
	start, end int64
	id         uint64
	layer      layer
}

// tracer keeps spans in memory, up to a fixed capacity, and per-layer
// totals for every span, stored or not.
type tracer struct {
	base time.Time

	mu      sync.Mutex
	spans   []span
	dropped uint64
	count   [numLayers]uint64
	total   [numLayers]int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(l layer, id uint64, start, end int64) {
	t.mu.Lock()
	t.count[l]++
	t.total[l] += end - start
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{start: start, end: end, id: id, layer: l})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// stored reports how many spans are held in memory.
func (t *tracer) stored() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// full reports whether the span buffer has reached want entries.
func (t *tracer) full(want int) bool { return t.stored() >= want }

// interval is a half-open [lo, hi) time range in nanoseconds.
type interval struct{ lo, hi int64 }

// union merges intervals into a sorted, disjoint list.
func union(iv []interval) []interval {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var out []interval
	for _, x := range iv {
		if x.hi <= x.lo {
			continue
		}
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			if x.hi > out[n-1].hi {
				out[n-1].hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// covered returns how much of [lo, hi) the sorted disjoint list u covers.
func covered(u []interval, lo, hi int64) int64 {
	i := sort.Search(len(u), func(i int) bool { return u[i].hi > lo })
	var c int64
	for ; i < len(u) && u[i].lo < hi; i++ {
		a, b := u[i].lo, u[i].hi
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		c += b - a
	}
	return c
}

// liveSelf is the traced live window's time breakdown, in total
// nanoseconds over the window (divide by ops for per-op figures).
type liveSelf struct {
	doTotal, doSelf int64 // client.do spans, and their part no server connection was busy in
	readWait        int64 // time server connection goroutines sat in Read
	handle          int64 // time between a Read's return and the next Read: frame decode and dispatch
	write           int64 // time in Write on accepted connections
}

// liveBreakdown computes client.do self time from stored spans. A Read
// span includes the time the server goroutine waited for bytes, so it
// counts as waiting, not as work. A connection is busy from a Read's
// return to its next Read call (handling what it read) and inside each
// Write. client.do self time is the part of each op during which no
// accepted connection, on any node, was busy: time in the client
// library, the kernel, and the node event loops. With several ops in
// flight another op's I/O also counts as covering, so self time is a
// lower bound.
func liveBreakdown(spans []span) liveSelf {
	var s liveSelf
	var reads []span
	var busy []interval
	for _, sp := range spans {
		switch sp.layer {
		case spanDo:
			s.doTotal += sp.end - sp.start
		case spanClientRead, spanPeerRead:
			s.readWait += sp.end - sp.start
			reads = append(reads, sp)
		case spanClientWrite, spanPeerWrite:
			s.write += sp.end - sp.start
			busy = append(busy, interval{sp.start, sp.end})
		}
	}
	sort.Slice(reads, func(i, j int) bool {
		if reads[i].id != reads[j].id {
			return reads[i].id < reads[j].id
		}
		return reads[i].start < reads[j].start
	})
	for i := 1; i < len(reads); i++ {
		if reads[i].id == reads[i-1].id {
			gap := interval{reads[i-1].end, reads[i].start}
			s.handle += gap.hi - gap.lo
			busy = append(busy, gap)
		}
	}
	u := union(busy)
	for _, sp := range spans {
		if sp.layer == spanDo {
			s.doSelf += sp.end - sp.start - covered(u, sp.start, sp.end)
		}
	}
	return s
}

// writeSpans writes every stored span as gzip'd TSV: layer, id, start
// ns, end ns. The header line carries the environment stamp.
func (t *tracer) writeSpans(path, stamp string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintf(bw, "# %s\n# layer\tid\tstart_ns\tend_ns\n", stamp)
	t.mu.Lock()
	for _, sp := range t.spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\n", layerNames[sp.layer], sp.id, sp.start, sp.end)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
