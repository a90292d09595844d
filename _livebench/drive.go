package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// window is one closed-loop measured window's client-side outcome.
type window struct {
	attempted, failed uint64
	elapsed           time.Duration
	latencies         []time.Duration // completed ops only
	violations        []error         // wrong results, capped
}

func (w window) completed() uint64 { return w.attempted - w.failed }

func (w window) throughput() float64 { return float64(w.completed()) / w.elapsed.Seconds() }

const maxViolations = 16

// drive runs inflight closed-loop workers against the cluster: each
// takes the next op number from the shared stream, waits for its
// result, checks it, and repeats until d has passed or stop reports
// true. Ops are numbered from *next, which the caller advances across
// windows so no op number repeats within a run.
func drive(c *cluster, g gen, inflight int, d time.Duration, next *atomic.Uint64, stop func() bool) window {
	var (
		mu  sync.Mutex
		out window
		wg  sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(d)
	tr := c.tr.Load()
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := make([]time.Duration, 0, 1<<14)
			var attempted, failed uint64
			var bad []error
			for time.Now().Before(end) && (stop == nil || !stop()) {
				n := next.Add(1) - 1
				attempted++
				t0 := time.Now()
				var s0 int64
				if tr != nil {
					s0 = tr.now()
				}
				res, err := c.client.Do(g.command(n))
				if tr != nil {
					tr.add(spanDo, n, s0, tr.now())
				}
				took := time.Since(t0)
				if err != nil {
					failed++
					continue
				}
				lat = append(lat, took)
				if err := g.checkResult(n, res); err != nil && len(bad) < maxViolations {
					bad = append(bad, err)
				}
			}
			mu.Lock()
			out.attempted += attempted
			out.failed += failed
			out.latencies = append(out.latencies, lat...)
			if room := maxViolations - len(out.violations); room > 0 {
				if len(bad) > room {
					bad = bad[:room]
				}
				out.violations = append(out.violations, bad...)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 when it is empty.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// latencyStats is a latency distribution's median and tail, with the
// sample count and how many samples lie beyond the tail percentile.
type latencyStats struct {
	p50, p99 time.Duration
	n        int
	beyond99 int
}

func summarize(lat []time.Duration) latencyStats {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	st := latencyStats{p50: percentile(s, 50), p99: percentile(s, 99), n: len(s)}
	st.beyond99 = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > st.p99 })
	return st
}

func (s latencyStats) String() string {
	return fmt.Sprintf("p50=%.4fms p99=%.4fms n=%d beyond_p99=%d",
		ms(s.p50), ms(s.p99), s.n, s.beyond99)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
