package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// summarize reports the sample count and how many samples lie strictly
// beyond p99, whatever the input order.
func TestSummarizeCounts(t *testing.T) {
	var lat []time.Duration
	for i := 1000; i >= 1; i-- {
		lat = append(lat, time.Duration(i)*time.Microsecond)
	}
	st := summarize(lat)
	if st.n != 1000 || st.p50 != 500*time.Microsecond || st.p99 != 990*time.Microsecond || st.beyond99 != 10 {
		t.Errorf("summarize = %+v, want n=1000 p50=500µs p99=990µs beyond99=10", st)
	}
	if lat[0] != 1000*time.Microsecond {
		t.Error("summarize reordered its input")
	}
	// Ties at the percentile are not beyond it.
	st = summarize([]time.Duration{5, 5, 5, 5})
	if st.n != 4 || st.beyond99 != 0 {
		t.Errorf("summarize of ties = %+v, want n=4 beyond99=0", st)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestParseCPULine(t *testing.T) {
	steal, total := parseCPULine("cpu  100 2 30 400 5 0 7 11 50 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if steal != 11 || total != 555 {
		t.Errorf("parseCPULine = steal %d total %d, want 11 and 555", steal, total)
	}
	if s, tot := parseCPULine("intr 1 2 3"); s != 0 || tot != 0 {
		t.Errorf("parseCPULine of a non-cpu line = %d, %d", s, tot)
	}
}
