package main

import "testing"

// The replay's counts are a pure function of the seed: two runs at one
// seed agree exactly, for both backends.
func TestReplayCountsRepeat(t *testing.T) {
	for _, name := range []string{"raft-write-c4", "raft-read-c4", "mp-write-c64"} {
		w, _ := findWorkload(name)
		g := newGen(7, w)
		a, err := replayBackend(w, g, 7, newTracer(0))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := replayBackend(w, g, 7, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a != b {
			t.Errorf("%s: replay counts differ across runs at one seed: %+v vs %+v", name, a, b)
		}
		if a.ops != replayOps || a.msgs == 0 || a.batches == 0 {
			t.Errorf("%s: implausible counts %+v", name, a)
		}
		t.Logf("%s: %+v msgs/op=%.2f bytes/op=%.1f entries/batch=%.2f", name, a,
			float64(a.msgs)/float64(a.ops), float64(a.bytes)/float64(a.ops), float64(a.entries)/float64(a.batches))
	}
}
