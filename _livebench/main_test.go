package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkloadsMatchSpec(t *testing.T) {
	var want, got []string
	for _, w := range loadSpec(t).Workloads {
		want = append(want, w.Name)
	}
	for _, w := range workloads {
		got = append(got, w.name)
	}
	if strings.Join(want, ",") != strings.Join(got, ",") {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
}

// runLast runs the benchmark and decodes its last output line, which
// must carry exactly the four result keys.
func runLast(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line is not JSON: %s", last)
	}
	if len(keys) != 4 {
		t.Errorf("result keys %v, want correct, attempted, failed, metrics", keys)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 {
		t.Errorf("result %+v", res)
	}
	return res
}

func sameNames(t *testing.T, label string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	var g, w []string
	for k, v := range got {
		g = append(g, k+" "+v.Unit)
	}
	for _, m := range want {
		w = append(w, m.Name+" "+m.Unit)
	}
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Errorf("%s metrics:\n%s\nBENCHMARK.json:\n%s", label, strings.Join(g, "\n"), strings.Join(w, "\n"))
	}
}

// A short run of each mode prints exactly the metrics BENCHMARK.json
// declares, with the same units.
func TestRunPrintsSpecMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live clusters")
	}
	spec := loadSpec(t)
	res := runLast(t, "-workload", "mp-write-c64", "-seed", "4", "-seconds", "2", "-trace", "0")
	sameNames(t, "end-to-end", res.Metrics, spec.EndToEnd)
	res = runLast(t, "-workload", "mp-write-c64", "-seed", "4", "-seconds", "2", "-trace", "1", "-spans", t.TempDir())
	sameNames(t, "per-layer", res.Metrics, spec.PerLayer)
}
