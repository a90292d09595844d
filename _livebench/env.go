package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// stamp is the environment recorded with every result.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	TickMS     float64 `json:"tick_ms"`
	Nodes      int     `json:"nodes"`
	Shards     int     `json:"shards"`
	Backend    string  `json:"backend"`
	InFlight   int     `json:"inflight"`
	Keys       int     `json:"keys"`
	ValueBytes int     `json:"value_bytes"`
}

func newStamp(w workload, seed uint64, seconds, trace int) stamp {
	return stamp{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit("."),
		TickMS: float64(tickEvery) / 1e6, Nodes: clusterNodes, Shards: clusterShards,
		Backend: w.backend, InFlight: w.inflight, Keys: numKeys, ValueBytes: valueSize,
	}
}

// gitCommit reads HEAD from root/.git without running git, so nothing
// outside root is touched; "unknown" outside a git checkout.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// stealMeter measures the share of the machine's CPU time the
// hypervisor stole since it started, from /proc/stat's aggregate cpu
// line. Where /proc/stat is unavailable the share reads 0.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	steal, total := cpuTicks()
	return stealMeter{steal, total}
}

func (s stealMeter) share() float64 {
	steal, total := cpuTicks()
	if total <= s.total {
		return 0
	}
	return float64(steal-s.steal) / float64(total-s.total)
}

// cpuTicks returns steal and total (user through steal) ticks summed
// over all CPUs; guest time is already inside user and nice.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	return parseCPULine(string(b))
}

func parseCPULine(stat string) (steal, total uint64) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
