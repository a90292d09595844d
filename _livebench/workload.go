package main

import (
	"bytes"
	"fmt"
	"strconv"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/live"
)

// Workload shape shared by every workload.
const (
	numKeys   = 4096 // keys chosen uniformly; all preloaded before timing
	valueSize = 128  // bytes per Put value
)

// workload is one traffic mix against one backend. Why each exists is
// recorded in BENCHMARK.json and README.md.
type workload struct {
	name     string
	backend  string
	inflight int    // closed-loop requests in flight (one goroutine each)
	putPct   uint64 // share of ops that are Puts; the rest are Gets
}

var workloads = []workload{
	{"raft-write-c4", live.BackendRaft, 4, 100},
	{"raft-read-c4", live.BackendRaft, 4, 10},
	{"mp-write-c64", live.BackendMultiPaxos, 64, 100},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// gen is the seeded op stream. Op n is a pure function of (seed, n), so
// the live run (whose workers take ops in completion order) and the
// in-memory replays see the same ops, and the checker can regenerate
// any value the stream ever wrote. Ops 0..numKeys-1 are the preload:
// op i puts key i. Ops from numKeys on are the measured mix.
type gen struct {
	seed   uint64
	putPct uint64
}

func newGen(seed uint64, w workload) gen { return gen{seed: seed, putPct: w.putPct} }

// splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func keyName(i int) string { return fmt.Sprintf("k%04d", i) }

// keyIndex parses keyName's output; ok is false for any other string.
func keyIndex(key string) (int, bool) {
	if len(key) != 5 || key[0] != 'k' {
		return 0, false
	}
	i, err := strconv.Atoi(key[1:])
	if err != nil || i < 0 || i >= numKeys {
		return 0, false
	}
	return i, true
}

// op returns op n: its key index and whether it is a Put.
func (g gen) op(n uint64) (key int, put bool) {
	if n < numKeys {
		return int(n), true
	}
	r := mix64(g.seed ^ mix64(n))
	return int(r % numKeys), (r>>32)%100 < g.putPct
}

// command builds op n's kvstore command.
func (g gen) command(n uint64) kvstore.Command {
	k, put := g.op(n)
	if put {
		return kvstore.Put(keyName(k), g.value(k, n))
	}
	return kvstore.Get(keyName(k))
}

// value is the 128-byte payload op n writes to key k: a readable header
// naming both, padded with seed-derived filler so a value from another
// seed or op never matches.
func (g gen) value(k int, n uint64) []byte {
	v := make([]byte, 0, valueSize)
	v = fmt.Appendf(v, "%s op=%d ", keyName(k), n)
	fill := mix64(g.seed ^ n ^ 0xa5a5a5a5)
	for len(v) < valueSize {
		v = append(v, 'a'+byte(fill%26))
		fill = mix64(fill)
	}
	return v
}

// checkValue reports whether v is a value the stream wrote to key.
func (g gen) checkValue(key string, v []byte) error {
	k, ok := keyIndex(key)
	if !ok {
		return fmt.Errorf("unknown key %q", key)
	}
	prefix := keyName(k) + " op="
	if !bytes.HasPrefix(v, []byte(prefix)) {
		return fmt.Errorf("key %s holds a foreign value %.40q", key, v)
	}
	rest := v[len(prefix):]
	end := bytes.IndexByte(rest, ' ')
	if end < 0 {
		return fmt.Errorf("key %s holds a foreign value %.40q", key, v)
	}
	n, err := strconv.ParseUint(string(rest[:end]), 10, 64)
	if err != nil {
		return fmt.Errorf("key %s holds a foreign value %.40q", key, v)
	}
	if wk, put := g.op(n); !put || wk != k || !bytes.Equal(v, g.value(k, n)) {
		return fmt.Errorf("key %s holds a value op %d never wrote", key, n)
	}
	return nil
}

// checkResult validates the result the cluster returned for op n.
func (g gen) checkResult(n uint64, res []byte) error {
	k, put := g.op(n)
	if put {
		if !bytes.Equal(res, kvstore.ReplyOK) {
			return fmt.Errorf("op %d: put returned %.40q", n, res)
		}
		return nil
	}
	// Every key was preloaded, so NOT_FOUND is a lost write too.
	return g.checkValue(keyName(k), res)
}
