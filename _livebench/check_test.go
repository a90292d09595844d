package main

import (
	"testing"

	"fortyconsensus/internal/kvstore"
)

func snapshotOf(t *testing.T, kv map[string][]byte) []byte {
	t.Helper()
	st := kvstore.New()
	for k, v := range kv {
		if res := st.Apply(kvstore.Put(k, v).Encode()); string(res) != "OK" {
			t.Fatalf("put %s: %s", k, res)
		}
	}
	return st.Snapshot()
}

func TestCheckReplicasRejectsDivergentDigest(t *testing.T) {
	w, _ := findWorkload("raft-write-c4")
	g := newGen(1, w)
	a := snapshotOf(t, map[string][]byte{"k0000": g.value(0, 0)})
	b := snapshotOf(t, map[string][]byte{"k0000": g.value(0, 0)})
	if err := checkReplicas(0, [][]byte{a, b, a}); err != nil {
		t.Fatalf("identical replicas rejected: %v", err)
	}
	c := snapshotOf(t, map[string][]byte{"k0000": g.value(1, 1)})
	if err := checkReplicas(0, [][]byte{a, a, c}); err == nil {
		t.Fatal("divergent replica accepted")
	}
}

func TestCheckValueRejectsForeignValues(t *testing.T) {
	w, _ := findWorkload("raft-read-c4")
	g := newGen(9, w)
	// Find a measured op that is a Put, so its value is legitimate.
	n := uint64(numKeys)
	for {
		if _, put := g.op(n); put {
			break
		}
		n++
	}
	k, _ := g.op(n)
	good := g.value(k, n)
	if err := g.checkValue(keyName(k), good); err != nil {
		t.Fatalf("generator value rejected: %v", err)
	}
	if err := g.checkValue(keyName(3), g.value(3, 3)); err != nil {
		t.Fatalf("preload value rejected: %v", err)
	}
	other := newGen(10, w)
	for name, v := range map[string][]byte{
		"other seed":        other.value(k, n),
		"other key":         g.value((k+1)%numKeys, n),
		"truncated":         good[:valueSize-1],
		"garbage":           []byte("hello"),
		"not found":         kvstore.ReplyNotFound,
		"value no op wrote": g.value(k, n+1),
	} {
		if err := g.checkValue(keyName(k), v); err == nil {
			t.Errorf("%s: foreign value accepted", name)
		}
	}
}

func TestCheckStateRequiresEveryKeyWithAGeneratorValue(t *testing.T) {
	w, _ := findWorkload("raft-write-c4")
	g := newGen(2, w)
	all := map[string][]byte{}
	for k := 0; k < numKeys; k++ {
		all[keyName(k)] = g.value(k, uint64(k))
	}
	if err := checkState(g, [][]byte{snapshotOf(t, all)}); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	all[keyName(7)] = []byte("k0007 op=7 forged")
	if err := checkState(g, [][]byte{snapshotOf(t, all)}); err == nil {
		t.Error("foreign value in final state accepted")
	}
	delete(all, keyName(7))
	if err := checkState(g, [][]byte{snapshotOf(t, all)}); err == nil {
		t.Error("lost key accepted")
	}
}
