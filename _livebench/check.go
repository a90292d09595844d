package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"fortyconsensus/internal/kvstore"
)

// checkReplicas returns an error unless every replica's snapshot of one
// shard is byte-identical.
func checkReplicas(shard int, snaps [][]byte) error {
	for i := 1; i < len(snaps); i++ {
		if !bytes.Equal(snaps[0], snaps[i]) {
			return fmt.Errorf("shard %d: replica %d diverges from replica 0 (%d vs %d snapshot bytes)",
				shard, i, len(snaps[i]), len(snaps[0]))
		}
	}
	return nil
}

// checkState decodes each shard's agreed snapshot and requires every
// key to be present exactly once across shards, holding a value the
// stream wrote for it.
func checkState(g gen, shardSnaps [][]byte) error {
	seen := make([]bool, numKeys)
	for sh, snap := range shardSnaps {
		st := kvstore.New()
		if err := st.Restore(snap); err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
		for k := 0; k < numKeys; k++ {
			v, ok := st.Get(keyName(k))
			if !ok {
				continue
			}
			if seen[k] {
				return fmt.Errorf("key %s stored on two shards", keyName(k))
			}
			seen[k] = true
			if err := g.checkValue(keyName(k), v); err != nil {
				return fmt.Errorf("shard %d: %w", sh, err)
			}
		}
		if st.Len() > numKeys {
			return fmt.Errorf("shard %d holds %d keys, more than the %d generated", sh, st.Len(), numKeys)
		}
	}
	for k, ok := range seen {
		if !ok {
			return fmt.Errorf("key %s lost", keyName(k))
		}
	}
	return nil
}

// quiesceAndCheck waits, with no load running, until every shard's
// replicas hold identical snapshots, then checks the agreed state.
// Followers learn the final commit index from the next heartbeat, so a
// short wait is normal; a lasting difference is a divergence.
func (c *cluster) quiesceAndCheck(g gen, timeout time.Duration) error {
	end := time.Now().Add(timeout)
	for {
		agreed := make([][]byte, clusterShards)
		var diverged error
		for sh := 0; sh < clusterShards && diverged == nil; sh++ {
			snaps := make([][]byte, 0, len(c.servers))
			for i, s := range c.servers {
				snap, ok := s.SnapshotKV(sh)
				if !ok {
					return fmt.Errorf("shard %d: node %d stopped", sh, i)
				}
				snaps = append(snaps, snap)
			}
			diverged = checkReplicas(sh, snaps)
			agreed[sh] = snaps[0]
		}
		if diverged == nil {
			return checkState(g, agreed)
		}
		if time.Now().After(end) {
			return errors.Join(errors.New("replicas still differ after quiescing"), diverged)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
