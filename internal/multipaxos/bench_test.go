package multipaxos

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/types"
)

// BenchmarkLeaderAcceptBatched measures phase 2 on a 3-node cluster
// when k Submits share one Drain: the leader sends one Accept per
// follower for the k values, gets one Accepted back from each, and
// commits them in one Commit per follower. An op is one submitted
// value, so ns/op, allocs/op and msgs/op (every message the cluster
// sent, heartbeats included) are per value at every k.
func BenchmarkLeaderAcceptBatched(b *testing.B) {
	for _, k := range []int{1, 64} {
		b.Run(fmt.Sprintf("submits=%d", k), func(b *testing.B) {
			c := NewCluster(3, nil, Config{Seed: 1}, nil)
			lead := c.WaitLeader(1000)
			if lead == nil {
				b.Fatal("no leader")
			}
			c.Run(20)
			val := types.Value("bench-value-0123456789abcdef")
			c.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += k {
				batch := min(k, b.N-done)
				target := lead.CommitFrontier() + types.Seq(batch)
				for i := 0; i < batch; i++ {
					lead.Submit(val)
				}
				if !c.RunUntil(func() bool { return lead.CommitFrontier() >= target }, 200) {
					b.Fatal("commit stalled")
				}
				for _, n := range c.Nodes {
					n.TakeDecisions()
				}
			}
			b.ReportMetric(float64(c.Stats().Sent)/float64(b.N), "msgs/op")
		})
	}
}
