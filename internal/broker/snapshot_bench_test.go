package broker

import (
	"fmt"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/workload"
)

// BenchmarkSnapshotRebuild prices what the first match after a mutation
// pays: compiling the merged summary of a 24-broker hub into the published
// match snapshot.
func BenchmarkSnapshotRebuild(b *testing.B) {
	for _, subs := range []int{24000, 2400} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			gen, err := workload.NewGenerator(workload.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			const brokers = 24
			sum := summary.New(gen.Schema(), interval.Lossy)
			for i := 0; i < subs; i++ {
				id := subid.ID{Broker: subid.BrokerID(i % brokers), Local: subid.LocalID(i / brokers)}
				if err := sum.Insert(id, gen.Subscription()); err != nil {
					b.Fatal(err)
				}
			}
			hub, err := New(Config{ID: brokers, Schema: gen.Schema(), Mode: interval.Lossy, NumBrokers: brokers + 1})
			if err != nil {
				b.Fatal(err)
			}
			mask := subid.NewMask(brokers + 1)
			for i := 0; i < brokers; i++ {
				mask.Set(i)
			}
			if err := hub.MergeEncodedSummary(sum.Encode(nil), mask); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hub.mu.Lock()
				hub.invalidateMatch()
				hub.mu.Unlock()
				hub.matchSnapshot()
			}
		})
	}
}
