package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/subsum/subsum/internal/broker"
	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// churnReport is the tracked sustained-churn baseline: the live engine on
// the paper's 24-broker backbone absorbing a continuous
// subscribe/unsubscribe stream, with retraction deltas and periodic full
// syncs keeping remote merged summaries bounded by the live population.
type churnReport struct {
	GeneratedAt string `json:"generated_at"`
	Workload    struct {
		Topology            string  `json:"topology"`
		Brokers             int     `json:"brokers"`
		RatePerPeriod       int     `json:"rate_per_period"`
		MeanLifetimePeriods float64 `json:"mean_lifetime_periods"`
		Periods             int     `json:"periods"`
		FullSyncEvery       int     `json:"full_sync_every"`
		SteadyStateLive     int     `json:"steady_state_live"`
	} `json:"workload"`
	// Sustained summarizes the 70-period live-engine run. Bounded is the
	// acceptance criterion: once the population plateaus, total merged
	// model bytes across the network must not grow period over period.
	Sustained struct {
		SubsPerSecAbsorbed   float64           `json:"subs_per_sec_absorbed"`
		TotalSubscribes      int               `json:"total_subscribes"`
		TotalUnsubscribes    int               `json:"total_unsubscribes"`
		Compactions          int64             `json:"compactions"`
		WatchdogViolations   int               `json:"watchdog_violations"`
		MergedBytesWindowA   float64           `json:"merged_bytes_window_a_mean"`
		MergedBytesWindowB   float64           `json:"merged_bytes_window_b_mean"`
		MergedBytesGrowthPct float64           `json:"merged_bytes_growth_pct"`
		Bounded              bool              `json:"bounded"`
		Periods              []churnPeriodStat `json:"periods"`
	} `json:"sustained"`
	Results []benchResult `json:"results"`
	// UnsubScaleRatio is the per-unsubscribe cost at 20k live
	// subscriptions over the cost at 10k: ≈1 means the cost is
	// independent of the live population, so n unsubscribes cost O(n)
	// total; the old compact-on-every-unsubscribe behavior scaled this
	// with the live count (≈2).
	UnsubScaleRatio float64 `json:"unsub_scale_ratio"`
}

// benchResult is one benchmark line of BENCH_churn.json.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// churnPeriodStat is one propagation period of the sustained run.
type churnPeriodStat struct {
	Period           int   `json:"period"`
	Live             int   `json:"live"`
	WireBytes        int64 `json:"wire_bytes"`
	MergedModelBytes int   `json:"merged_model_bytes"`
	Compactions      int64 `json:"compactions"`
}

func noDeliver(subid.ID, *schema.Event) {}

// churnNet couples a live network with a churn stream and the
// handle-to-id mapping between them.
type churnNet struct {
	net          *core.Network
	ch           *workload.Churn
	ids          map[int]subid.ID
	n            int
	subs, unsubs int
}

func newChurnNet(rate int, meanLifetime float64, fullSyncEvery int) (*churnNet, error) {
	gen, err := workload.NewGenerator(workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	g := topology.CW24()
	net, err := core.New(core.Config{
		Topology:      g,
		Schema:        gen.Schema(),
		Mode:          interval.Lossy,
		FullSyncEvery: fullSyncEvery,
	})
	if err != nil {
		return nil, err
	}
	ch, err := workload.NewChurn(gen, workload.ChurnConfig{
		Rate:         rate,
		MeanLifetime: meanLifetime,
		Dist:         workload.LifetimeGeometric,
		Seed:         1,
	})
	if err != nil {
		net.Close()
		return nil, err
	}
	return &churnNet{net: net, ch: ch, ids: make(map[int]subid.ID), n: g.Len()}, nil
}

// period applies one period of churn (deaths, then births spread
// round-robin over the brokers) and runs one Algorithm 2 period.
func (cn *churnNet) period() error {
	cp := cn.ch.Period()
	for _, h := range cp.Died {
		if err := cn.net.Unsubscribe(cn.ids[h]); err != nil {
			return err
		}
		delete(cn.ids, h)
		cn.unsubs++
	}
	for _, bs := range cp.Born {
		at := topology.NodeID(bs.Handle % cn.n)
		id, err := cn.net.Subscribe(at, bs.Sub, noDeliver)
		if err != nil {
			return err
		}
		cn.ids[bs.Handle] = id
		cn.subs++
	}
	_, err := cn.net.Propagate()
	return err
}

func (cn *churnNet) mergedModelBytes() int {
	total := 0
	for i := 0; i < cn.n; i++ {
		total += cn.net.Broker(topology.NodeID(i)).Stats().ModelBytes
	}
	return total
}

func (cn *churnNet) compactions() int64 {
	var total int64
	for i := 0; i < cn.n; i++ {
		total += cn.net.Broker(topology.NodeID(i)).Stats().Compactions
	}
	return total
}

// benchUnsubBatch measures the pure unsubscribe path: one op is a timed
// batch of k unsubscribes of propagated subscriptions against a broker
// whose population shrinks from 2k to k during the batch (refilled
// untimed between iterations). Per-unsubscribe cost is ns/op divided by
// k; comparing it across k values exposes any population-proportional
// term — the old compact-on-every-removal made it scale linearly with
// the live count, the amortized compactor keeps it flat.
func benchUnsubBatch(k int) (testing.BenchmarkResult, error) {
	gen, err := workload.NewGenerator(workload.DefaultConfig())
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	br, err := broker.New(broker.Config{ID: 0, Schema: gen.Schema(), Mode: interval.Lossy, NumBrokers: 2})
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	var fifo []subid.ID
	refill := func() error {
		for len(fifo) < 2*k {
			id, err := br.Subscribe(gen.Subscription(), noDeliver)
			if err != nil {
				return err
			}
			fifo = append(fifo, id)
		}
		br.TakeDelta() // mark everything propagated: the retraction path
		// Lift accumulated id fences so the map stays bounded across b.N.
		br.TakePeriodSummary(true)
		br.FinishFullSync()
		// Pay off the refill's GC debt outside the timed region —
		// otherwise assists proportional to the k subscribes just
		// allocated land inside the unsubscribe measurement.
		runtime.GC()
		return nil
	}
	if err := refill(); err != nil {
		return testing.BenchmarkResult{}, err
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := refill(); err != nil {
				benchErr = err
				b.Fatal(err)
			}
			b.StartTimer()
			for j := 0; j < k; j++ {
				if err := br.Unsubscribe(fifo[j]); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
			fifo = fifo[k:]
		}
	})
	return res, benchErr
}

// runBenchChurn runs the sustained-churn baseline and emits the numbers
// as JSON — to jsonPath if non-empty, else to stdout. This is what CI
// archives and benchcheck gates as BENCH_churn.json.
func runBenchChurn(jsonPath string) error {
	const (
		rate          = 200
		meanLifetime  = 5.0
		periods       = 70
		rampPeriods   = 20 // population plateau: the bounded check starts here
		fullSyncEvery = 10
	)

	cn, err := newChurnNet(rate, meanLifetime, fullSyncEvery)
	if err != nil {
		return err
	}
	defer cn.net.Close()

	var rep churnReport
	rep.Workload.Topology = "cw24"
	rep.Workload.Brokers = cn.n
	rep.Workload.RatePerPeriod = rate
	rep.Workload.MeanLifetimePeriods = meanLifetime
	rep.Workload.Periods = periods
	rep.Workload.FullSyncEvery = fullSyncEvery
	rep.Workload.SteadyStateLive = cn.ch.SteadyStateLive()

	start := time.Now()
	var lastWire int64
	for p := 1; p <= periods; p++ {
		if err := cn.period(); err != nil {
			return err
		}
		wire := cn.net.Stats().Bytes[netsim.KindSummary]
		rep.Sustained.Periods = append(rep.Sustained.Periods, churnPeriodStat{
			Period:           p,
			Live:             cn.ch.Live(),
			WireBytes:        wire - lastWire,
			MergedModelBytes: cn.mergedModelBytes(),
			Compactions:      cn.compactions(),
		})
		lastWire = wire
	}
	elapsed := time.Since(start)
	rep.Sustained.TotalSubscribes = cn.subs
	rep.Sustained.TotalUnsubscribes = cn.unsubs
	rep.Sustained.Compactions = cn.compactions()
	rep.Sustained.SubsPerSecAbsorbed = float64(cn.subs+cn.unsubs) / elapsed.Seconds()
	// The last period (70) is a full sync and the network is idle, so the
	// watchdog's convergence check asserts exact remote counts here.
	rep.Sustained.WatchdogViolations = len(cn.net.CheckInvariants())

	// Bounded steady state: compare the two post-ramp halves of the merged
	// model-byte series. Retractions and resyncs must hold remote state at
	// the live population, so the second half may not drift upward.
	half := (periods - rampPeriods) / 2
	meanOf := func(from, to int) float64 {
		total := 0.0
		for _, st := range rep.Sustained.Periods[from:to] {
			total += float64(st.MergedModelBytes)
		}
		return total / float64(to-from)
	}
	rep.Sustained.MergedBytesWindowA = meanOf(rampPeriods, rampPeriods+half)
	rep.Sustained.MergedBytesWindowB = meanOf(rampPeriods+half, periods)
	if rep.Sustained.MergedBytesWindowA > 0 {
		rep.Sustained.MergedBytesGrowthPct = 100 * (rep.Sustained.MergedBytesWindowB/rep.Sustained.MergedBytesWindowA - 1)
	}
	rep.Sustained.Bounded = rep.Sustained.MergedBytesGrowthPct < 5

	// Scaling proof for the amortized compaction: per-unsubscribe cost
	// must not grow with the live population.
	unsub10k, err := benchUnsubBatch(10_000)
	if err != nil {
		return err
	}
	unsub20k, err := benchUnsubBatch(20_000)
	if err != nil {
		return err
	}

	// One full engine period (deaths + births + Algorithm 2) at steady
	// state, continuing the already-ramped network.
	periodBench := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := cn.period(); err != nil {
				b.Fatal(err)
			}
		}
	})

	record := func(name string, r testing.BenchmarkResult) benchResult {
		return benchResult{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
	}
	// One benchUnsubBatch op is a batch of k unsubscribes; normalize to
	// per-unsubscribe cost so the two sizes are directly comparable.
	recordPer := func(name string, r testing.BenchmarkResult, k int) benchResult {
		br := record(name, r)
		br.NsPerOp /= float64(k)
		br.AllocsPerOp /= int64(k)
		br.BytesPerOp /= int64(k)
		return br
	}
	rep.Results = []benchResult{
		recordPer("ChurnUnsubscribe10k", unsub10k, 10_000),
		recordPer("ChurnUnsubscribe20k", unsub20k, 20_000),
		record("ChurnPeriodCW24", periodBench),
	}
	if rep.Results[0].NsPerOp > 0 {
		rep.UnsubScaleRatio = rep.Results[1].NsPerOp / rep.Results[0].NsPerOp
	}
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if jsonPath == "" {
		_, err := os.Stdout.Write(out)
		return err
	}
	if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchchurn: %.0f subs/sec absorbed; merged bytes %.0f → %.0f (%.2f%%, bounded=%v); unsub scale ratio %.2f; wrote %s\n",
		rep.Sustained.SubsPerSecAbsorbed, rep.Sustained.MergedBytesWindowA, rep.Sustained.MergedBytesWindowB,
		rep.Sustained.MergedBytesGrowthPct, rep.Sustained.Bounded, rep.UnsubScaleRatio, jsonPath)
	return nil
}
