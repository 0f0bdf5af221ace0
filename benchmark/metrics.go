package main

import (
	"math"
	"slices"
	"sort"
)

// metricDef is one named metric of the benchmark. The two tables below are
// the benchmark's vocabulary: BENCHMARK.json at the repository root is
// generated from them (-manifest) and a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Moves  string  // per-layer only: the end-to-end metric @ workload it should move
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them (the driver's contract), which is why subs_per_s and
// propagate_period_ms — defined only where subscriptions churn — live in
// the per-layer table, and why failed_ratio is carried by the result
// line's attempted/failed counts instead of a metric that is always 0.
// deliver_p50_us, cpu_us_per_event and the two p99 latencies were demoted
// to the per-layer table: on this shared two-core host they spread across
// ten seeds up to, or past, the widest bound the driver allows (README,
// "Steadiness"). Throughput and Publish→done latency stay, at that bound.
// The counter ratios get three times their spread across seeds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "publish_done_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "hops_per_event", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "wire_bytes_per_event", Unit: "B", Better: "lower", Bound: 0.15},
	{Name: "propagation_bytes_per_period", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "heap_after_setup_mb", Unit: "MiB", Better: "lower", Bound: 0.05},
}

// perLayer prices single layers (prefix = package under internal/). Unit
// costs are timed in isolation over the workload's own event pool against
// the workload's own post-set-up network; counts come from the engine's
// exported counters over the end-to-end phases.
var perLayer = []metricDef{
	{Name: "deliver_p50_us", Unit: "us", Better: "lower", Moves: "itself (end-to-end, demoted: unsteady on this host)"},
	{Name: "deliver_p99_us", Unit: "us", Better: "lower", Moves: "itself (end-to-end, demoted: unsteady on this host)"},
	{Name: "publish_done_p99_us", Unit: "us", Better: "lower", Moves: "itself (end-to-end, demoted: unsteady on this host)"},
	{Name: "cpu_us_per_event", Unit: "us", Better: "lower", Moves: "itself (end-to-end, demoted: unsteady on this host)"},

	{Name: "schema.parse_event_ns", Unit: "ns", Better: "lower", Moves: "publish_done_p50_us@tcp-fanout-cw24"},
	{Name: "schema.encode_event_ns", Unit: "ns", Better: "lower", Moves: "events_per_s@walk-ts256"},
	{Name: "schema.decode_event_ns", Unit: "ns", Better: "lower", Moves: "events_per_s@walk-ts256"},
	{Name: "schema.sub_matches_ns", Unit: "ns", Better: "lower", Moves: "deliver_p50_us@fanout-cw24"},

	{Name: "interval.append_matches_ns", Unit: "ns", Better: "lower", Moves: "events_per_s@match-cw24-24k"},
	{Name: "strmatch.append_matches_ns", Unit: "ns", Better: "lower", Moves: "events_per_s@match-cw24-24k"},

	{Name: "summary.match_ns", Unit: "ns", Better: "lower", Moves: "events_per_s@match-cw24-24k; none@walk-ts256"},
	{Name: "summary.match_candidates", Unit: "count", Better: "lower", Moves: "events_per_s@match-cw24-24k"},
	{Name: "summary.match_allocs", Unit: "count", Better: "lower", Moves: "cpu_us_per_event@match-cw24-24k"},
	{Name: "summary.insert_ns", Unit: "ns", Better: "lower", Moves: "setup_s@match-cw24-24k"},
	{Name: "summary.remove_ns", Unit: "ns", Better: "lower", Moves: "core.subs_per_s@churn-mixed-cw24"},
	{Name: "summary.encode_ns", Unit: "ns", Better: "lower", Moves: "core.propagate_period_ms@churn-mixed-cw24"},
	{Name: "summary.encoded_bytes", Unit: "B", Better: "lower", Moves: "propagation_bytes_per_period@all"},
	{Name: "summary.merge_encoded_ns", Unit: "ns", Better: "lower", Moves: "core.propagate_period_ms@churn-mixed-cw24"},
	{Name: "summary.model_bytes", Unit: "B", Better: "lower", Moves: "heap_after_setup_mb@match-cw24-24k"},

	{Name: "broker.match_merged_origin_ns", Unit: "ns", Better: "lower", Moves: "publish_done_p50_us@walk-ts256"},
	{Name: "broker.match_merged_hub_ns", Unit: "ns", Better: "lower", Moves: "events_per_s@match-cw24-24k"},
	{Name: "broker.deliver_exact_ns", Unit: "ns", Better: "lower", Moves: "events_per_s@fanout-cw24"},
	{Name: "broker.deliver_hit_ratio", Unit: "ratio", Better: "higher", Moves: "deliver_p50_us@fanout-cw24"},
	{Name: "broker.subscribe_ns", Unit: "ns", Better: "lower", Moves: "core.subs_per_s@churn-mixed-cw24"},
	{Name: "broker.unsubscribe_ns", Unit: "ns", Better: "lower", Moves: "core.subs_per_s@churn-mixed-cw24"},
	{Name: "broker.take_period_summary_ns", Unit: "ns", Better: "lower", Moves: "core.propagate_period_ms@churn-mixed-cw24"},
	{Name: "broker.merge_encoded_summary_ns", Unit: "ns", Better: "lower", Moves: "core.propagate_period_ms@churn-mixed-cw24"},
	{Name: "broker.snapshot_rebuild_ns", Unit: "ns", Better: "lower", Moves: "deliver_p50_us@churn-mixed-cw24"},
	{Name: "broker.max_routed_share", Unit: "ratio", Better: "lower", Moves: "events_per_s@fanout-cw24"},

	{Name: "netsim.send_handle_ns", Unit: "ns", Better: "lower", Moves: "publish_done_p50_us@walk-ts256"},
	{Name: "netsim.msgs_per_event", Unit: "count", Better: "lower", Moves: "hops_per_event@all"},
	{Name: "netsim.bytes_per_event", Unit: "B", Better: "lower", Moves: "wire_bytes_per_event@all"},
	{Name: "netsim.dropped", Unit: "count", Better: "lower", Moves: "failed@all"},
	{Name: "netsim.decode_errors", Unit: "count", Better: "lower", Moves: "failed@all"},
	{Name: "netsim.handler_errors", Unit: "count", Better: "lower", Moves: "failed@all"},

	{Name: "propagation.run_ns", Unit: "ns", Better: "lower", Moves: "core.propagate_period_ms@churn-mixed-cw24"},
	{Name: "propagation.wire_bytes", Unit: "B", Better: "lower", Moves: "propagation_bytes_per_period@all"},

	{Name: "core.publish_call_ns", Unit: "ns", Better: "lower", Moves: "publish_done_p50_us@fanout-cw24"},
	{Name: "core.flush_wait_ns", Unit: "ns", Better: "lower", Moves: "publish_done_p50_us@walk-ts256"},
	{Name: "core.routed_per_event", Unit: "count", Better: "lower", Moves: "hops_per_event@walk-ts256"},
	{Name: "core.forwarded_per_event", Unit: "count", Better: "lower", Moves: "hops_per_event@walk-ts256"},
	{Name: "core.deliver_sends_per_event", Unit: "count", Better: "lower", Moves: "hops_per_event@fanout-cw24"},
	{Name: "core.propagate_ns", Unit: "ns", Better: "lower", Moves: "core.propagate_period_ms@churn-mixed-cw24"},
	{Name: "core.propagate_hops", Unit: "count", Better: "lower", Moves: "propagation_bytes_per_period@all"},
	{Name: "core.subscribe_ns", Unit: "ns", Better: "lower", Moves: "core.subs_per_s@churn-mixed-cw24"},
	{Name: "core.unsubscribe_ns", Unit: "ns", Better: "lower", Moves: "core.subs_per_s@churn-mixed-cw24"},
	{Name: "core.subs_per_s", Unit: "1/s", Better: "higher", Moves: "itself@churn-mixed-cw24 (end-to-end there)"},
	{Name: "core.propagate_period_ms", Unit: "ms", Better: "lower", Moves: "itself@churn-mixed-cw24 (end-to-end there)"},
	{Name: "core.allocs_per_event", Unit: "count", Better: "lower", Moves: "cpu_us_per_event@all"},
	{Name: "core.alloc_bytes_per_event", Unit: "B", Better: "lower", Moves: "cpu_us_per_event@all"},
	{Name: "core.gc_cycles", Unit: "count", Better: "lower", Moves: "publish_done_p99_us@all"},
	{Name: "core.attributed_us_per_event", Unit: "us", Better: "lower", Moves: "publish_done_p50_us@all"},
	{Name: "core.unattributed_share", Unit: "ratio", Better: "lower", Moves: "publish_done_p50_us@walk-ts256"},

	{Name: "ledger.schema_us", Unit: "us", Better: "lower", Moves: "publish_done_p50_us@walk-ts256"},
	{Name: "ledger.match_us", Unit: "us", Better: "lower", Moves: "publish_done_p50_us@match-cw24-24k"},
	{Name: "ledger.deliver_exact_us", Unit: "us", Better: "lower", Moves: "publish_done_p50_us@fanout-cw24"},
	{Name: "ledger.netsim_us", Unit: "us", Better: "lower", Moves: "publish_done_p50_us@walk-ts256"},
	{Name: "ledger.per_event_us", Unit: "us", Better: "lower", Moves: "publish_done_p50_us@all"},

	{Name: "wire.ping_rtt_us", Unit: "us", Better: "lower", Moves: "publish_done_p50_us@tcp-fanout-cw24"},
	{Name: "wire.publish_rtt_us", Unit: "us", Better: "lower", Moves: "publish_done_p50_us@tcp-fanout-cw24"},
	{Name: "wire.subscribe_rtt_us", Unit: "us", Better: "lower", Moves: "setup_s@tcp-fanout-cw24"},
	{Name: "wire.request_bytes", Unit: "B", Better: "lower", Moves: "publish_done_p50_us@tcp-fanout-cw24"},
	{Name: "wire.delivery_bytes_per_event", Unit: "B", Better: "lower", Moves: "deliver_p50_us@tcp-fanout-cw24"},
	{Name: "wire.overhead_us_per_event", Unit: "us", Better: "lower", Moves: "events_per_s@tcp-fanout-cw24; none@fanout-cw24"},

	{Name: "topology.generate_ms", Unit: "ms", Better: "lower", Moves: "setup_s@walk-ts256"},
	{Name: "core.new_ms", Unit: "ms", Better: "lower", Moves: "setup_s@walk-ts256"},
	{Name: "core.subscribe_load_ms", Unit: "ms", Better: "lower", Moves: "setup_s@match-cw24-24k"},
	{Name: "core.first_propagate_ms", Unit: "ms", Better: "lower", Moves: "setup_s@match-cw24-24k"},

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "none (prices the measurement)"},
	{Name: "harness.callback_ns", Unit: "ns", Better: "lower", Moves: "none (prices the measurement)"},
	{Name: "harness.oracle_s", Unit: "s", Better: "lower", Moves: "none (prices the measurement)"},
}

// median returns the middle value (mean of the two middle values for an
// even count) of xs, which it sorts in place. NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// percentile returns the q-quantile (nearest rank) of sorted, which must be
// in ascending order and non-empty.
func percentile(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// latencyChunk is how many consecutive latency samples make one chunk:
// enough for a p99 with ten samples beyond it.
const latencyChunk = 1000

// latencyPercentiles reduces latency samples (ns, in the order they were
// taken) to a median and a tail in µs. Each is the median over chunks of
// latencyChunk consecutive samples of that chunk's own percentile, so a
// burst of slow events — a collection, a neighbour on the host — moves one
// chunk and not the result. Fewer samples than two chunks are taken whole,
// with the tail the sample count supports.
func latencyPercentiles(samples []int64) (p50, tail float64) {
	var p50s, tails []float64
	for lo := 0; lo < len(samples); {
		hi := lo + latencyChunk
		if len(samples)-hi < latencyChunk {
			hi = len(samples) // the remainder joins the last chunk
		}
		chunk := append([]int64(nil), samples[lo:hi]...)
		slices.Sort(chunk)
		p50s = append(p50s, float64(percentile(chunk, 0.5))/1e3)
		tails = append(tails, float64(tailPercentile(chunk))/1e3)
		lo = hi
	}
	return median(p50s), median(tails)
}

// tailPercentile picks the highest of p99, p95, p90 that still has at
// least ten samples beyond it (the choosing-metrics rule); with fewer than
// 100 samples it falls back to the maximum.
func tailPercentile(sorted []int64) int64 {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(len(sorted))*(1-q) >= 10 {
			return percentile(sorted, q)
		}
	}
	return sorted[len(sorted)-1]
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method Python's statistics.quantiles(xs, n=4) uses, so the
// numbers -sets prints are the ones the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
