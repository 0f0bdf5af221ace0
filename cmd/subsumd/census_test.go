package main

import (
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/slo"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/wire"
)

// familyConsumers is the telemetry census of the registry: every metric
// family the daemon registers, with who reads it. A consumer is a value
// assertion in a test, an SLO spec, a benchmark/ read, a subsumtop pane or
// debughttp field, or an operator question README names. A family that
// nothing reads is deleted, not added here.
var familyConsumers = map[string]string{
	"events_published":              "benchmark counters; subsumtop EVENTS; TestNetworkMetricsSnapshot value",
	"events_routed":                 "benchmark counters; subsumtop EVENTS; watchdog flow check",
	"events_forwarded":              "benchmark counters; subsumtop EVENTS; watchdog flow check",
	"events_suppressed":             "subsumtop EVENTS; watchdog flow check",
	"deliver_sends":                 "benchmark hops_per_event; subsumtop EVENTS",
	"propagation_periods":           "benchmark propagation_bytes_per_period; bytes_per_period SLO",
	"propagation_hops":              "benchmark core.propagate_hops; subsumtop PROPAGATION",
	"propagation_bytes":             "benchmark; bytes_per_period SLO; watchdog bytes check; scenario",
	"propagation_period_bytes":      "subsumtop PROPAGATION (p95)",
	"propagation_period_seconds":    "subsumtop PROPAGATION (p95); TestNetworkMetricsSnapshot count",
	"convergence_staleness_periods": "convergence_staleness SLO",
	"event_e2e_latency_seconds":     "publish_deliver_p99 SLO",
	"fp_attr_deliveries":            "TestFPAttributionChargesExactTriple value",
	"fp_attr_false_positives":       "TestFPAttributionChargesExactTriple value",
	"bus_messages":                  "subsumtop BUS; TestStatsMetricsEndToEnd agrees with stats",
	"bus_dropped":                   "delivery_loss SLO; subsumtop BUS",
	"bus_dropped_bytes":             "subsumtop BUS",
	"bus_decode_errors":             "delivery_loss SLO; subsumtop BUS",
	"bus_handler_errors":            "subsumtop BUS",
	"bus_inflight":                  "subsumtop BUS",
	"broker_match_seconds":          "benchmark ledger.match_us; subsumtop BROKERS (p95)",
	"broker_deliveries":             "delivery_precision SLO; subsumtop EVENTS, BROKERS",
	"broker_false_positives":        "delivery_precision SLO; benchmark; subsumtop BROKERS",
	"broker_summary_merges":         "subsumtop BROKERS",
	"broker_subscriptions":          "subsumtop BROKERS; TestRunRendersLiveServer value",
	"broker_merged_subs":            "subsumtop BROKERS",
	"wire_deliveries_shed":          "TestWirePublishBurstNotShed value; DESIGN §TCP front end",
	"slo_state":                     "TestMonitorTransitions value",
	"watchdog_checks":               "subsumtop WATCHDOG",
	"watchdog_violations_total":     "subsumtop WATCHDOG; TestWatchdogCatchesCorruptedSummary value",
}

// kindConsumers is the census of flight-journal kinds. The journal is read
// at /debug/journal and in the crash dump, and answers the operator
// question README names for it: in what order did things happen. Each
// kind names the happening it orders, and the tests that assert its
// arguments.
var kindConsumers = map[string]string{
	"subscribe":          "churn",
	"unsubscribe":        "churn",
	"retract":            "churn that still has to propagate",
	"period-start":       "period boundaries",
	"period-end":         "period boundaries, with hops and bytes",
	"full-sync":          "periods the sync schedule ran",
	"convergence":        "staleness at each period end",
	"merge-ok":           "merges, with payload bytes",
	"merge-error":        "rejected payloads, with the error",
	"drop":               "message loss",
	"decode-error":       "message loss",
	"watchdog-violation": "TestWatchdogCatchesCorruptedSummary (broker and check)",
	"fp-attribution":     "TestFPAttributorJournalsAdmissionsOnly (first sightings)",
	"phase-start":        "scenario phases; TestSmokeScriptControl",
	"phase-end":          "scenario phases",
	"slo-breach":         "TestMonitorTransitions, TestSmokeScriptControl (counts)",
	"slo-recover":        "TestMonitorTransitions, TestSmokeScriptControl (counts)",
}

// TestTelemetryCensus wires a network as main does (registry, flight
// recorder, attributor, sampler, SLO monitor, watchdog, wire server),
// drives one publish, one period and one evaluation, and requires the
// registered families and the declared journal kinds to be exactly the
// census tables above.
func TestTelemetryCensus(t *testing.T) {
	s := schema.MustNew(
		schema.Attribute{Name: "symbol", Type: schema.TypeString},
		schema.Attribute{Name: "price", Type: schema.TypeFloat},
	)
	reg := metrics.NewRegistry()
	rec := flight.NewRecorder(64 * 1024)
	network, err := core.New(core.Config{Topology: topology.Figure7Tree(), Schema: s, FullSyncEvery: 2, Metrics: reg, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer network.Close()
	sampler := metrics.NewSampler(reg, time.Hour, 16)
	sampler.RetainBuckets(slo.LatencyFamily)
	eng, err := slo.New(slo.DefaultSpecs(slo.DefaultTargets())...)
	if err != nil {
		t.Fatal(err)
	}
	monitor := slo.NewMonitor(eng, sampler, reg, rec)
	wd := network.StartWatchdog(time.Hour)
	srv := wire.NewServer(network, s)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sub, err := schema.ParseSubscription(s, `symbol = OTE`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := network.Subscribe(5, sub, func(subid.ID, *schema.Event) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := network.Propagate(); err != nil {
		t.Fatal(err)
	}
	ev, err := schema.ParseEvent(s, "symbol=OTE price=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := network.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	network.Flush()
	sampler.Tick(time.Now())
	monitor.EvalOnce()
	if v := wd.RunOnce(); len(v) > 0 {
		t.Fatalf("watchdog violations: %v", v)
	}

	families := map[string]bool{}
	for _, smp := range reg.Snapshot() {
		// "family{label}" and "family.p95" both name family.
		name := smp.Name
		if i := strings.IndexAny(name, "{."); i >= 0 {
			name = name[:i]
		}
		families[name] = true
	}
	requireCensus(t, "metric family", families, familyConsumers)

	kinds := map[string]bool{}
	for k := flight.EventType(1); !strings.HasPrefix(k.String(), "event("); k++ {
		kinds[k.String()] = true
	}
	requireCensus(t, "journal kind", kinds, kindConsumers)
}

// requireCensus fails unless got and the census table name the same set.
func requireCensus(t *testing.T, what string, got map[string]bool, table map[string]string) {
	t.Helper()
	var extra, missing []string
	for name := range got {
		if _, ok := table[name]; !ok {
			extra = append(extra, name)
		}
	}
	for name := range table {
		if !got[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(extra)
	sort.Strings(missing)
	for _, name := range extra {
		t.Errorf("%s %q has no census entry: name its consumer, or delete it", what, name)
	}
	for _, name := range missing {
		t.Errorf("census lists %s %q, which no longer exists", what, name)
	}
}
