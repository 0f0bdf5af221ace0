// Command subsumd runs a subscription-summarization broker network and
// serves it to TCP clients over the line-delimited JSON protocol of
// internal/wire.
//
// Usage:
//
//	subsumd -addr 127.0.0.1:7070 \
//	        -schema "exchange:string,symbol:string,price:float,volume:int" \
//	        -topology cw24 \
//	        -propagate-every 5s \
//	        -http 127.0.0.1:7071
//
// Clients send one JSON object per line:
//
//	{"op":"subscribe","broker":3,"expr":"symbol = OTE && price < 8.70"}
//	{"op":"publish","broker":0,"event":"symbol=OTE price=8.40"}
//	{"op":"propagate"}
//	{"op":"stats"}
//
// and receive replies plus pushed {"type":"delivery",...} lines for their
// subscriptions. Try it interactively with `nc`.
//
// Operator telemetry is served only by the -http debug listener
// (internal/debughttp), which subsumtop polls: /metrics
// (instrument-registry snapshot, text, ?format=json, or Prometheus
// exposition via the Accept header), /debug/history (metrics
// time-series), /debug/convergence (summary health), /debug/slo (error
// budgets), /debug/journal (the flight-recorder journal), /trace (sampled
// hop traces; ?sample=N adjusts the rate, ?format=chrome exports for
// chrome://tracing), /debug/pprof/ and /debug/vars.
//
// The daemon keeps a bounded flight-recorder journal of engine events
// (-journal-kb), samples the metrics registry into ring-buffer
// time-series (-sample-interval, -history-cap), and runs an invariant
// watchdog (-watchdog) that cross-checks coverage, flow conservation,
// and byte accounting. On panic or SIGQUIT it writes a crash dump —
// journal plus metrics snapshot — to -crash-dump (stderr when unset).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/subsum/subsum/internal/broker"
	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/debughttp"
	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/slo"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		schemaStr = flag.String("schema", "exchange:string,symbol:string,when:date,price:float,volume:int,high:float,low:float",
			"comma-separated name:type attribute list (types: string,int,float,date)")
		topoName = flag.String("topology", "cw24", "cw24, fig7, or ring:<n>")
		every    = flag.Duration("propagate-every", 5*time.Second, "summary propagation period (0 disables)")
		fullSync = flag.Int("full-sync-every", 0, "ship the full merged summary every k-th propagation period instead of the delta (0 disables; recovers coverage lost to message loss)")
		snapshot = flag.String("snapshot", "", "path to write a snapshot of all subscriptions on shutdown (and load on startup if present)")
		httpAddr = flag.String("http", "", "debug listen address serving /metrics, /debug/*, /trace to subsumtop and scrapers (empty disables)")
		traceN   = flag.Int("trace-sample", 0, "record a hop trace for every Nth published event (0 disables)")
		logJSON  = flag.Bool("log-json", false, "emit structured JSON logs instead of text")

		sampleEvery = flag.Duration("sample-interval", time.Second, "metrics time-series sampling interval (0 disables /debug/history)")
		historyCap  = flag.Int("history-cap", 300, "points retained per metrics time-series")
		sloEvery    = flag.Duration("slo-interval", 5*time.Second, "SLO error-budget evaluation interval (0 disables /debug/slo; requires a sampler)")
		sloLatency  = flag.Duration("slo-latency-p99", 50*time.Millisecond, "publish→deliver p99 latency target")
		sloBytes    = flag.Float64("slo-bytes-per-period", 64*1024, "propagation bytes-per-period ceiling")
		journalKB   = flag.Int("journal-kb", 256, "flight-recorder journal capacity in KiB (0 disables /debug/journal and crash-dump journals)")
		wdEvery     = flag.Duration("watchdog", 10*time.Second, "invariant watchdog check interval (0 disables)")
		crashDump   = flag.String("crash-dump", "", "path for the crash dump written on panic or SIGQUIT (empty: dump to stderr)")
	)
	flag.Parse()

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler).With("component", "subsumd")
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	s, err := parseSchema(*schemaStr)
	if err != nil {
		fatal("bad -schema", "err", err)
	}
	topo, err := parseTopology(*topoName)
	if err != nil {
		fatal("bad -topology", "err", err)
	}
	reg := metrics.NewRegistry()
	var rec *flight.Recorder
	if *journalKB > 0 {
		rec = flight.NewRecorder(*journalKB * 1024)
	}
	// A panicking daemon leaves its last seconds of history behind: the
	// recover writes the journal + metrics crash dump, then re-panics so
	// the process still dies with the original stack trace.
	defer func() {
		if r := recover(); r != nil {
			logger.Error("panic: writing crash dump", "panic", fmt.Sprint(r))
			writeCrashDump(*crashDump, rec, reg, logger)
			panic(r)
		}
	}()
	var network *core.Network
	if *snapshot != "" {
		if f, err := os.Open(*snapshot); err == nil {
			// Restored subscriptions have no connected consumer; they are
			// matched and counted but delivered nowhere until a client
			// re-subscribes. Operators typically pair snapshots with
			// durable consumer queues; this daemon logs instead.
			network, err = core.LoadSnapshot(f, core.Config{Topology: topo, FullSyncEvery: *fullSync, Metrics: reg, Flight: rec},
				func(id subid.ID, sub *schema.Subscription) broker.DeliveryFunc {
					blog := logger.With("broker", int(id.Broker), "local", uint32(id.Local))
					return func(id subid.ID, ev *schema.Event) {
						blog.Info("delivery for restored subscription", "event", ev.Format(s))
					}
				})
			f.Close()
			if err != nil {
				fatal("loading snapshot", "path", *snapshot, "err", err)
			}
			logger.Info("restored snapshot", "path", *snapshot)
			// The snapshot's schema is authoritative for the restored
			// network; the -schema flag is ignored in that case.
			s = network.Schema()
			if _, err := network.Propagate(); err != nil {
				fatal("rebuilding summaries", "err", err)
			}
		}
	}
	if network == nil {
		var err error
		network, err = core.New(core.Config{Topology: topo, Schema: s, FullSyncEvery: *fullSync, Metrics: reg, Flight: rec})
		if err != nil {
			fatal("building network", "err", err)
		}
	}
	defer network.Close()
	network.SetTraceSampling(*traceN)

	var sampler *metrics.Sampler
	if *sampleEvery > 0 {
		sampler = metrics.NewSampler(reg, *sampleEvery, *historyCap)
		if *sloEvery > 0 {
			// The latency objective computes windowed quantiles from bucket
			// deltas; opt the family in before the first tick.
			sampler.RetainBuckets(slo.LatencyFamily)
		}
		sampler.Start()
		defer sampler.Stop()
	}
	var monitor *slo.Monitor
	if *sloEvery > 0 && sampler != nil {
		tg := slo.DefaultTargets()
		tg.LatencyP99Seconds = sloLatency.Seconds()
		tg.StalenessPeriods = float64(*fullSync)
		tg.BytesPerPeriodCeiling = *sloBytes
		eng, err := slo.New(slo.DefaultSpecs(tg)...)
		if err != nil {
			fatal("building slo engine", "err", err)
		}
		monitor = slo.NewMonitor(eng, sampler, reg, rec)
		monitor.Start(*sloEvery)
		defer monitor.Stop()
	}
	if *wdEvery > 0 {
		network.StartWatchdog(*wdEvery)
	}

	srv := wire.NewServer(network, s)
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal("listen", "addr", *addr, "err", err)
	}
	defer srv.Close()
	logger.Info("listening", "addr", bound, "topology", topo.String(), "schema", s.String())

	if *httpAddr != "" {
		st := debughttp.State{Network: network, Sampler: sampler, Rec: rec}
		if monitor != nil {
			st.SLO = monitor.Last
		}
		dbgAddr, stopDebug, err := debughttp.Start(*httpAddr, st, logger)
		if err != nil {
			fatal("debug listen", "addr", *httpAddr, "err", err)
		}
		defer stopDebug()
		logger.Info("debug http listening", "addr", dbgAddr,
			"endpoints", "/metrics /debug/history /debug/convergence /debug/slo /debug/journal /trace /debug/pprof/ /debug/vars")
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	// SIGQUIT is the operator's "tell me what you were doing" signal:
	// write the crash dump and exit without running the normal shutdown
	// path, mirroring the Go runtime's fatal handling of the signal.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		<-quit
		logger.Info("SIGQUIT: writing crash dump")
		writeCrashDump(*crashDump, rec, reg, logger)
		os.Exit(2)
	}()

	// The propagation loop owns a done channel so shutdown actually stops
	// it: ranging over ticker.C alone would leave the goroutine parked
	// forever, since Ticker.Stop does not close the channel.
	propDone := make(chan struct{})
	propStopped := make(chan struct{})
	if *every > 0 {
		ticker := time.NewTicker(*every)
		plog := logger.With("subsystem", "propagation")
		go func() {
			defer close(propStopped)
			defer ticker.Stop()
			for {
				select {
				case <-propDone:
					plog.Info("propagation loop stopped")
					return
				case <-ticker.C:
					hops, err := network.Propagate()
					if err != nil {
						plog.Error("propagation failed", "err", err)
						continue
					}
					if hops > 0 {
						plog.Info("propagation period", "summary_hops", hops)
					}
				}
			}
		}()
	} else {
		close(propStopped)
	}

	<-stop
	close(propDone)
	<-propStopped
	if *snapshot != "" {
		f, err := os.Create(*snapshot)
		if err != nil {
			logger.Error("snapshot", "err", err)
		} else {
			if err := network.SaveSnapshot(f); err != nil {
				logger.Error("snapshot", "err", err)
			}
			f.Close()
			logger.Info("snapshot written", "path", *snapshot)
		}
	}
	logger.Info("shutting down")
}

// writeCrashDump serializes the flight journal plus a metrics snapshot
// to path, or to stderr when path is empty.
func writeCrashDump(path string, rec *flight.Recorder, reg *metrics.Registry, logger *slog.Logger) {
	if path == "" {
		_ = flight.Dump(os.Stderr, rec, reg)
		return
	}
	if err := flight.DumpToFile(path, rec, reg); err != nil {
		logger.Error("crash dump failed", "path", path, "err", err)
		return
	}
	logger.Info("crash dump written", "path", path)
}

func parseSchema(spec string) (*schema.Schema, error) {
	var attrs []schema.Attribute
	for _, tok := range strings.Split(spec, ",") {
		parts := strings.SplitN(strings.TrimSpace(tok), ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad attribute %q (want name:type)", tok)
		}
		t, err := schema.ParseType(parts[1])
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, schema.Attribute{Name: parts[0], Type: t})
	}
	return schema.New(attrs...)
}

func parseTopology(name string) (*topology.Graph, error) {
	switch {
	case name == "cw24":
		return topology.CW24(), nil
	case name == "fig7":
		return topology.Figure7Tree(), nil
	case strings.HasPrefix(name, "ring:"):
		var n int
		if _, err := fmt.Sscanf(name, "ring:%d", &n); err != nil || n < 3 {
			return nil, fmt.Errorf("bad ring spec %q", name)
		}
		return topology.Ring(n), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}
