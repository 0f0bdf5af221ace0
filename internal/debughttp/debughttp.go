// Package debughttp is the operator transport of a live broker network:
// the HTTP listener subsumd starts with -http and subsumtop polls. It
// serves the engine's instrument registry (including Prometheus text
// exposition), retained metrics time-series, the summary-health report,
// SLO error budgets, the flight-recorder journal, sampled hop traces (JSON
// or Chrome trace-event format), Go pprof profiles, and expvar —
// everything needed to observe a live broker network without attaching a
// debugger.
package debughttp

import (
	"encoding/json"
	"expvar"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/slo"
)

// State carries the network the mux serves and its optional
// observability attachments.
type State struct {
	Network *core.Network
	Sampler *metrics.Sampler   // nil: /debug/history is 404
	Rec     *flight.Recorder   // nil: /debug/journal is 404
	SLO     func() *slo.Report // nil: /debug/slo is 404
}

// NewMux builds the handler:
//
//	GET /metrics              registry snapshot, text key-value
//	GET /metrics?format=json  same snapshot as a JSON object
//	GET /metrics with Accept: text/plain; version=0.0.4
//	                          Prometheus text exposition (also ?format=prometheus)
//	GET /debug/history        sampler time-series (values, deltas, rates)
//	GET /debug/journal        flight-recorder journal (?format=text for one line per record)
//	GET /debug/slo            SLO error-budget report: per-objective verdicts,
//	                          burn rates, remaining budget, evidence
//	GET /debug/convergence    summary-health snapshot: per-broker epoch vectors
//	                          with derived staleness plus false-positive attribution
//	GET /trace                retained hop traces, newest first (JSON)
//	GET /trace?sample=N       set sampling to every Nth publish (0 = off)
//	GET /trace?capacity=N     bound the trace store to N traces (0 = default)
//	GET /trace?clear=1        discard retained traces
//	GET /trace?format=chrome  Chrome trace-event JSON (chrome://tracing, Perfetto)
//	    /debug/pprof/...      standard Go profiles
//	GET /debug/vars           expvar (memstats, cmdline)
func NewMux(st State) *http.ServeMux {
	network := st.Network
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		format := r.URL.Query().Get("format")
		if format == "prometheus" || strings.Contains(r.Header.Get("Accept"), "version=0.0.4") {
			w.Header().Set("Content-Type", metrics.PromContentType)
			_ = network.Metrics().WritePrometheus(w)
			return
		}
		if format == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = network.Metrics().WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = network.Metrics().WriteText(w)
	})

	mux.HandleFunc("/debug/history", func(w http.ResponseWriter, r *http.Request) {
		if st.Sampler == nil {
			http.Error(w, "no sampler running (metrics history disabled)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = st.Sampler.WriteJSON(w)
	})

	mux.HandleFunc("/debug/journal", func(w http.ResponseWriter, r *http.Request) {
		if st.Rec == nil {
			http.Error(w, "no flight recorder running (journal disabled)", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = st.Rec.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = st.Rec.WriteJSON(w)
	})

	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
		if st.SLO == nil {
			http.Error(w, "no slo monitor running (error budgets disabled)", http.StatusNotFound)
			return
		}
		rep := st.SLO()
		if rep == nil {
			http.Error(w, "slo monitor has not evaluated yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})

	mux.HandleFunc("/debug/convergence", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(network.Health())
	})

	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if s := q.Get("sample"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "sample must be a non-negative integer", http.StatusBadRequest)
				return
			}
			network.SetTraceSampling(n)
		}
		if s := q.Get("capacity"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "capacity must be a non-negative integer", http.StatusBadRequest)
				return
			}
			network.SetTraceCapacity(n)
		}
		if q.Get("clear") == "1" {
			network.ClearTraces()
		}
		if q.Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			_ = network.WriteChromeTrace(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Sampling int          `json:"sampling"`
			Capacity int          `json:"capacity"`
			Traces   []core.Trace `json:"traces"`
		}{network.TraceSampling(), network.TraceCapacity(), network.Traces()})
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())

	return mux
}

// Start binds addr and serves NewMux(st) in the background. It returns
// the bound address and a shutdown func.
func Start(addr string, st State, logger *slog.Logger) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: NewMux(st)}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("debug http server failed", "err", err)
		}
	}()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
