// Command subsumtop is a polling terminal dashboard for a running
// subsumd. It reads the daemon's -http debug listener (internal/debughttp),
// so subsumd must run with -http: GET /metrics?format=json (the
// instrument-registry snapshot) and /debug/history (the server-side
// sampler's retained time-series) give current totals and per-interval
// rates, /debug/convergence the health pane and /debug/slo the SLO pane:
//
//	subsumd -http 127.0.0.1:7071 &
//	subsumtop -addr 127.0.0.1:7071 -every 2s
//
// Each frame shows event flow (published/routed/forwarded/suppressed and
// deliver sends with rates, then consumer deliveries and false positives),
// propagation traffic, bus health, watchdog status, a
// summary-health pane (convergence staleness, top false-positive
// sources), and a per-broker
// table (subscriptions, merged coverage, deliveries, false positives,
// staleness, match latency p95). Rates come from the server's history
// ring, so they reflect the sampler's interval, not subsumtop's.
//
// With -json (implies -once) a single machine-readable snapshot —
// registry stats plus the convergence/health report — is printed
// instead of the dashboard.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/slo"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:7071", "subsumd -http debug listener address")
		every  = flag.Duration("every", 2*time.Second, "refresh interval")
		frames = flag.Int("frames", 0, "number of frames to render before exiting (0 = run until interrupted)")
		once   = flag.Bool("once", false, "render one frame and exit (same as -frames 1)")
		asJSON = flag.Bool("json", false, "print one machine-readable snapshot (stats + health) and exit")
	)
	flag.Parse()
	n := *frames
	if *once || *asJSON {
		n = 1
	}
	if err := run(os.Stdout, topConfig{addr: *addr, every: *every, frames: n, clear: true, json: *asJSON}); err != nil {
		fmt.Fprintln(os.Stderr, "subsumtop:", err)
		os.Exit(1)
	}
}

// topConfig parametrizes run so tests can render a bounded number of
// frames into a buffer without ANSI escapes.
type topConfig struct {
	addr   string
	every  time.Duration
	frames int  // 0 = loop until a poll fails
	clear  bool // home-and-clear the terminal between frames
	json   bool // one-shot machine-readable snapshot instead of frames
}

// jsonSnapshot is the -json output document: the same data the
// dashboard panes render, in one parseable object.
type jsonSnapshot struct {
	Addr    string             `json:"addr"`
	Stats   map[string]float64 `json:"stats"`
	Health  *core.HealthReport `json:"health,omitempty"`
	History *metrics.History   `json:"history,omitempty"`
	SLO     *slo.Report        `json:"slo,omitempty"`
}

// run polls the debug listener and renders frames until cfg.frames is
// exhausted or a poll of /metrics fails. The first frame renders
// immediately.
func run(w io.Writer, cfg topConfig) error {
	base := "http://" + cfg.addr
	for frame := 1; ; frame++ {
		mp, err := getJSON[map[string]float64](base + "/metrics?format=json")
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		m := *mp
		// History and SLO are optional server-side (-sample-interval 0,
		// -slo-interval 0: 404; no evaluation yet: 503). A failed poll
		// leaves its pane off: no rates, no SLO or HEALTH pane.
		hist, _ := getJSON[metrics.History](base + "/debug/history")
		health, _ := getJSON[core.HealthReport](base + "/debug/convergence")
		sloRep, _ := getJSON[slo.Report](base + "/debug/slo")
		if cfg.json {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(jsonSnapshot{Addr: cfg.addr, Stats: m, Health: health, History: hist, SLO: sloRep})
		}
		if cfg.clear {
			fmt.Fprint(w, "\x1b[2J\x1b[H")
		}
		renderFrame(w, cfg.addr, frame, m, hist, health, sloRep)
		if cfg.frames > 0 && frame >= cfg.frames {
			return nil
		}
		time.Sleep(cfg.every)
	}
}

// getJSON decodes the document a GET of url returns; any status but 200 is
// an error.
func getJSON[T any](url string) (*T, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	v := new(T)
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return v, nil
}

// renderFrame writes one dashboard frame from a registry snapshot, an
// optional history document, and an optional health report.
func renderFrame(w io.Writer, addr string, frame int, m map[string]float64, hist *metrics.History, health *core.HealthReport, sloRep *slo.Report) {
	rate := func(name string) string {
		if hist == nil {
			return ""
		}
		pt, ok := hist.Latest(name)
		if !ok {
			return ""
		}
		return fmt.Sprintf("%10.1f/s", pt.Rate)
	}

	histNote := "history: off"
	if hist != nil {
		histNote = fmt.Sprintf("history: %d ticks @ %gs", hist.Ticks, hist.IntervalSeconds)
	}
	fmt.Fprintf(w, "subsumtop — %s    frame %d    %s\n\n", addr, frame, histNote)

	fmt.Fprintf(w, "EVENTS\n")
	for _, row := range []struct{ label, name string }{
		{"published", "events_published"},
		{"routed", "events_routed"},
		{"forwarded", "events_forwarded"},
		{"suppressed", "events_suppressed"},
		{"deliver sends", "deliver_sends"},
	} {
		fmt.Fprintf(w, "  %-13s %9.0f %s\n", row.label, m[row.name], rate(row.name))
	}
	fp := sumLabeled(m, "broker_false_positives")
	del := sumLabeled(m, "broker_deliveries")
	ratio := 0.0
	if fp+del > 0 {
		ratio = fp / (fp + del)
	}
	fmt.Fprintf(w, "  %-13s %9.0f\n", "delivered", del)
	fmt.Fprintf(w, "  %-13s %9.0f   (%.1f%% of exact matches)\n", "false pos", fp, 100*ratio)

	fmt.Fprintf(w, "\nPROPAGATION\n")
	fmt.Fprintf(w, "  periods %.0f    hops %.0f    wire bytes %.0f %s\n",
		m["propagation_periods"], m["propagation_hops"], m["propagation_bytes"], rate("propagation_bytes"))
	fmt.Fprintf(w, "  period bytes p95 %.0f    period seconds p95 %.4f\n",
		m["propagation_period_bytes.p95"], m["propagation_period_seconds.p95"])

	fmt.Fprintf(w, "\nBUS\n")
	fmt.Fprintf(w, "  inflight %.0f    messages %.0f    dropped %.0f (%.0f B)    decode errors %.0f    handler errors %.0f\n",
		m["bus_inflight"], sumLabeled(m, "bus_messages"), sumLabeled(m, "bus_dropped"),
		sumLabeled(m, "bus_dropped_bytes"), sumLabeled(m, "bus_decode_errors"), sumLabeled(m, "bus_handler_errors"))

	violations := sumLabeled(m, "watchdog_violations_total")
	status := "OK"
	if violations > 0 {
		status = "VIOLATIONS"
	}
	fmt.Fprintf(w, "\nWATCHDOG\n")
	fmt.Fprintf(w, "  checks %.0f    violations %.0f    %s\n", m["watchdog_checks"], violations, status)

	renderSLO(w, sloRep)
	renderHealth(w, health)

	rows := brokerRows(m)
	if len(rows) > 0 {
		staleOf := map[int]int64{}
		if health != nil && health.Convergence != nil {
			for _, bc := range health.Convergence.Brokers {
				staleOf[bc.Broker] = bc.MaxStaleness
			}
		}
		fmt.Fprintf(w, "\nBROKERS%12s%8s%8s%8s%8s%8s%14s\n", "subs", "merged", "deliv", "fpos", "merges", "stale", "match p95")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-5d%12.0f%8.0f%8.0f%8.0f%8.0f%8d%14s\n",
				r.id, r.subs, r.merged, r.deliveries, r.falsePos, r.merges, staleOf[r.id], fmtSeconds(r.matchP95))
		}
	}
}

// renderSLO writes the error-budget pane: one line per objective with
// state, current SLI vs target, burn rates, and remaining budget.
// Skipped entirely when /debug/slo has no report.
func renderSLO(w io.Writer, rep *slo.Report) {
	if rep == nil {
		return
	}
	fmt.Fprintf(w, "\nSLO    (%d breach / %d warn)\n", rep.Breaches, rep.Warns)
	for i := range rep.Verdicts {
		v := &rep.Verdicts[i]
		state := strings.ToUpper(string(v.State))
		fmt.Fprintf(w, "  %-7s%-24s sli %10.4g %s %-8.4g burn %5.2f/%5.2f budget %3.0f%%\n",
			state, v.Name, v.SLI, v.Op, v.Target, v.FastBurn, v.SlowBurn, 100*v.BudgetRemaining)
	}
}

// renderHealth writes the summary-health pane: convergence staleness and
// the top false-positive attributions with per-attribute precision.
// Skipped entirely when /debug/convergence did not answer.
func renderHealth(w io.Writer, health *core.HealthReport) {
	if health == nil {
		return
	}
	fmt.Fprintf(w, "\nHEALTH\n")
	if c := health.Convergence; c != nil {
		fmt.Fprintf(w, "  convergence: period %d    max staleness %d    lagging entries %d    full sync every %d\n",
			c.Period, c.MaxStaleness, c.LaggingEntries, c.FullSyncEvery)
	}
	if fp := health.FalsePositives; fp != nil && len(fp.TopK) > 0 {
		prec := map[string]float64{}
		for _, a := range fp.Attrs {
			prec[a.Attr] = a.Precision
		}
		fmt.Fprintf(w, "  top false-positive sources (%d total):\n", fp.Total)
		for _, t := range fp.TopK {
			fmt.Fprintf(w, "    attr=%-12s class=%-8s owner=%-4d %8d  (attr precision %.1f%%)\n",
				t.Attr, t.Class, t.Owner, t.Count, 100*prec[t.Attr])
		}
	}
}

// brokerRow is one line of the per-broker table, assembled from the
// "family{broker}" entries of the registry snapshot.
type brokerRow struct {
	id         int
	subs       float64
	merged     float64
	deliveries float64
	falsePos   float64
	merges     float64
	matchP95   float64
}

// brokerRows collects the per-broker instrument families into sorted
// table rows. Brokers appear once any of their labeled instruments has
// been registered.
func brokerRows(m map[string]float64) []brokerRow {
	byID := map[int]*brokerRow{}
	row := func(id int) *brokerRow {
		if r, ok := byID[id]; ok {
			return r
		}
		r := &brokerRow{id: id}
		byID[id] = r
		return r
	}
	for name, v := range m {
		family, label, ok := splitLabeled(name)
		if !ok {
			continue
		}
		id, err := strconv.Atoi(label)
		if err != nil {
			continue
		}
		switch family {
		case "broker_subscriptions":
			row(id).subs = v
		case "broker_merged_subs":
			row(id).merged = v
		case "broker_deliveries":
			row(id).deliveries = v
		case "broker_false_positives":
			row(id).falsePos = v
		case "broker_summary_merges":
			row(id).merges = v
		}
	}
	// Histogram-derived samples keep their suffix outside the braces:
	// "broker_match_seconds{3}.p95".
	for name, v := range m {
		const fam = "broker_match_seconds{"
		if !strings.HasPrefix(name, fam) || !strings.HasSuffix(name, "}.p95") {
			continue
		}
		label := name[len(fam) : len(name)-len("}.p95")]
		if id, err := strconv.Atoi(label); err == nil {
			row(id).matchP95 = v
		}
	}
	rows := make([]brokerRow, 0, len(byID))
	for _, r := range byID {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	return rows
}

// splitLabeled splits "family{label}" and reports whether name has that
// exact shape (no derived-sample suffix).
func splitLabeled(name string) (family, label string, ok bool) {
	open := strings.IndexByte(name, '{')
	if open < 0 || !strings.HasSuffix(name, "}") {
		return "", "", false
	}
	return name[:open], name[open+1 : len(name)-1], true
}

// sumLabeled totals every "family{...}" entry of one vec family,
// skipping derived samples.
func sumLabeled(m map[string]float64, family string) float64 {
	var sum float64
	for name, v := range m {
		f, _, ok := splitLabeled(name)
		if ok && f == family {
			sum += v
		}
	}
	return sum
}

// fmtSeconds renders a latency in the most readable unit.
func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "-"
	case s < 1e-4:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
