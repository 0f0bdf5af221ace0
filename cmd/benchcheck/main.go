// Command benchcheck compares a freshly generated benchmark report
// against a committed baseline and writes a markdown summary, flagging
// results whose ns/op regressed beyond a threshold. When both reports
// carry allocation data (allocs_per_op / bytes_per_op), those are
// compared too: the pooled matcher and codec paths promise zero
// steady-state allocations, so any allocs/op increase is flagged
// outright — allocation counts are deterministic, unlike wall time.
// It is advisory: the exit status is 0 even when regressions are found
// (shared CI runners are too noisy to gate on), unless -gate is set.
//
// A second mode gates the hot-path zero-allocation property instead:
// -alloczero takes comma-separated benchmark-name patterns, parses
// `go test -bench -benchmem` text output (-benchtext, "-" for stdin),
// and flags any matched benchmark reporting more than 0 allocs/op —
// allocation counts are deterministic, so with -gate this is a hard CI
// failure, not an advisory.
//
// Usage:
//
//	benchcheck -baseline BENCH_churn.json -current /tmp/fresh.json \
//	           [-threshold 10] [-summary "$GITHUB_STEP_SUMMARY"] [-gate]
//	go test -bench=. -benchmem -run=^$ ./... | \
//	  benchcheck -alloczero 'BenchmarkMatcherMatchKeys.*,BenchmarkCreditDelivery' \
//	             -benchtext - -gate
//
// The reports are the JSON files written by subsum-bench: an object
// with a "results" array of {name, ns_per_op, allocs_per_op, ...}.
// Results are matched by name; names present in only one file are
// listed but never flagged. Reports from older tool versions that omit
// the allocation fields simply skip those comparisons.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type report struct {
	Results []result `json:"results"`
}

// result is one benchmark's numbers. The allocation fields are pointers
// so "the report does not carry them" (old tool version) is
// distinguishable from a genuine zero — zero allocs/op is the headline
// result of the pooled paths and must compare as a real value.
type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp *int64  `json:"allocs_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op"`
	// BytesPerPeriod and HopsPerEvent are the overlay-scaling metrics of
	// BENCH_overlay.json: summary traffic per propagation period and
	// mean routing messages per event. Both are lower-is-better and —
	// unlike wall time — deterministic for a given seed, so a rise
	// beyond the threshold is a real algorithmic regression, not runner
	// noise.
	BytesPerPeriod *float64 `json:"bytes_per_period"`
	HopsPerEvent   *float64 `json:"hops_per_event"`
	Iterations     int64    `json:"iterations"`
}

func loadReport(path string) (map[string]result, []string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]result, len(r.Results))
	order := make([]string, 0, len(r.Results))
	for _, res := range r.Results {
		if _, dup := m[res.Name]; !dup {
			order = append(order, res.Name)
		}
		m[res.Name] = res
	}
	return m, order, nil
}

// row is one comparison line of the summary table: one benchmark, one
// metric (ns/op, allocs/op, or B/op).
type row struct {
	name      string
	metric    string
	base, cur float64
	hasBase   bool
	hasCur    bool
	deltaPct  float64
	status    string
}

func compare(base, cur map[string]result, order []string, thresholdPct float64) (rows []row, regressions int) {
	names := append([]string(nil), order...)
	// Baseline-only names go at the end so disappearing benchmarks are
	// visible too.
	var missing []string
	for name := range base {
		if _, ok := cur[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	names = append(names, missing...)

	for _, name := range names {
		b, inBase := base[name]
		c, inCur := cur[name]
		switch {
		case !inBase:
			rows = append(rows, row{name: name, metric: "ns/op", cur: c.NsPerOp, hasCur: true, status: "new (no baseline)"})
		case !inCur:
			rows = append(rows, row{name: name, metric: "ns/op", base: b.NsPerOp, hasBase: true, status: "missing from current run"})
		default:
			// ns/op: wall time is noisy on shared runners, so only a
			// percentage drift beyond the threshold is called out. Rows
			// that carry the deterministic overlay metrics skip this:
			// their ns_per_op is a single propagation period's wall time,
			// far too short to time stably, and the seeded bytes/hops
			// numbers below are the real verdict.
			overlayRow := b.BytesPerPeriod != nil && c.BytesPerPeriod != nil
			if !overlayRow {
				r := row{name: name, metric: "ns/op", base: b.NsPerOp, cur: c.NsPerOp, hasBase: true, hasCur: true}
				if b.NsPerOp > 0 {
					r.deltaPct = (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
				}
				switch {
				case r.deltaPct > thresholdPct:
					r.status = fmt.Sprintf("REGRESSION (>%g%%)", thresholdPct)
					regressions++
				case r.deltaPct < -thresholdPct:
					r.status = "improved"
				default:
					r.status = "ok"
				}
				rows = append(rows, r)
			}

			// allocs/op: deterministic, so any increase is a regression —
			// a pooled path that starts allocating again has lost the very
			// property its benchmark exists to defend.
			if b.AllocsPerOp != nil && c.AllocsPerOp != nil {
				ar := row{name: name, metric: "allocs/op", base: float64(*b.AllocsPerOp), cur: float64(*c.AllocsPerOp), hasBase: true, hasCur: true}
				if ar.base > 0 {
					ar.deltaPct = (ar.cur - ar.base) / ar.base * 100
				}
				switch {
				case ar.cur > ar.base:
					ar.status = "REGRESSION (allocs increased)"
					regressions++
				case ar.cur < ar.base:
					ar.status = "improved"
				default:
					ar.status = "ok"
				}
				rows = append(rows, ar)
			}

			// bytes/period and hops/event: lower is better, threshold-gated
			// like ns/op but trustworthy — the overlay sweep is seeded, so
			// drift means the propagation or routing algorithm changed.
			for _, m := range []struct {
				metric  string
				basePtr *float64
				curPtr  *float64
			}{
				{"bytes/period", b.BytesPerPeriod, c.BytesPerPeriod},
				{"hops/event", b.HopsPerEvent, c.HopsPerEvent},
			} {
				if m.basePtr == nil || m.curPtr == nil {
					continue
				}
				lr := row{name: name, metric: m.metric, base: *m.basePtr, cur: *m.curPtr, hasBase: true, hasCur: true}
				if lr.base > 0 {
					lr.deltaPct = (lr.cur - lr.base) / lr.base * 100
				}
				switch {
				case lr.deltaPct > thresholdPct:
					lr.status = fmt.Sprintf("REGRESSION (>%g%%)", thresholdPct)
					regressions++
				case lr.deltaPct < -thresholdPct:
					lr.status = "improved"
				default:
					lr.status = "ok"
				}
				rows = append(rows, lr)
			}

			// B/op: allocation bytes are near-deterministic but can wobble
			// with map growth patterns, so the percentage threshold applies.
			if b.BytesPerOp != nil && c.BytesPerOp != nil {
				br := row{name: name, metric: "B/op", base: float64(*b.BytesPerOp), cur: float64(*c.BytesPerOp), hasBase: true, hasCur: true}
				switch {
				case br.base == 0 && br.cur > 0:
					br.status = "REGRESSION (was 0 B/op)"
					regressions++
				case br.base == 0:
					br.status = "ok"
				default:
					br.deltaPct = (br.cur - br.base) / br.base * 100
					switch {
					case br.deltaPct > thresholdPct:
						br.status = fmt.Sprintf("REGRESSION (>%g%%)", thresholdPct)
						regressions++
					case br.deltaPct < -thresholdPct:
						br.status = "improved"
					default:
						br.status = "ok"
					}
				}
				rows = append(rows, br)
			}
		}
	}
	return rows, regressions
}

func writeMarkdown(w io.Writer, title string, rows []row, regressions int) {
	fmt.Fprintf(w, "### benchcheck: %s\n\n", title)
	if regressions > 0 {
		fmt.Fprintf(w, "**%d result(s) regressed** — advisory only; shared runners are noisy, re-run before acting (allocs/op is deterministic and worth believing).\n\n", regressions)
	} else {
		fmt.Fprintf(w, "No regressions above threshold.\n\n")
	}
	fmt.Fprintf(w, "| benchmark | metric | baseline | current | delta | status |\n")
	fmt.Fprintf(w, "|---|---|---:|---:|---:|---|\n")
	for _, r := range rows {
		baseS, curS, deltaS := "—", "—", "—"
		if r.hasBase {
			baseS = fmt.Sprintf("%.0f", r.base)
		}
		if r.hasCur {
			curS = fmt.Sprintf("%.0f", r.cur)
		}
		if r.hasBase && r.hasCur {
			deltaS = fmt.Sprintf("%+.1f%%", r.deltaPct)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n", r.name, r.metric, baseS, curS, deltaS, r.status)
	}
	fmt.Fprintln(w)
}

func main() {
	var (
		baseline  = flag.String("baseline", "", "committed baseline report (required)")
		current   = flag.String("current", "", "freshly generated report (required)")
		threshold = flag.Float64("threshold", 10, "ns/op and B/op regression percentage to flag (allocs/op flags any increase)")
		summary   = flag.String("summary", "", "append the markdown table to this file (e.g. $GITHUB_STEP_SUMMARY); stdout if empty")
		gate      = flag.Bool("gate", false, "exit nonzero when regressions are found (default: advisory)")
		alloczero = flag.String("alloczero", "", "comma-separated benchmark name patterns that must report 0 allocs/op (enables the zero-alloc gate mode)")
		benchtext = flag.String("benchtext", "-", "go test -bench -benchmem output to parse in zero-alloc mode (\"-\" = stdin)")
	)
	flag.Parse()

	openSummary := func() io.Writer {
		if *summary == "" {
			return os.Stdout
		}
		f, err := os.OpenFile(*summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(2)
		}
		return f
	}

	if *alloczero != "" {
		in := io.Reader(os.Stdin)
		if *benchtext != "-" {
			f, err := os.Open(*benchtext)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchcheck:", err)
				os.Exit(2)
			}
			defer f.Close()
			in = f
		}
		results, err := parseBenchText(in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(2)
		}
		checked, violations, err := checkAllocZero(results, *alloczero)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(2)
		}
		writeAllocMarkdown(openSummary(), checked, violations)
		if *gate && len(violations) > 0 {
			os.Exit(1)
		}
		return
	}

	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -baseline and -current are required")
		flag.Usage()
		os.Exit(2)
	}

	base, _, err := loadReport(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	cur, order, err := loadReport(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	rows, regressions := compare(base, cur, order, *threshold)

	writeMarkdown(openSummary(), fmt.Sprintf("%s vs %s", *current, *baseline), rows, regressions)

	if *gate && regressions > 0 {
		os.Exit(1)
	}
}
