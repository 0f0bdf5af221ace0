package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// runSet is what -sets writes and -compare reads: N untraced runs of every
// workload on one host.
type runSet struct {
	Host    hostHeader `json:"host"`
	Seed    int64      `json:"seed"` // runs used seed, seed+1, …
	Seconds float64    `json:"seconds"`
	Runs    []*report  `json:"runs"`
}

// values returns the metric's values over the set's runs of one workload.
func (s *runSet) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			xs = append(xs, r.Metrics[metric])
		}
	}
	return xs
}

// runSets makes n untraced runs of every workload, prints median,
// quartiles and spread of every end-to-end metric against its bound, and
// optionally writes the set for -compare. The spread is the distance
// between the quartiles as a share of the median, as the driver takes it.
func runSets(w io.Writer, o runOpts, n int, out string) error {
	printHeader(o)
	set := &runSet{Host: host(), Seed: o.seed, Seconds: o.seconds}
	o.trace = false
	for _, sp := range specs {
		o.workload = sp.name
		for i := 0; i < n; i++ {
			ro := o
			ro.seed = o.seed + int64(i)
			rep, err := guardedRun(ro)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", sp.name, ro.seed, err)
			}
			if !rep.correct() {
				return fmt.Errorf("%s seed %d: %d of %d operations failed the oracle", sp.name, ro.seed, rep.Failed, rep.Attempted)
			}
			set.Runs = append(set.Runs, rep)
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", sp.name, ro.seed)
		}
	}
	unsteady := 0
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tspread\tbound\tverdict")
	for _, sp := range specs {
		for _, d := range endToEnd {
			xs := set.values(sp.name, d.Name)
			if len(xs) < 2 {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t\t\t\t%g\tone run\n", sp.name, d.Name, xs[0], d.Bound)
				continue
			}
			q1, q2, q3 := quartiles(xs)
			spread := (q3 - q1) / q2
			verdict := "steady"
			switch {
			case spread > d.Bound && d.Name != "setup_s":
				verdict = "UNSTEADY"
				unsteady++
			case spread > d.Bound/3:
				verdict = "within bound"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.4f\t%g\t%s\n", sp.name, d.Name, q2, q1, q3, spread, d.Bound, verdict)
		}
	}
	tw.Flush()
	if out != "" {
		buf, err := json.Marshal(set)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, buf, 0o644); err != nil {
			return err
		}
	}
	if unsteady > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound", unsteady)
	}
	return nil
}

func readSet(path string) (*runSet, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets holds set b against set a: for every workload × end-to-end
// metric it prints both medians, the bound and a verdict, and fails when
// b's median is worse than a's by more than the bound. Sets from hosts of
// different size are not comparable and are refused.
func compareSets(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	if a.Host.NumCPU != b.Host.NumCPU || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS || a.Seconds != b.Seconds {
		return fmt.Errorf("sets are not comparable: %s ran on nproc=%d GOMAXPROCS=%d for %gs, %s on nproc=%d GOMAXPROCS=%d for %gs",
			pathA, a.Host.NumCPU, a.Host.GOMAXPROCS, a.Seconds, pathB, b.Host.NumCPU, b.Host.GOMAXPROCS, b.Seconds)
	}
	fmt.Fprintf(w, "# a: commit=%s go=%s seed=%d   b: commit=%s go=%s seed=%d   nproc=%d GOMAXPROCS=%d link=%s\n",
		a.Host.Commit, a.Host.GoVersion, a.Seed, b.Host.Commit, b.Host.GoVersion, b.Seed, a.Host.NumCPU, a.Host.GOMAXPROCS, a.Host.Link)
	worse := 0
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian a\tmedian b\tchange\tbound\tverdict")
	for _, sp := range specs {
		for _, d := range endToEnd {
			xa, xb := a.values(sp.name, d.Name), b.values(sp.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				return fmt.Errorf("%s@%s is missing from a set", d.Name, sp.name)
			}
			ma, mb := median(xa), median(xb)
			change := (mb - ma) / ma // positive = worse, whichever way the metric points
			if d.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			if change > d.Bound {
				verdict = "WORSE"
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.4f\t%g\t%s\n", sp.name, d.Name, ma, mb, change, d.Bound, verdict)
		}
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d metrics are worse in %s than in %s by more than their bound", worse, pathB, pathA)
	}
	return nil
}
