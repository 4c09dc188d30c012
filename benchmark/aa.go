package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"text/tabwriter"
)

// child runs one workload once in a process of its own, as the driver
// does: peak RSS, heap state and GC pacing of one run never reach the
// next. Its metric lines go to w; the result is its last line.
func child(ctx context.Context, o options, name string, seed int64, trace int, w io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	if _, err := w.Write(out); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || res.Metrics == nil {
		return nil, fmt.Errorf("%s seed %d trace %d: no result line (%v)", name, seed, trace, runErr)
	}
	return &res, nil
}

// runAll runs every workload untraced and traced, one process each.
func runAll(ctx context.Context, o options, sp *spec, w io.Writer) error {
	correct := true
	for _, wl := range sp.Workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := child(ctx, o, wl.Name, o.seed, trace, w)
			if err != nil {
				return err
			}
			correct = correct && res.Correct
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// quartiles are the first, second and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method), the
// rule the driver applies to its ten runs.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), vs...)
	sort.Float64s(x)
	m := len(x)
	if m < 2 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// aaRuns is the number of end-to-end runs in a set, the driver's number.
const aaRuns = 10

// exactPerSeed are the metrics that depend on the seed alone: two runs of
// the same code on the same seed must agree on them to the last digit.
// The first two come from the end-to-end runs, the others from the traced.
var exactPerSeed = []string{"precision", "recall", "sink.predictions", "match.predictions"}

// runAA is the A/A test the bounds in BENCHMARK.json are set from. Every
// workload (or the one -workload names) runs as two independent sets of
// aaRuns end-to-end runs over seeds seed..seed+aaRuns-1 and one traced run
// on seed. A metric passes when the second set's median is not worse than
// the first's by more than its bound and the spread of each set
// (interquartile range over median) stays inside the bound; a
// seed-determined metric passes when each seed reads the same in both sets.
func runAA(ctx context.Context, o options, sp *spec, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tworse by\tspread A\tspread B\tbound\t")
	pass := true
	for _, wl := range sp.Workloads {
		if o.workload != "" && o.workload != wl.Name {
			continue
		}
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i <= aaRuns; i++ {
				seed, trace := o.seed+int64(i), 0
				if i == aaRuns {
					seed, trace = o.seed, 1
				}
				res, err := child(ctx, o, wl.Name, seed, trace, io.Discard)
				if err != nil {
					return err
				}
				pass = pass && res.Correct
				for name, v := range res.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		for _, m := range sp.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			verdict := "PASS"
			if worse > m.Bound || (m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound)) {
				verdict = "FAIL"
				pass = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, a2, b2, 100*worse, 100*spreadA, 100*spreadB, 100*m.Bound, verdict)
		}
		for _, name := range exactPerSeed {
			verdict := "PASS"
			if !slices.Equal(sets[0][name], sets[1][name]) {
				verdict = "FAIL"
				pass = false
			}
			fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\texact\t%s\n", wl.Name, name, verdict)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if !pass {
		return fmt.Errorf("A/A: a metric left its bound or a check failed")
	}
	return nil
}
