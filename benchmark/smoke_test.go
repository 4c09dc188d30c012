package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeSize runs every workload's structure on minutes of log instead of
// days: one set-up, one pass, one repeat of each phase.
var smokeSize = sizing{
	train:         2 * time.Hour,
	bgl:           time.Hour,
	wide:          20 * time.Minute,
	fleetSteady:   40 * time.Minute,
	fleetFailover: 20 * time.Minute,
	live:          40 * time.Minute,
	predict:       20 * time.Minute,
	paced:         2 * time.Hour,

	wideEvents:    60,
	refresh:       refreshPolicy{after: 1500, every: 500},
	snapshotEvery: 400,
	kills:         2,
	equivRecords:  2000,

	setups:    1,
	minPasses: 2,
	pairs:     1,
	repeats:   1,
	predicts:  2,

	// One pair of sub-second passes under the race detector reconciles
	// nothing; the limit is the full benchmark's business.
	maxUnattributed: 100,
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke drives every workload, untraced and traced, and holds the
// output to BENCHMARK.json: every declared metric exactly once with its
// declared unit, no undeclared metric, every check passing.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	o := options{seed: 7, out: t.TempDir(), size: smokeSize}
	for _, wl := range sp.Workloads {
		for trace, declared := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
			var buf bytes.Buffer
			res, err := runOne(context.Background(), o, sp, wl.Name, trace, &buf)
			if err != nil {
				t.Fatalf("%s trace %d: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			units := make(map[string]string, len(declared))
			for _, m := range declared {
				units[m.Name] = m.Unit
			}
			seen := make(map[string]int)
			sc := bufio.NewScanner(&buf)
			for sc.Scan() {
				var ln metricLine
				if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
					t.Fatalf("%s trace %d: bad line %q: %v", wl.Name, trace, sc.Text(), err)
				}
				seen[ln.Metric]++
				if !metricName.MatchString(ln.Metric) {
					t.Errorf("%s: metric name %q", wl.Name, ln.Metric)
				}
				if unit, ok := units[ln.Metric]; !ok {
					t.Errorf("%s trace %d: emitted %s, which BENCHMARK.json does not declare", wl.Name, trace, ln.Metric)
				} else if unit != ln.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", wl.Name, ln.Metric, ln.Unit, unit)
				}
				if ln.Workload != wl.Name {
					t.Errorf("%s: line names workload %q", wl.Name, ln.Workload)
				}
			}
			for _, m := range declared {
				if seen[m.Name] != 1 {
					t.Errorf("%s trace %d: %s emitted %d times", wl.Name, trace, m.Name, seen[m.Name])
				}
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s trace %d: result lacks %s", wl.Name, trace, m.Name)
				}
			}
			if trace == 0 {
				for _, m := range declared {
					if m.Name == "precision" || m.Name == "recall" {
						continue // an hour of log holds no failure to predict
					}
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v", wl.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestBrokenCheckFailsTheRun drops one prediction from one side of a
// comparison: the run must come out incorrect, with the judged pass's
// records counted as failed.
func TestBrokenCheckFailsTheRun(t *testing.T) {
	out := []byte("{\"Event\":1}\n{\"Event\":2}\n{\"Event\":3}\n")
	dropped := out[:strings.LastIndex(strings.TrimSpace(string(out)), "\n")+1]
	r := newReport("serve_bgl")
	r.attempted = 1000
	r.check("pass 1 predicts what pass 0 does", bytes.Equal(out, out), 500)
	r.check("traced pass predicts what the untraced pass does", bytes.Equal(out, dropped), 500)
	r.set("failed_share", float64(r.failed)/float64(r.attempted), int(r.attempted))
	res, err := r.finish(&bytes.Buffer{}, []metricSpec{{Name: "failed_share", Unit: "ratio"}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 500 || res.Metrics["failed_share"].Value != 0.5 {
		t.Errorf("correct=%v failed=%d failed_share=%v, want false 500 0.5", res.Correct, res.Failed, res.Metrics["failed_share"].Value)
	}
	if len(r.broken) != 1 {
		t.Errorf("broken checks: %v", r.broken)
	}
}

// TestUndeclaredMetricIsAnError keeps the harness and BENCHMARK.json from
// drifting: a measured name the file does not list fails the run.
func TestUndeclaredMetricIsAnError(t *testing.T) {
	r := newReport("serve_bgl")
	r.set("not.declared", 1, 1)
	if _, err := r.finish(&bytes.Buffer{}, nil, false); err == nil {
		t.Error("finish accepted an undeclared metric")
	}
	r = newReport("serve_bgl")
	if _, err := r.finish(&bytes.Buffer{}, []metricSpec{{Name: "setup_s", Unit: "s"}}, true); err == nil {
		t.Error("finish accepted a missing end-to-end metric")
	}
}
