// Command benchmark is the repo's benchmark: five workloads over the
// serving and training paths, end-to-end metrics with regression bounds
// and a per-layer ledger measured from outside the program. BENCHMARK.json
// at the repo root names every metric; README.md in this directory
// defines them.
//
//	bash benchmark/run.sh -workload serve_bgl -seed 1            # end-to-end run
//	bash benchmark/run.sh -workload serve_bgl -seed 1 -trace 1   # per-layer run
//	bash benchmark/run.sh -all                                   # both, every workload
//	bash benchmark/run.sh -aa                                    # two sets against the bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// spec is BENCHMARK.json: the single list of metric names, units,
// directions and bounds. The harness reads it so that a metric it emits
// and a metric the file declares cannot drift apart.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// measurement is one metric value with its sample count.
type measurement struct {
	value float64
	n     int
}

// report collects what one run of one workload measured and checked.
type report struct {
	workload  string
	values    map[string]measurement
	attempted int64    // records handed to the program
	failed    int64    // records it failed on, plus records of passes that failed a check
	broken    []string // the checks that failed
}

func newReport(workload string) *report {
	return &report{workload: workload, values: make(map[string]measurement)}
}

func (r *report) set(name string, value float64, n int) {
	r.values[name] = measurement{value: value, n: n}
}

// check records a correctness check; a failed one counts every record of
// the pass it judged as failed.
func (r *report) check(name string, ok bool, records int64) {
	if !ok {
		r.broken = append(r.broken, name)
		r.failed += records
	}
}

// result is the last line of a run, in the form the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricLine is the per-metric output line.
type metricLine struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	N        int     `json:"n"`
}

// finish prints one line per declared metric and builds the result. A
// measured name the spec does not declare, or a declared end-to-end metric
// nothing measured, is an error; a per-layer metric the workload does not
// exercise reads 0.
func (r *report) finish(w io.Writer, declared []metricSpec, required bool) (*result, error) {
	res := &result{
		Correct:   len(r.broken) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(declared)),
	}
	known := make(map[string]bool, len(declared))
	enc := json.NewEncoder(w)
	for _, m := range declared {
		known[m.Name] = true
		v, ok := r.values[m.Name]
		if !ok && required {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, m.Name)
		}
		if err := enc.Encode(metricLine{Workload: r.workload, Metric: m.Name, Unit: m.Unit, Value: v.value, N: v.n}); err != nil {
			return nil, err
		}
		res.Metrics[m.Name] = metricValue{Value: v.value, Unit: m.Unit}
	}
	for name := range r.values {
		if !known[name] {
			return nil, fmt.Errorf("%s: measured %s, which BENCHMARK.json does not declare", r.workload, name)
		}
	}
	return res, nil
}

// specPath and outDir are relative to the checkout root, where the command
// runs: BENCHMARK.json, and the directory for staged streams and traces.
const (
	specPath = "BENCHMARK.json"
	outDir   = "benchmark/out"
)

// options are the command line, plus what only the smoke test changes: the
// output directory and the stream sizes.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	all, aa  bool
	out      string
	size     sizing
}

// runOne runs one workload once, traced or not, and prints its metric
// lines. The returned result has Correct false when a check failed.
func runOne(ctx context.Context, o options, sp *spec, name string, trace int, w io.Writer) (*result, error) {
	wl, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	e := &env{
		seed:    o.seed,
		size:    o.size,
		dir:     filepath.Join(o.out, name),
		seconds: time.Duration(o.seconds) * time.Second,
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	r := newReport(name)
	if trace == 0 {
		if err := runUntraced(ctx, wl, e, r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return finishRun(r, w, sp.EndToEnd, true)
	}
	st, err := wl.stage(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	tr := newTracer()
	if err := wl.layers(ctx, e, st, r, tr); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := tr.write(filepath.Join(o.out, name+".trace.jsonl")); err != nil {
		return nil, err
	}
	r.set("failed_share", float64(r.failed)/float64(r.attempted), int(r.attempted))
	return finishRun(r, w, sp.PerLayer, false)
}

func finishRun(r *report, w io.Writer, declared []metricSpec, required bool) (*result, error) {
	res, err := r.finish(w, declared, required)
	if err != nil {
		return nil, err
	}
	for _, name := range r.broken {
		fmt.Fprintf(os.Stderr, "benchmark: %s: check failed: %s\n", r.workload, name)
	}
	return res, nil
}

// header prints the environment line every invocation starts with.
func header(w io.Writer, o options) error {
	return json.NewEncoder(w).Encode(map[string]any{
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"GOMAXPROCS": runtime.GOMAXPROCS(0),
		"seed":       o.seed,
		"seconds":    o.seconds,
	})
}

var errIncorrect = errors.New("a correctness check failed")

func run(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 0, "seconds the untraced run keeps starting timed passes (0 = run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "0 = end-to-end run with tracing off, 1 = traced run for the per-layer metrics")
	fs.BoolVar(&o.all, "all", false, "run every workload, untraced and traced")
	fs.BoolVar(&o.aa, "aa", false, "run every workload (or the one -workload names) as two independent sets of ten runs and compare them against the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = sp.RunSeconds
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	o.out, o.size = outDir, fullSize
	ctx := context.Background()

	switch {
	case o.aa:
		return runAA(ctx, o, sp, stdout)
	case o.all:
		return runAll(ctx, o, sp, stdout)
	case o.workload != "":
		// The driver gives a run 180 s; stop well inside that.
		ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
		defer cancel()
		if err := header(stdout, o); err != nil {
			return err
		}
		res, err := runOne(ctx, o, sp, o.workload, o.trace, stdout)
		if err != nil {
			return err
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			return err
		}
		if !res.Correct {
			return errIncorrect
		}
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("one of -workload, -all or -aa is required")
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
