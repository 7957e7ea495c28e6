// Command simbench is the simulator's benchmark. It runs one named
// workload through the public sim.Run* entry points for a fixed host-time
// budget, checks the simulated outputs, and prints one JSON result line.
//
//	simbench --workload summer-30d-4policies --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (host time and memory
// of the run, plus the modelled outcomes). With --trace 1 it wraps the
// trace.Source and federation.RoutePolicy seams in timing wrappers, records
// spans around every layer call the benchmark makes, takes a CPU profile
// of the traced executions, and reports the per-layer metrics instead.
// See README.md for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	out      string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traced int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 42, "seed for the trace generator and sim.Config.Seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "host-time budget for the measured executions")
	fs.IntVar(&traced, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fs.BoolVar(&o.short, "short", false, "run the reduced-scale version of the workload (smoke test)")
	fs.StringVar(&o.out, "out", "", "directory for the traced run's spans and CPU profile (none if empty)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if traced != 0 && traced != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	}
	if o.seconds < 0 {
		return o, fmt.Errorf("--seconds must be non-negative, got %v", o.seconds)
	}
	o.trace = traced == 1
	return o, nil
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	w, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "simbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line the benchmark contract defines.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one benchmark process prints.
type report struct {
	manifest map[string]any
	// problems lists every failed output check, one line each.
	problems []string
	// execs are the process's executions in run order; exact is the first
	// one's simulated values.
	execs  []*execStats
	exact  map[string]float64
	result result
}

// printMetrics prints ms one per line, sorted by name.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "metric %-30s %16.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

func (r *report) print(w io.Writer) error {
	man, err := json.Marshal(r.manifest)
	if err != nil {
		return fmt.Errorf("encode manifest: %w", err)
	}
	fmt.Fprintf(w, "manifest %s\n", man)
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	for i, es := range r.execs {
		fmt.Fprintf(w, "execution %d traced=%v run_s=%.4f cpu_s=%.4f peak_heap_mb=%.2f alloc_mb=%.2f failed=%v\n",
			i+1, es.m.traced, runS(es), cpuS(es), heapMB(es), allocMB(es), es.failed)
	}
	exact, err := json.Marshal(r.exact)
	if err != nil {
		return fmt.Errorf("encode simulated values: %w", err)
	}
	fmt.Fprintf(w, "simulated %s\n", exact)
	printMetrics(w, r.result.Metrics)
	line, err := json.Marshal(r.result)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// budget runs step at least min times and then for as long as another
// step is expected to finish within d of host time.
func budget(d time.Duration, min int, step func() error) error {
	start := time.Now()
	var last time.Duration
	for n := 0; n < min || time.Since(start)+last <= d; n++ {
		t0 := time.Now()
		if err := step(); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Set-up is timed in at least minSetupBatches batches and for at least
// setupBudget; each batch repeats the set-up for at least setupBatch. A
// traced run times the reference run, where a workload has one,
// traceReferenceReps times.
const (
	minSetupBatches    = 5
	setupBatch         = 5 * time.Millisecond
	setupBudget        = 300 * time.Millisecond
	traceReferenceReps = 5
)

// measure runs one benchmark process's worth of work for workload w.
func measure(w workload, o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up: synthesize the inputs in batches of back-to-back repetitions
	// lasting at least setupBatch, and keep the last. setup_s is the median
	// over the batches of their mean time per set-up, which times a set-up
	// of a few microseconds as steadily as one of tens of milliseconds.
	var run *runner
	var setupTimes, genTimes []float64
	runtime.GC()
	start := time.Now()
	for len(setupTimes) < minSetupBatches || time.Since(start) < setupBudget {
		id := tr.begin("setup", -1)
		g := &genClock{}
		t0 := time.Now()
		n := 0
		for n == 0 || time.Since(t0) < setupBatch {
			r, err := w.prepare(o.seed, o.short, g)
			if err != nil {
				return nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			run = r
			n++
		}
		d := time.Since(t0)
		tr.end(id)
		setupTimes = append(setupTimes, d.Seconds()/float64(n))
		genTimes = append(genTimes, g.ns.Seconds()/float64(n))
	}

	rep := &report{manifest: manifestFor(w, o, run)}
	ck := &checker{}
	budgetD := time.Duration(o.seconds * float64(time.Second))

	var untraced, traced []*execStats
	execute := func(traceThis bool) error {
		es, err := execOnce(run, traceThis, tr, ck)
		if err != nil {
			return err
		}
		if traceThis {
			traced = append(traced, es)
		} else {
			untraced = append(untraced, es)
		}
		return nil
	}

	var prof *cpuProfile
	if !o.trace {
		if err := budget(budgetD, 2, func() error { return execute(false) }); err != nil {
			return nil, err
		}
	} else {
		// A third of the budget runs untraced (the baseline for the tracing
		// overhead and the behaviour comparison), the rest traced under the
		// CPU profiler.
		if err := budget(budgetD/3, 1, func() error { return execute(false) }); err != nil {
			return nil, err
		}
		var err error
		prof, err = startProfile()
		if err != nil {
			return nil, err
		}
		err = budget(budgetD-budgetD/3, 2, func() error { return execute(true) })
		if perr := prof.stop(); err == nil {
			err = perr
		}
		if err != nil {
			return nil, err
		}
	}

	all := append(append([]*execStats(nil), untraced...), traced...)

	// The reference run the lease-pool contract is checked against is
	// never inside run_s; the traced run repeats it to time the slowdown.
	var refTimes []float64
	if run.reference != nil {
		reps := 1
		if o.trace {
			reps = traceReferenceReps
		}
		for i := 0; i < reps; i++ {
			runtime.GC()
			id := tr.begin("reference", -1)
			t0 := time.Now()
			ref, err := run.reference()
			d := time.Since(t0)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s reference run: %w", w.name, err)
			}
			refTimes = append(refTimes, d.Seconds())
			ck.reference(ref, all)
		}
	}

	rep.problems = ck.problems
	rep.execs = all
	rep.exact = all[0].out.exact
	rep.result = result{
		Correct:   len(ck.problems) == 0,
		Attempted: ck.attempted,
		Failed:    countFailed(all),
	}
	if o.trace {
		rep.result.Metrics = layerMetrics(untraced, traced, prof, genTimes, refTimes)
		if o.out != "" {
			if err := writeTraceFiles(o, tr, prof); err != nil {
				return nil, err
			}
		}
	} else {
		rep.result.Metrics = endToEndMetrics(all, setupTimes)
	}
	return rep, nil
}

// manifestFor records what the run was configured with.
func manifestFor(w workload, o options, r *runner) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workload":   w.name,
		"why":        w.why,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"short":      o.short,
		"params":     r.params,
	}
}

// writeTraceFiles writes the traced run's spans (JSON) and CPU profile
// (pprof format) under o.out.
func writeTraceFiles(o options, tr *tracer, prof *cpuProfile) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("create trace output directory: %w", err)
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	spans, err := json.Marshal(tr.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(base+".spans.json", spans, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.raw.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write CPU profile: %w", err)
	}
	return nil
}
