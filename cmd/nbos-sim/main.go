// Command nbos-sim regenerates the paper's tables and figures from the
// command line.
//
// Usage:
//
//	nbos-sim -list
//	nbos-sim -exp fig8 [-seed 42] [-quick]
//	nbos-sim -exp federation            # multi-cluster scenario family
//	nbos-sim -exp fig12a -shards 4      # shard the trace across 4 workers
//	nbos-sim -exp summer-fed -shards 4  # 90-day trace, federated + sharded
//	nbos-sim -exp fig8 -stream          # simulate from a lazy session stream
//	nbos-sim -exp stream-scale          # 90-day 1M-session bounded-memory run
//	nbos-sim -exp scenario-sweep        # arrival shape x policy x federation
//	nbos-sim -scenario campus-diurnal   # one declarative scenario, all policies
//	nbos-sim -scenario my-workload.json # ... or a JSON trace.ScenarioSpec file
//	nbos-sim -scenario campus-diurnal -faults heavy  # ... under a chaos schedule
//	nbos-sim -exp fault-sweep           # fault intensity x policy x federation
//	nbos-sim -exp all [-jobs 8]
//	nbos-sim -scenario campus-diurnal -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -cpuprofile and -memprofile write pprof profiles of the whole run (read
// them with go tool pprof); they are off by default and never change the
// printed output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"notebookos/internal/experiments"
	"notebookos/internal/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (e.g. fig8), or 'all'")
		seed     = flag.Int64("seed", 42, "random seed")
		quick    = flag.Bool("quick", false, "reduced-scale run")
		list     = flag.Bool("list", false, "list experiments")
		jobs     = flag.Int("jobs", runtime.NumCPU(), "concurrent experiments for -exp all (output stays in paper order)")
		shards   = flag.Int("shards", 1, "session-partitioned trace shards per simulation (1 = unsharded and exact; >1 merges parallel workers over a static capacity split, whose saved GPU-hours drift below the unsharded run — see docs/SHARDING.md)")
		stream   = flag.Bool("stream", false, "synthesize sessions lazily per shard (sim.RunStreamSharded) instead of replaying a materialized trace; identical output at -shards 1, bounded memory at any scale")
		scenario = flag.String("scenario", "", "run one declarative workload scenario through every policy: a built-in name (see trace.BuiltinScenarios) or a JSON trace.ScenarioSpec file; honors -seed/-quick/-shards/-stream")
		faults   = flag.String("faults", "", "with -scenario: inject a deterministic fault schedule — a built-in profile (light, heavy, az-outage) or a JSON trace.FaultSpec file; overrides the scenario's own faults block (docs/FAULTS.md)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile, taken when the run ends, to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	o := experiments.Options{Seed: *seed, Quick: *quick, Shards: *shards, Stream: *stream}
	code := run(os.Stdout, o, *exp, *scenario, *faults, *list, *jobs)
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// writeHeapProfile writes the heap profile after a GC, so its in-use
// figures show what the run still retains.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run executes the command line's listing, scenario or experiment, prints
// its report to w, and returns the process exit code. It never calls
// os.Exit, so main can close the profiles first.
func run(w io.Writer, o experiments.Options, exp, scenario, faults string, list bool, jobs int) int {
	if o.Shards < 1 {
		fmt.Fprintf(os.Stderr, "-shards must be at least 1, got %d\n", o.Shards)
		return 2
	}
	if jobs < 1 {
		fmt.Fprintf(os.Stderr, "-jobs must be at least 1, got %d\n", jobs)
		return 2
	}
	if faults != "" {
		if scenario == "" {
			fmt.Fprintln(os.Stderr, "-faults requires -scenario (fault sweeps over the figure experiments run via -exp fault-sweep)")
			return 2
		}
		f, err := trace.ResolveFaults(faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faults %s: %v\n", faults, err)
			return 1
		}
		o.Faults = &f
	}
	if scenario != "" {
		t0 := time.Now()
		out, err := experiments.ScenarioReport(scenario, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario %s: %v\n", scenario, err)
			return 1
		}
		fmt.Fprint(w, out)
		fmt.Fprintf(w, "[scenario %s completed in %.1fs]\n\n", scenario, time.Since(t0).Seconds())
		return 0
	}

	if list || exp == "" {
		fmt.Fprintln(w, "experiments:")
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "  %-18s %s\n", e.ID, e.Title)
		}
		if exp == "" && !list {
			return 2
		}
		return 0
	}

	if exp == "all" {
		return runAll(w, o, jobs)
	}
	e, ok := experiments.ByID(exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", exp)
		return 2
	}
	t0 := time.Now()
	out, err := e.Run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
		return 1
	}
	fmt.Fprint(w, out)
	fmt.Fprintf(w, "[%s completed in %.1fs]\n\n", e.ID, time.Since(t0).Seconds())
	return 0
}

// runAll executes every experiment with up to jobs running concurrently.
// Experiment outputs print strictly in paper order — byte-identical to a
// sequential run (simulations are seed-deterministic regardless of
// scheduling) — and stream as soon as every earlier experiment has
// printed, rather than buffering behind the slowest of the whole suite.
// It returns the process exit code.
func runAll(w io.Writer, o experiments.Options, jobs int) int {
	all := experiments.All()
	type outcome struct {
		out  string
		err  error
		took time.Duration
	}
	results := make([]outcome, len(all))
	done := make([]chan struct{}, len(all))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, jobs)
	for i, e := range all {
		go func(i int, e experiments.Experiment) {
			sem <- struct{}{}
			defer func() { <-sem }()
			t0 := time.Now()
			out, err := e.Run(o)
			results[i] = outcome{out: out, err: err, took: time.Since(t0)}
			close(done[i])
		}(i, e)
	}
	for i, e := range all {
		<-done[i]
		r := results[i]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, r.err)
			return 1
		}
		fmt.Fprint(w, r.out)
		fmt.Fprintf(w, "[%s completed in %.1fs]\n\n", e.ID, r.took.Seconds())
	}
	return 0
}
