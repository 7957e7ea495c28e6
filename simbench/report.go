package main

import (
	"runtime"
)

const mib = 1 << 20

// medianOf returns the median of f over the executions in set.
func medianOf(set []*execStats, f func(es *execStats) float64) float64 {
	xs := make([]float64, len(set))
	for i, es := range set {
		xs[i] = f(es)
	}
	return median(xs)
}

// Host-cost figures of one execution.
func runS(es *execStats) float64    { return es.m.runNs.Seconds() }
func cpuS(es *execStats) float64    { return es.m.cpuNs.Seconds() }
func heapMB(es *execStats) float64  { return float64(es.m.peakLive) / mib }
func allocMB(es *execStats) float64 { return float64(es.m.allocBytes) / mib }

// endToEndMetrics are the --trace 0 metrics. Host costs are medians over
// the executions; the modelled outcomes are exact, and every correct
// execution reproduces them.
func endToEndMetrics(all []*execStats, setupTimes []float64) map[string]metric {
	exact := all[0].out.exact
	return map[string]metric{
		"run_s":          {medianOf(all, runS), "s"},
		"setup_s":        {median(setupTimes), "s"},
		"cpu_s":          {medianOf(all, cpuS), "s"},
		"peak_heap_mb":   {medianOf(all, heapMB), "MiB"},
		"alloc_mb":       {medianOf(all, allocMB), "MiB"},
		"gpuh_saved":     {exact["gpuh_saved"], "GPU-h"},
		"delay_p50_ms":   {exact["delay_p50_ms"], "ms"},
		"delay_p90_ms":   {exact["delay_p90_ms"], "ms"},
		"completed_frac": {exact["completed_frac"], "ratio"},
	}
}

// layerMetrics are the --trace 1 metrics. Host-time figures are medians
// over the traced executions; counters are exact.
func layerMetrics(untraced, traced []*execStats, prof *cpuProfile, genTimes, refTimes []float64) map[string]metric {
	tracedRun := medianOf(traced, runS)
	exact := traced[0].out.exact
	out := map[string]metric{}
	for _, mod := range append(modules, "runtime") {
		out["cpu."+mod+"_frac"] = metric{prof.frac(mod), "ratio"}
	}
	out["cpu.samples"] = metric{float64(prof.total), "count"}

	// A streaming workload synthesizes its trace inside the run, where the
	// Source wrapper times it; a materialized one does so in set-up.
	genS := median(genTimes)
	if traced[0].m.sessions > 0 {
		genS = medianOf(traced, func(es *execStats) float64 { return es.m.genNs.Seconds() })
	}
	out["trace.gen_s"] = metric{genS, "s"}
	out["trace.sessions"] = metric{exact["trace.sessions"], "count"}
	out["trace.tasks"] = metric{exact["trace.tasks"], "count"}

	out["federation.route_calls"] = metric{medianOf(traced, func(es *execStats) float64 { return float64(es.m.routeCalls) }), "count"}
	out["federation.route_us"] = metric{medianOf(traced, func(es *execStats) float64 {
		if es.m.routeCalls == 0 {
			return 0
		}
		return es.m.routeNs.Seconds() * 1e6 / float64(es.m.routeCalls)
	}), "us"}
	out["federation.remote_exec_frac"] = metric{exact["federation.remote_exec_frac"], "ratio"}
	out["federation.cross_migrations"] = metric{exact["federation.cross_migrations"], "count"}

	for _, name := range []string{"sim.tasks", "sim.sessions", "sim.migrations", "sim.failed_migrations",
		"sim.scale_outs", "sim.scale_ins", "sim.failovers", "sim.restarts", "sim.abandonments",
		"sim.host_crashes", "sim.delay_samples", "metrics.samples"} {
		out[name] = metric{exact[name], "count"}
	}
	out["sim.immediate_commit_frac"] = metric{exact["sim.immediate_commit_frac"], "ratio"}
	out["sim.warm_start_frac"] = metric{exact["sim.warm_start_frac"], "ratio"}
	out["sim.lost_gpuh"] = metric{exact["sim.lost_gpuh"], "GPU-h"}
	out["sim.delay_p99_ms"] = metric{exact["sim.delay_p99_ms"], "ms"}

	out["metrics.reduce_s"] = metric{medianOf(traced, func(es *execStats) float64 { return es.reduceS }), "s"}
	out["runtime.gc_cycles"] = metric{medianOf(traced, func(es *execStats) float64 { return float64(es.m.gcCycles) }), "count"}
	out["runtime.gc_cpu_frac"] = metric{medianOf(traced, func(es *execStats) float64 {
		if es.m.totalCPU == 0 {
			return 0
		}
		return es.m.gcCPU / es.m.totalCPU
	}), "ratio"}
	procs := float64(runtime.GOMAXPROCS(0))
	out["runtime.cpu_util"] = metric{medianOf(traced, func(es *execStats) float64 {
		return cpuS(es) / (runS(es) * procs)
	}), "ratio"}

	slowdown := 0.0
	if len(refTimes) > 0 {
		slowdown = tracedRun / median(refTimes)
	}
	out["sim.lease_slowdown"] = metric{slowdown, "ratio"}
	out["bench.trace_overhead_s"] = metric{tracedRun - medianOf(untraced, runS), "s"}
	return out
}
