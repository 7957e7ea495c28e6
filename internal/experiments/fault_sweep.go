package experiments

import (
	"fmt"
	"strings"

	"notebookos/internal/federation"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// FaultSweep crosses fault intensity with every scheduler policy and with
// federation sizes: the availability-vs-throughput table for the
// deterministic fault layer (docs/FAULTS.md). The workload is the
// campus-diurnal scenario — its cohorts carry SLO classes, so the
// SLO-aware retry budgets (interactive abandons fastest) are exercised,
// not just configured. The fault axis runs the built-in profiles in
// intensity order: none (the byte-identity baseline), light (rare
// crashes), heavy (daily crashes plus a WAN degradation window), and
// az-outage (a correlated mass failure). Every run honors Options.Shards
// (the static capacity split; -shards 1 is the exact run) and
// Options.Stream.

// faultProfileOrder is the intensity axis, mildest first. "none" is the
// nil spec: the fault layer stays inert and the row doubles as the
// zero-fault baseline the other rows degrade from.
var faultProfileOrder = []string{"none", "light", "heavy", "az-outage"}

// faultProfile resolves a sweep axis name to a spec (nil for "none").
func faultProfile(name string) (*trace.FaultSpec, error) {
	if name == "none" {
		return nil, nil
	}
	f, ok := trace.BuiltinFaultProfile(name)
	if !ok {
		return nil, fmt.Errorf("unknown fault profile %q", name)
	}
	return &f, nil
}

// runFaultSim is runScenarioSim with a fault spec threaded into the
// simulation config; the materialized trace is shared across policies and
// profiles (the fault stream is workload-independent, so one trace serves
// every cell of the sweep).
func runFaultSim(o Options, gcfg trace.GenConfig, tr **trace.Trace, policy sim.Policy, f *trace.FaultSpec) (*sim.Result, error) {
	cfg := sim.Config{Policy: policy, Hosts: 30, Seed: o.seed(), Faults: f}
	if o.Stream {
		return sim.RunStreamSharded(gcfg, cfg, o.shards())
	}
	if *tr == nil {
		t, err := trace.Generate(gcfg)
		if err != nil {
			return nil, err
		}
		*tr = t
	}
	cfg.Trace = *tr
	return sim.RunSharded(cfg, o.shards())
}

// meanUpHosts is the availability headline: the time-average live host
// count over the trace window (the Availability timeline's integral).
// Returns ok=false for zero-fault runs, where the timeline is nil by the
// identity contract.
func meanUpHosts(res *sim.Result, gcfg trace.GenConfig) (float64, bool) {
	if res.Availability == nil {
		return 0, false
	}
	start := gcfg.Start
	end := start.Add(gcfg.Duration)
	return res.Availability.Integral(start, end) / gcfg.Duration.Hours(), true
}

// FaultSweep renders the sweep: per-profile policy tables over a single
// 30-host cluster, then a federated block (heavy profile, its WAN
// degradation window scaling every inter-cluster penalty) at k=1,2,4.
func FaultSweep(o Options) (string, error) {
	var b strings.Builder
	b.WriteString(header("fault-sweep", "Fault injection: intensity x policy x federation", o))
	fmt.Fprintf(&b, "shards per run: %d, stream: %v\n", o.shards(), o.Stream)

	spec := trace.CampusDiurnalScenario()
	gcfg, err := scenarioConfig(o, spec)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "workload: %s (%.0fh window); profiles: %s\n",
		spec.Name, gcfg.Duration.Hours(), strings.Join(faultProfileOrder, ", "))

	var tr *trace.Trace
	for _, name := range faultProfileOrder {
		f, err := faultProfile(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n-- faults=%s", name)
		if f != nil {
			fmt.Fprintf(&b, " (MTBF %.0fh, MTTR %.1fh, %d outages, %d degradations)",
				f.HostMTBFHours, f.HostMTTRHours, len(f.Outages), len(f.Degradations))
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "   %-14s %9s %9s %11s %7s %8s %8s %7s %9s %11s\n",
			"policy", "delay-p99", "avail", "GPUh-saved", "crashes", "failover", "restarts", "abandon", "lost-GPUh", "failed-migr")
		for _, p := range scenarioPolicies {
			r, err := runFaultSim(o, gcfg, &tr, p, f)
			if err != nil {
				return "", err
			}
			avail := "-"
			if up, ok := meanUpHosts(r, gcfg); ok {
				avail = fmt.Sprintf("%.1f", up)
			}
			fmt.Fprintf(&b, "   %-14s %9s %9s %11.1f %7d %8d %8d %7d %9.1f %11d\n",
				p, fmtSeconds(r.Interactivity.Percentile(99)), avail,
				scenarioSaved(r, gcfg), r.HostCrashes, r.Failovers,
				r.TaskRestarts, r.Abandonments, r.LostGPUHours, r.FailedMigrations)
		}
	}

	heavy, err := faultProfile("heavy")
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\n-- federated, faults=heavy (degradation window scales WAN penalties x%.0f)\n",
		heavy.Degradations[0].Factor)
	fmt.Fprintf(&b, "   %-14s %9s %11s %7s %8s %8s %7s %8s\n",
		"federation", "delay-p99", "GPUh-saved", "crashes", "failover", "restarts", "abandon", "final")
	for _, k := range []int{1, 2, 4} {
		fcfg := sim.FedConfig{
			Clusters:        sim.DefaultFedClusters(k, fedTotalHosts),
			Route:           federation.LeastSubscribed{},
			PooledAutoscale: true,
			Seed:            o.seed(),
			Faults:          heavy,
		}
		var fres *sim.FedResult
		if o.Stream {
			fres, err = sim.RunFederatedStreamSharded(gcfg, fcfg, o.shards())
		} else {
			if tr == nil {
				if tr, err = trace.Generate(gcfg); err != nil {
					return "", err
				}
			}
			fcfg.Trace = tr
			fres, err = sim.RunFederatedSharded(fcfg, o.shards())
		}
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "   %-14s %9s %11.1f %7d %8d %8d %7d %8d\n",
			fmt.Sprintf("k=%d", k),
			fmtSeconds(fres.Interactivity.Percentile(99)), fres.GPUHoursSaved(),
			fres.HostCrashes, fres.Failovers, fres.TaskRestarts, fres.Abandonments,
			fres.FinalHosts())
	}

	b.WriteString("\nthe none row is the pinned zero-fault baseline (byte-identical to the fault-free\nsimulator); heavier profiles trade availability for recovery work — failovers keep\ntasks alive at one election each, restarts replay from checkpoints, and only\nexhausted retry budgets abandon. Chaos schedules are declarative: add a faults\nblock to a scenario JSON or pass -faults to nbos-sim.\n")
	return b.String(), nil
}
