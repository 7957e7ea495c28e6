package main

import (
	"fmt"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// workload is one named benchmark input.
type workload struct {
	name string
	why  string
	// prepare synthesizes the workload's inputs, its host time being
	// setup_s, and returns a runner for simulator seed seed. g times the
	// trace-synthesis part of the set-up.
	prepare func(seed int64, short bool, g *genClock) (*runner, error)
}

// runner is a prepared workload.
type runner struct {
	// params are the resolved parameters, echoed in the run manifest.
	params map[string]any
	// exec runs the workload's sim.Run* calls once, each through m.sim.
	// The returned reduce makes the benchmark's metrics calls on the
	// results and checks them; it runs outside run_s.
	exec func(m *meter) (reduce func() *outcome, err error)
	// reference, when set, runs the reference every outcome must match
	// exactly on the keys it returns. It is never inside run_s.
	reference func() (map[string]float64, error)
}

// outcome is the simulated result of one execution.
type outcome struct {
	// exact holds every simulated value the execution produced, by metric
	// name: the modelled end-to-end outcomes and the sim.* and federation
	// counters. For a fixed seed each is exactly reproducible.
	exact map[string]float64
	// problems lists the output checks this execution failed.
	problems []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// traceSeed seeds every workload's trace generator: the benchmark's
// --seed varies the simulator's own randomness (sim.Config.Seed, and
// through it the fault draws), not the trace. Across generator seeds the
// 10- and 30-day summer traces differ by up to 20% in tasks and their
// per-task host cost by 17%, far past any usable regression bound, while
// with one trace every figure stays within a few percent. Seed 42 is the
// draw whose sizes the workload descriptions quote.
const traceSeed = 42

// workloads is the benchmark's workload list, in BENCHMARK.json order.
var workloads = []workload{
	{
		name:    "stream-65k-128h",
		why:     "placement: 62,547 sessions streamed through StreamGen into sim.Run on 128 hosts; few tasks, the fleet scales out and LeastLoaded host scans dominate",
		prepare: prepareStream,
	},
	{
		name:    "summer-30d-4policies",
		why:     "DES heap, all four task FSMs and full metrics: the 30-day summer trace (94,061 tasks) replayed by sim.Run under each policy",
		prepare: prepareSummer,
	},
	{
		name:    "fed-weekly-4w-faults",
		why:     "federation routing, SLO wait-queue and fault injection: RunFederated over 4 clusters, composite scorer route, heavy fault profile",
		prepare: prepareFed,
	},
	{
		name:    "summer-10d-lease-k2",
		why:     "shard split, merge and lease-pool ledger barriers: RunSharded k=2 with LeasePool, checked exactly against unsharded sim.Run",
		prepare: prepareLease,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// delayMetrics reduces the NotebookOS interactivity sample into the
// delay metrics. Percentile sorts the sample, so this is the bulk of the
// benchmark's metrics-layer work. The p99 is a per-layer figure only: on
// summer-10d-lease-k2 it moves between 1.2 s and 8 s with the simulator
// seed (and the p95 by 36% on fed-weekly-4w-faults), depending on whether
// a few heavy sessions queue, so neither can carry a regression bound;
// the p90 stays within 4% on every workload.
func delayMetrics(exact map[string]float64, s *metrics.Sample) {
	exact["delay_p50_ms"] = s.Percentile(50) * 1000
	exact["delay_p90_ms"] = s.Percentile(90) * 1000
	exact["sim.delay_p99_ms"] = s.Percentile(99) * 1000
	exact["sim.delay_samples"] = float64(s.N())
	exact["metrics.samples"] += float64(s.N())
}

// resultCounters records a single-cluster Result's exact counters.
func resultCounters(exact map[string]float64, r *sim.Result) {
	exact["sim.tasks"] = float64(r.Tasks)
	exact["sim.sessions"] = float64(r.Sessions)
	exact["sim.immediate_commit_frac"] = ratio(r.ImmediateCommits, r.Tasks)
	exact["sim.warm_start_frac"] = ratio(r.WarmStarts, r.WarmStarts+r.ColdStarts)
	exact["sim.migrations"] = float64(r.Migrations)
	exact["sim.failed_migrations"] = float64(r.FailedMigrations)
	exact["sim.scale_outs"] = float64(r.ScaleOuts)
	exact["sim.scale_ins"] = float64(r.ScaleIns)
	exact["sim.failovers"] = float64(r.Failovers)
	exact["sim.restarts"] = float64(r.TaskRestarts)
	exact["sim.abandonments"] = float64(r.Abandonments)
	exact["sim.host_crashes"] = float64(r.HostCrashes)
	exact["sim.lost_gpuh"] = r.LostGPUHours
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// prepareStream: MillionSessionConfig over a 1/16 window, streamed through
// trace.NewStreamGen into sim.Run under NotebookOS with 128 hosts and lean
// metrics. Synthesis happens inside the run, so set-up is only the config
// and the generator.
func prepareStream(seed int64, short bool, g *genClock) (*runner, error) {
	gcfg := trace.MillionSessionConfig(traceSeed)
	div := time.Duration(16)
	if short {
		div = 512
	}
	gcfg.Duration /= div
	var gen *trace.StreamGen
	if err := g.generate(func() (err error) {
		gen, err = trace.NewStreamGen(gcfg, 0, 1)
		return err
	}); err != nil {
		return nil, err
	}
	const hosts = 128
	// The reservoir holds every interactivity observation, so the p99 is
	// exact rather than a 4096-observation reservoir estimate.
	const sampleCap = 1 << 16
	start, end := gen.Window()
	return &runner{
		params: map[string]any{
			"config": gcfg.Name, "duration_h": gcfg.Duration.Hours(), "sessions_per_h": gcfg.MaxSessionsPerHour,
			"source": "trace.NewStreamGen(cfg,0,1)", "entry": "sim.Run", "policy": sim.PolicyNotebookOS,
			"hosts": hosts, "lean_metrics": true, "lean_sample_cap": sampleCap,
		},
		exec: func(m *meter) (func() *outcome, error) {
			src := countedSource{Source: gen, m: m}
			var res *sim.Result
			err := m.sim("sim.Run", func() (err error) {
				res, err = sim.Run(sim.Config{
					Source: src, Policy: sim.PolicyNotebookOS, Hosts: hosts,
					LeanMetrics: true, LeanSampleCap: sampleCap, Seed: seed,
				})
				return err
			})
			if err != nil {
				return nil, err
			}
			return func() *outcome {
				o := &outcome{exact: map[string]float64{}}
				o.exact["gpuh_saved"] = res.ReservedGPUHours - res.ProvisionedGPUs.Integral(start, end)
				delayMetrics(o.exact, res.Interactivity)
				resultCounters(o.exact, res)
				o.exact["completed_frac"] = ratio(res.Tasks, m.tasks)
				o.exact["trace.sessions"] = float64(m.sessions)
				o.exact["trace.tasks"] = float64(m.tasks)
				o.check(res.Tasks == m.tasks, "completed %d tasks, the source yielded %d", res.Tasks, m.tasks)
				o.check(res.Sessions == m.sessions, "completed %d sessions, the source yielded %d", res.Sessions, m.sessions)
				return o
			}, nil
		},
	}, nil
}

// summerTrace synthesizes the AdobeSummerConfig trace over days days.
func summerTrace(days int, g *genClock) (*trace.Trace, error) {
	gcfg := trace.AdobeSummerConfig(traceSeed)
	gcfg.Duration = time.Duration(days) * 24 * time.Hour
	var tr *trace.Trace
	err := g.generate(func() (err error) {
		tr, err = trace.Generate(gcfg)
		return err
	})
	return tr, err
}

// prepareSummer: the 30-day summer trace, materialized, replayed by
// sim.Run once per policy with 30 hosts and full metrics.
func prepareSummer(seed int64, short bool, g *genClock) (*runner, error) {
	days := 30
	if short {
		days = 2
	}
	tr, err := summerTrace(days, g)
	if err != nil {
		return nil, err
	}
	const hosts = 30
	policies := []sim.Policy{sim.PolicyReservation, sim.PolicyBatch, sim.PolicyNotebookOS, sim.PolicyLCP}
	tasks := tr.NumTasks()
	return &runner{
		params: map[string]any{
			"config": "AdobeSummerConfig", "days": days, "sessions": len(tr.Sessions), "tasks": tasks,
			"entry": "sim.Run", "policies": policies, "hosts": hosts, "lean_metrics": false,
		},
		exec: func(m *meter) (func() *outcome, error) {
			results := make([]*sim.Result, len(policies))
			for i, p := range policies {
				err := m.sim("sim.Run("+string(p)+")", func() (err error) {
					results[i], err = sim.Run(sim.Config{Trace: tr, Policy: p, Hosts: hosts, Seed: seed})
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("policy %s: %w", p, err)
				}
			}
			return func() *outcome {
				o := &outcome{exact: map[string]float64{}}
				for i, r := range results {
					o.check(r.Tasks == tasks, "policy %s completed %d of %d tasks", policies[i], r.Tasks, tasks)
					o.check(r.Sessions == len(tr.Sessions), "policy %s completed %d of %d sessions", policies[i], r.Sessions, len(tr.Sessions))
					// Every policy's headline counters join the
					// determinism fingerprint.
					o.exact["tasks."+string(policies[i])] = float64(r.Tasks)
					o.exact["provisioned_gpuh."+string(policies[i])] = r.ProvisionedGPUs.Integral(tr.Start, tr.End)
				}
				nbos := results[2]
				o.exact["gpuh_saved"] = nbos.ReservedGPUHours - o.exact["provisioned_gpuh."+string(sim.PolicyNotebookOS)]
				delayMetrics(o.exact, nbos.Interactivity)
				resultCounters(o.exact, nbos)
				o.exact["completed_frac"] = ratio(nbos.Tasks, tasks)
				o.exact["trace.sessions"] = float64(len(tr.Sessions))
				o.exact["trace.tasks"] = float64(tasks)
				return o
			}, nil
		},
	}, nil
}

// compositeRoute is the four-scorer route of the
// policy-tournament-flash-k4-slo benchsnap scenario. Its scorers keep
// state, so every run gets a fresh one.
func compositeRoute() federation.RoutePolicy {
	return federation.NewScoredPolicy("composite",
		federation.WeightedScorer{Scorer: federation.SubscriptionScorer{}, Weight: 1},
		federation.WeightedScorer{Scorer: federation.LatencyScorer{}, Weight: federation.DefaultLatencyWeight},
		federation.WeightedScorer{Scorer: federation.QueueDepthScorer{}, Weight: 0.05},
		federation.WeightedScorer{Scorer: federation.SpreadScorer{}, Weight: 0.25})
}

// prepareFed: the weekly-mixed scenario stretched to four weeks,
// materialized, through RunFederated over four clusters with the
// composite route, a geo-banded latency matrix, the SLO-aware wait-queue
// and the heavy fault profile.
func prepareFed(seed int64, short bool, g *genClock) (*runner, error) {
	spec := trace.WeeklyMixedScenario()
	weeks := 4.0
	if short {
		weeks = 0.25
	}
	spec.DurationHours *= weeks
	var tr *trace.Trace
	if err := g.generate(func() error {
		gcfg, err := spec.Config(traceSeed)
		if err != nil {
			return err
		}
		tr, err = trace.Generate(gcfg)
		return err
	}); err != nil {
		return nil, err
	}
	const clusters, hosts = 4, 30
	tasks := tr.NumTasks()
	return &runner{
		params: map[string]any{
			"scenario": spec.Name, "duration_h": spec.DurationHours, "sessions": len(tr.Sessions), "tasks": tasks,
			"entry": "sim.RunFederated", "clusters": clusters, "hosts": hosts, "route": "composite(subscription,latency,queue-depth,spread)",
			"latency": "GeoBandedMatrix(4,2,5ms,40ms)", "slo_aware": true, "faults": "heavy",
		},
		exec: func(m *meter) (func() *outcome, error) {
			heavy := trace.HeavyFaultProfile()
			cfg := sim.FedConfig{
				Trace:    tr,
				Clusters: sim.DefaultFedClusters(clusters, hosts),
				Route:    m.routeFor(compositeRoute()),
				Latency:  federation.GeoBandedMatrix(clusters, 2, 5*time.Millisecond, 40*time.Millisecond),
				SLOAware: true,
				Faults:   &heavy,
				Seed:     seed,
			}
			var res *sim.FedResult
			err := m.sim("sim.RunFederated", func() (err error) {
				res, err = sim.RunFederated(cfg)
				return err
			})
			if err != nil {
				return nil, err
			}
			return func() *outcome {
				o := &outcome{exact: map[string]float64{}}
				o.exact["gpuh_saved"] = res.GPUHoursSaved()
				delayMetrics(o.exact, res.Interactivity)
				sessions := 0
				for _, c := range res.Clusters {
					sessions += c.HomeSessions
				}
				o.exact["sim.tasks"] = float64(res.Tasks)
				o.exact["sim.sessions"] = float64(sessions)
				o.exact["sim.immediate_commit_frac"] = ratio(res.ImmediateCommits, res.Tasks)
				o.exact["sim.warm_start_frac"] = ratio(res.WarmStarts, res.WarmStarts+res.ColdStarts)
				o.exact["sim.migrations"] = float64(res.Migrations)
				o.exact["sim.scale_outs"] = float64(res.ScaleOuts)
				o.exact["sim.scale_ins"] = float64(res.ScaleIns)
				o.exact["sim.failovers"] = float64(res.Failovers)
				o.exact["sim.restarts"] = float64(res.TaskRestarts)
				o.exact["sim.abandonments"] = float64(res.Abandonments)
				o.exact["sim.host_crashes"] = float64(res.HostCrashes)
				o.exact["sim.lost_gpuh"] = res.LostGPUHours
				o.exact["federation.remote_exec_frac"] = ratio(res.RemoteExecutions, res.Tasks)
				o.exact["federation.cross_migrations"] = float64(res.CrossMigrations)
				o.exact["trace.sessions"] = float64(len(tr.Sessions))
				o.exact["trace.tasks"] = float64(tasks)
				o.exact["completed_frac"] = ratio(res.Tasks, tasks)
				o.check(res.Tasks+res.Abandonments <= tasks, "completed %d + abandoned %d tasks exceed the %d submitted", res.Tasks, res.Abandonments, tasks)
				return o
			}, nil
		},
	}, nil
}

// prepareLease: the 10-day summer trace through sim.RunSharded with k=2
// and the lease-pool capacity mode. Its reference is the unsharded
// sim.Run of the same trace, whose provisioned-GPU integral and scaling
// counts the lease pool must reproduce exactly.
func prepareLease(seed int64, short bool, g *genClock) (*runner, error) {
	days := 10
	if short {
		days = 2
	}
	tr, err := summerTrace(days, g)
	if err != nil {
		return nil, err
	}
	const hosts, shards = 30, 2
	tasks := tr.NumTasks()
	contract := func(exact map[string]float64, r *sim.Result) {
		exact["provisioned_gpuh"] = r.ProvisionedGPUs.Integral(tr.Start, tr.End)
		exact["sim.scale_outs"] = float64(r.ScaleOuts)
		exact["sim.scale_ins"] = float64(r.ScaleIns)
	}
	cfg := sim.Config{Trace: tr, Policy: sim.PolicyNotebookOS, Hosts: hosts, Seed: seed}
	return &runner{
		params: map[string]any{
			"config": "AdobeSummerConfig", "days": days, "sessions": len(tr.Sessions), "tasks": tasks,
			"entry": "sim.RunSharded", "shards": shards, "shard_capacity": "LeasePool", "policy": sim.PolicyNotebookOS,
			"hosts": hosts, "reference": "sim.Run (unsharded, untimed)",
		},
		exec: func(m *meter) (func() *outcome, error) {
			var res *sim.Result
			err := m.sim("sim.RunSharded", func() (err error) {
				lcfg := cfg
				lcfg.ShardCapacity = sim.LeasePool
				res, err = sim.RunSharded(lcfg, shards)
				return err
			})
			if err != nil {
				return nil, err
			}
			return func() *outcome {
				o := &outcome{exact: map[string]float64{}}
				contract(o.exact, res)
				o.exact["gpuh_saved"] = res.ReservedGPUHours - o.exact["provisioned_gpuh"]
				delayMetrics(o.exact, res.Interactivity)
				resultCounters(o.exact, res)
				o.exact["completed_frac"] = ratio(res.Tasks, tasks)
				o.exact["trace.sessions"] = float64(len(tr.Sessions))
				o.exact["trace.tasks"] = float64(tasks)
				o.check(res.Tasks == tasks, "completed %d of %d tasks", res.Tasks, tasks)
				o.check(res.Sessions == len(tr.Sessions), "completed %d of %d sessions", res.Sessions, len(tr.Sessions))
				return o
			}, nil
		},
		reference: func() (map[string]float64, error) {
			res, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			ref := map[string]float64{}
			contract(ref, res)
			return ref, nil
		},
	}, nil
}
