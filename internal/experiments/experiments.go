package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// Options control an experiment run.
type Options struct {
	// Seed drives all randomness (default 42).
	Seed int64
	// Quick runs a reduced-scale version (shorter traces) for benchmarks
	// and CI; full scale matches the paper (17.5 h excerpt, 92-day trace).
	Quick bool
	// Shards > 1 routes every policy simulation through sim.RunSharded
	// (and the federated experiments through sim.RunFederatedSharded): the
	// trace splits into session-partitioned shards replayed by parallel
	// worker simulations and merged deterministically. This includes the
	// ablation and federation sweeps, which shard each point of their
	// parameter grid (sweeps whose cluster topology cannot hold a shard per
	// member clamp back toward the unsharded path automatically). Shards
	// <= 1 is the plain unsharded path, byte-identical to pre-sharding
	// output and the only exact one. Shards > 1 is the static capacity
	// split (sim.LegacySplit): shards never share capacity after the
	// initial proportional grant, so saved-GPU-hours drift below the
	// unsharded run as Shards grows (docs/SHARDING.md, "Measured drift").
	Shards int
	// Stream routes the figure experiments' policy simulations through
	// sim.RunStreamSharded: workers synthesize their sessions lazily from
	// the trace's generating config instead of replaying a materialized
	// trace. At Shards <= 1 the output is identical to the materialized
	// path (the streaming generator is byte-equivalent and the simulator's
	// event order is pinned by test); at Shards > 1 results differ from
	// materialized sharding because exact Poisson splitting partitions
	// sessions differently than trace.Split. Experiments that render the
	// trace itself (workload CDFs, reserved-GPU timelines) still
	// materialize it; Stream governs how the simulations consume sessions.
	// Parameter sweeps (ablations, federation grids) keep the materialized
	// path regardless.
	Stream bool
	// Faults optionally injects a deterministic fault schedule into
	// scenario runs (cmd/nbos-sim -faults; see trace.FaultSpec and
	// docs/FAULTS.md). It overrides a scenario JSON's own faults block.
	// Nil leaves every run failure-free — the figure experiments and
	// sweeps above never consult it, so their gated outputs cannot drift.
	Faults *trace.FaultSpec
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// shards normalizes the shard count: anything below 2 is the unsharded
// path (sim.RunSharded with k<=1 is exactly sim.Run).
func (o Options) shards() int {
	if o.Shards < 2 {
		return 1
	}
	return o.Shards
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) (string, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig2a", "Task duration CDFs (Adobe vs Philly vs Alibaba)", Fig2a},
		{"fig2b", "Per-session task IAT CDFs", Fig2b},
		{"fig2c", "GPU utilization CDFs (AdobeTrace)", Fig2c},
		{"fig2d", "Reserved vs utilized GPUs/CPUs timeline", Fig2d},
		{"table1", "Model and dataset catalog", Table1},
		{"fig7", "Active sessions & trainings (17.5h excerpt)", Fig7},
		{"fig8", "Provisioned GPU timelines & GPU-hours saved", Fig8},
		{"fig9a", "Interactivity delay CDFs", Fig9a},
		{"fig9b", "Task completion time CDFs", Fig9b},
		{"fig10", "Subscription ratio timeline & scheduler events", Fig10},
		{"fig11", "Sync/read/write latency CDFs vs event IATs", Fig11},
		{"fig12a", "Provider cost and revenue (90-day sim)", Fig12a},
		{"fig12b", "Profit margin (90-day sim)", Fig12b},
		{"fig13", "GPU-hours saved vs idle reclamation interval", Fig13},
		{"fig14a", "Cluster-wide allocatable GPUs (90-day sim)", Fig14a},
		{"fig14b", "GPU usage ratio (90-day sim)", Fig14b},
		{"fig16", "Latency breakdown: Reservation", Fig16},
		{"fig17", "Latency breakdown: Batch", Fig17},
		{"fig18", "Latency breakdown: NotebookOS", Fig18},
		{"fig19", "Latency breakdown: NotebookOS (LCP)", Fig19},
		{"fig20", "Active sessions & trainings (full summer)", Fig20},
		{"ablation-replicas", "Ablation: replication factor R", AblationReplicas},
		{"ablation-sr", "Ablation: SR high watermark", AblationSR},
		{"ablation-f", "Ablation: autoscaler factor f", AblationScaleFactor},
		{"ablation-prewarm", "Ablation: pre-warm pool size", AblationPrewarm},
		{"federation", "Federation: full multi-cluster scenario family", Federation},
		{"fed-scale", "Federation: cluster count sweep 1-8", FederationScale},
		{"fed-penalty", "Federation: inter-cluster penalty sweep", FederationPenalty},
		{"fed-policy", "Federation: route policy comparison", FederationPolicy},
		{"fed-autoscale", "Federation: pooled vs per-member autoscaling", FederationAutoscale},
		{"fed-matrix", "Federation: latency-matrix shape ablation", FederationMatrix},
		{"summer-fed", "Federation: 90-day summer trace, federated", SummerFederation},
		{"stream-scale", "Streaming 1M-session workload, bounded memory", StreamScale},
		{"scenario-sweep", "Scenario lab: arrival shape x policy x federation", ScenarioSweep},
		{"policy-tournament", "Policy lab: scorer configs x scenarios x federation k", PolicyTournament},
		{"fault-sweep", "Fault injection: intensity x policy x federation", FaultSweep},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared trace/simulation caches -------------------------------------

type traceKey struct {
	kind  string
	seed  int64
	quick bool
}

// traceEntry is a singleflight cache slot for generated traces.
type traceEntry struct {
	once sync.Once
	tr   *trace.Trace
}

var (
	traceMu    sync.Mutex
	traceCache = map[traceKey]*traceEntry{}
)

// genConfig returns the generating config behind a named trace kind — the
// single place the kind → GenConfig mapping lives, shared by the
// materializing trace getters below and the streaming path in runSim
// (which hands the config to sim.RunStreamSharded instead of generating).
func genConfig(o Options, kind string) (trace.GenConfig, bool) {
	var cfg trace.GenConfig
	switch kind {
	case "excerpt":
		// 17.5-hour excerpt (4 h in quick mode).
		cfg = trace.AdobeExcerptConfig(o.seed())
		if o.Quick {
			cfg.Duration = 4 * time.Hour
		}
	case "summer":
		// 92-day summer trace (10 days in quick mode).
		cfg = trace.AdobeSummerConfig(o.seed())
		if o.Quick {
			cfg.Duration = 10 * 24 * time.Hour
		}
	case "philly":
		cfg = trace.PhillyConfig(o.seed())
		if o.Quick {
			cfg.Duration = 7 * 24 * time.Hour
		}
	case "alibaba":
		cfg = trace.AlibabaConfig(o.seed())
		if o.Quick {
			cfg.Duration = 7 * 24 * time.Hour
		}
	default:
		return cfg, false
	}
	return cfg, true
}

// mustGenConfig is genConfig for the kinds the trace getters own.
func mustGenConfig(o Options, kind string) trace.GenConfig {
	cfg, ok := genConfig(o, kind)
	if !ok {
		panic("experiments: unknown trace kind " + kind)
	}
	return cfg
}

// excerptTrace returns the 17.5-hour excerpt (4 h in quick mode).
func excerptTrace(o Options) *trace.Trace {
	return cachedTrace(traceKey{"excerpt", o.seed(), o.Quick}, func() *trace.Trace {
		return trace.MustGenerate(mustGenConfig(o, "excerpt"))
	})
}

// summerTrace returns the 92-day summer trace (10 days in quick mode).
func summerTrace(o Options) *trace.Trace {
	return cachedTrace(traceKey{"summer", o.seed(), o.Quick}, func() *trace.Trace {
		return trace.MustGenerate(mustGenConfig(o, "summer"))
	})
}

func phillyTrace(o Options) *trace.Trace {
	return cachedTrace(traceKey{"philly", o.seed(), o.Quick}, func() *trace.Trace {
		return trace.MustGenerate(mustGenConfig(o, "philly"))
	})
}

func alibabaTrace(o Options) *trace.Trace {
	return cachedTrace(traceKey{"alibaba", o.seed(), o.Quick}, func() *trace.Trace {
		return trace.MustGenerate(mustGenConfig(o, "alibaba"))
	})
}

func cachedTrace(key traceKey, gen func() *trace.Trace) *trace.Trace {
	traceMu.Lock()
	e, ok := traceCache[key]
	if !ok {
		e = &traceEntry{}
		traceCache[key] = e
	}
	traceMu.Unlock()
	// Singleflight: concurrent callers for the same trace generate once
	// and share the result.
	e.once.Do(func() { e.tr = gen() })
	return e.tr
}

type simKey struct {
	kind   string
	policy sim.Policy
	seed   int64
	quick  bool
	shards int
	stream bool
}

// simEntry is a singleflight cache slot: when figures run their policy
// simulations on parallel goroutines, concurrent requests for the same
// (trace, policy, seed) run the simulation exactly once.
type simEntry struct {
	once sync.Once
	res  *sim.Result
	err  error
}

var (
	simMu    sync.Mutex
	simCache = map[simKey]*simEntry{}
)

// runSim runs (with caching) one policy over the named trace. With
// Options.Shards > 1 the run goes through sim.RunSharded; the shard count
// is part of the cache key because sharded results are a documented
// approximation of the unsharded ones. With Options.Stream the run goes
// through sim.RunStreamSharded on the trace kind's generating config —
// sessions are synthesized lazily by each worker rather than replayed
// from tr (identical output at shards <= 1, differently partitioned
// shards otherwise).
func runSim(o Options, kind string, tr *trace.Trace, policy sim.Policy) (*sim.Result, error) {
	gcfg, streamable := genConfig(o, kind)
	stream := o.Stream && streamable
	key := simKey{kind, policy, o.seed(), o.Quick, o.shards(), stream}
	simMu.Lock()
	e, ok := simCache[key]
	if !ok {
		e = &simEntry{}
		simCache[key] = e
	}
	simMu.Unlock()
	e.once.Do(func() {
		cfg := sim.Config{
			Trace:  tr,
			Policy: policy,
			Hosts:  30,
			Seed:   o.seed(),
		}
		if stream {
			cfg.Trace = nil
			e.res, e.err = sim.RunStreamSharded(gcfg, cfg, o.shards())
			return
		}
		e.res, e.err = sim.RunSharded(cfg, o.shards())
	})
	return e.res, e.err
}

// runSims runs one simulation per policy on parallel goroutines (each
// sim.Run owns its RNGs, seeded only by the config, so results are
// independent of scheduling) and returns results in argument order.
func runSims(o Options, kind string, tr *trace.Trace, policies ...sim.Policy) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(policies))
	errs := make([]error, len(policies))
	var wg sync.WaitGroup
	for i, p := range policies {
		wg.Add(1)
		go func(i int, p sim.Policy) {
			defer wg.Done()
			results[i], errs[i] = runSim(o, kind, tr, p)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// parallelSims runs uncached per-config simulations (ablation sweeps) on
// parallel goroutines, returning results in input order. Per-run seeds
// live in the configs, so output is byte-identical to a sequential sweep.
// With Options.Shards > 1 every sweep point additionally splits its trace
// across that many worker simulations (sim.RunSharded; shards <= 1 is
// exactly sim.Run).
func parallelSims(o Options, cfgs []sim.Config) ([]*sim.Result, error) {
	shards := o.shards()
	results := make([]*sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sim.RunSharded(cfgs[i], shards)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// header renders a standard experiment banner.
func header(id, title string, o Options) string {
	scale := "full"
	if o.Quick {
		scale = "quick"
	}
	return fmt.Sprintf("== %s: %s (seed=%d scale=%s) ==\n", id, title, o.seed(), scale)
}

// fmtDuration renders seconds compactly for tables.
func fmtSeconds(s float64) string {
	switch {
	case s < 1:
		return fmt.Sprintf("%.0fms", s*1000)
	case s < 120:
		return fmt.Sprintf("%.1fs", s)
	case s < 7200:
		return fmt.Sprintf("%.1fmin", s/60)
	default:
		return fmt.Sprintf("%.1fh", s/3600)
	}
}

// sortedKinds renders event counts deterministically.
func sortedKinds(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-16s %d\n", k, counts[k])
	}
	return b.String()
}
