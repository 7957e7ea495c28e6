package sim

import (
	"sync"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/trace"
	"notebookos/internal/workload"
)

// Streaming simulation
//
// The materialized path schedules a whole trace's events up front — one
// event per session boundary plus one per task arrival — which makes the
// engine's pending-event count (and the trace itself) linear in workload
// size. The streaming path replaces both with a single injector event: it
// fires at each session's start, materializes that session from the lazy
// trace.Source, schedules its end and task arrivals, and pulls the next
// session. Pending events then track *concurrency* (live sessions and their
// in-flight tasks), so a 90-day million-session run holds only the few
// thousand sessions alive at once.
//
// Event-order equivalence with the up-front loop: sessions arrive in
// non-decreasing start order, so every event of an earlier session is
// scheduled at an earlier (or equal) virtual time and carries a lower engine
// sequence number — the same tie-break order the up-front loop produced.
// The remaining tie class — a trace event landing on the same nanosecond
// as a periodic sampling or autoscale tick, common under coarse trace
// granularities — is closed by scheduling the ticks in the engine's late
// tie-break class (des.DeferLate): ticks lose every same-instant tie to
// model events in both paths, exactly as the up-front loop's scheduling
// order already made them. TestStreamingMatchesMaterialized pins the
// equivalence for every policy.

// gpuHoursAcc integrates a step function of GPU counts online, in
// value-hours — the streaming replacement for building a reserved-GPUs
// timeline from a trace scan and integrating it afterwards.
type gpuHoursAcc struct {
	lastNS int64
	level  float64
	hours  float64
}

// bump advances the integral to nowNS and steps the level by delta.
// Timestamps must be non-decreasing.
func (a *gpuHoursAcc) bump(nowNS int64, delta float64) {
	if a.level != 0 {
		a.hours += a.level * time.Duration(nowNS-a.lastNS).Hours()
	}
	a.lastNS = nowNS
	a.level += delta
}

// finish advances to endNS and returns the accumulated value-hours.
func (a *gpuHoursAcc) finish(endNS int64) float64 {
	a.bump(endNS, 0)
	return a.hours
}

// injector is the single-cluster streaming admitter: one event, re-scheduled
// (allocation-free, via ScheduleRunner) from each session start to the next.
type injector struct {
	s    *sim
	sess *trace.Session
}

func (in *injector) Fire() {
	s := in.s
	sess := in.sess
	if err := fitsHost(sess, s.cfg.HostCapacity); err != nil {
		s.rejectStream(err)
		in.sess = nil
		return
	}
	ss := &simSession{
		src:    sess,
		req:    sess.Request,
		assig:  workload.Assign(s.wr),
		holder: s.kind + "/" + sess.ID,
	}
	s.sessionStart(ss)
	s.eng.Schedule(sess.End, func() { s.sessionEnd(ss) })
	for _, task := range sess.Tasks {
		task := task
		s.eng.Schedule(task.Submit, func() { s.taskArrive(ss, task) })
	}
	if next, ok := s.pull(); ok {
		in.sess = next
		s.eng.ScheduleRunner(next.Start, in)
	} else {
		in.sess = nil
	}
}

// fedInjector is the federated streaming admitter; home clusters are
// assigned round-robin in arrival order, exactly as the up-front loop does.
type fedInjector struct {
	s    *fedSim
	sess *trace.Session
}

func (in *fedInjector) Fire() {
	s := in.s
	sess := in.sess
	home := s.homeSeq % len(s.members)
	if err := s.fitsSomeMember(sess); err != nil {
		s.reject(err)
		in.sess = nil
		return
	}
	ss := &fedSession{
		src:    sess,
		req:    sess.Request,
		assig:  workload.Assign(s.wr),
		home:   home,
		holder: "fed/" + sess.ID,
	}
	s.homeSeq++
	s.members[ss.home].res.HomeSessions++
	s.sessionStart(ss)
	s.eng.Schedule(sess.End, func() { s.sessionEnd(ss) })
	for _, task := range sess.Tasks {
		task := task
		s.eng.Schedule(task.Submit, func() { s.taskArrive(ss, task) })
	}
	if next, ok := s.pull(); ok {
		in.sess = next
		s.eng.ScheduleRunner(next.Start, in)
	} else {
		in.sess = nil
	}
}

// RunStreamSharded is RunSharded without the trace: shard i of k runs
// against its own trace.StreamGen — an exact Poisson split of gcfg, so no
// shard ever sees (or stores) another shard's sessions and the full trace
// never exists in memory. Capacity splits equally across shards: under
// exact splitting every shard has the same expected reserved-GPU-hours (the
// analytic GenConfig.Expect, not a trace scan), so the proportional-share
// weights are uniform by construction. Worker i simulates with
// ShardSeed(Seed, i), mirroring RunSharded; k <= 1, or cfg.ShardCapacity
// == LeasePool, runs a single streaming simulation of the whole config.
// One streaming caveat: the shard generators draw per-shard seeds, so the
// workers' union is distributionally — not samplewise — the unsharded
// workload, and merged task counts are near-equal rather than identical
// (docs/SHARDING.md).
//
// cfg.Trace and cfg.Source must be nil; each worker gets its shard's
// generator as its Source. Pass cfg.LeanMetrics to keep the workers'
// results window-bounded — with it, peak memory is governed by session
// *concurrency* and the simulated window, not by total session count.
func RunStreamSharded(gcfg trace.GenConfig, cfg Config, shards int) (*Result, error) {
	if cfg.ShardCapacity == LeasePool {
		src, err := trace.NewStreamGen(gcfg, 0, 1)
		if err != nil {
			return nil, err
		}
		cfg.Trace, cfg.Source = nil, src
		return Run(cfg)
	}
	gens, err := streamShards(gcfg, &cfg.Trace, &cfg.Source, func() error { return cfg.withDefaults() },
		func() int { return cfg.Hosts }, &shards)
	if err != nil {
		return nil, err
	}
	if shards <= 1 {
		cfg.Source = gens[0]
		return Run(cfg)
	}
	weights := uniformWeights(shards)
	hosts := trace.ProportionalShares(weights, cfg.Hosts, 1)
	minHosts := floorShares(weights, cfg.MinHosts)
	buffers := trace.ProportionalShares(weights, cfg.ScalingBufferHosts, 0)

	wcfgs := make([]Config, shards)
	for i := range gens {
		wcfg := cfg
		wcfg.Source = gens[i]
		wcfg.Hosts = hosts[i]
		wcfg.MinHosts = minHosts[i]
		wcfg.ScalingBufferHosts = buffers[i]
		wcfg.Seed = ShardSeed(cfg.Seed, i)
		wcfgs[i] = wcfg
	}

	results := make([]*Result, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := range wcfgs {
		wg.Add(1)
		go func(i int, wcfg Config) {
			defer wg.Done()
			results[i], errs[i] = Run(wcfg)
		}(i, wcfgs[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return MergeResults(results...), nil
}

// RunFederatedStreamSharded is RunFederatedSharded against streaming
// shards (see RunStreamSharded): each worker federation replays its own
// exact Poisson split of gcfg. The smallest member bounds the shard count,
// as in the materialized version; LeasePool runs unsharded.
func RunFederatedStreamSharded(gcfg trace.GenConfig, cfg FedConfig, shards int) (*FedResult, error) {
	if cfg.ShardCapacity == LeasePool {
		src, err := trace.NewStreamGen(gcfg, 0, 1)
		if err != nil {
			return nil, err
		}
		cfg.Trace, cfg.Source = nil, src
		return RunFederated(cfg)
	}
	smallest := func() int {
		min := cfg.Clusters[0].Hosts
		for _, spec := range cfg.Clusters {
			if spec.Hosts < min {
				min = spec.Hosts
			}
		}
		return min
	}
	gens, err := streamShards(gcfg, &cfg.Trace, &cfg.Source, func() error { return cfg.withDefaults() },
		smallest, &shards)
	if err != nil {
		return nil, err
	}
	// The parent withDefaults normalized an explicit NoInterClusterPenalty
	// to 0; keep it an explicit zero for the workers' own defaulting pass.
	if cfg.InterClusterPenalty == 0 {
		cfg.InterClusterPenalty = NoInterClusterPenalty
	}
	if shards <= 1 {
		cfg.Source = gens[0]
		return RunFederated(cfg)
	}
	weights := uniformWeights(shards)
	memberHosts := make([][]int, len(cfg.Clusters))
	memberFloors := make([][]int, len(cfg.Clusters))
	for m, spec := range cfg.Clusters {
		memberHosts[m] = trace.ProportionalShares(weights, spec.Hosts, 1)
		memberFloors[m] = floorShares(weights, spec.MinHosts)
	}
	fedFloors := floorShares(weights, cfg.FedMinHosts)

	wcfgs := make([]FedConfig, shards)
	for i := range gens {
		wcfg := cfg
		wcfg.Source = gens[i]
		wcfg.Clusters = make([]FedClusterSpec, len(cfg.Clusters))
		for m, spec := range cfg.Clusters {
			spec.Hosts = memberHosts[m][i]
			spec.MinHosts = memberFloors[m][i]
			wcfg.Clusters[m] = spec
		}
		wcfg.FedMinHosts = fedFloors[i]
		wcfg.Seed = ShardSeed(cfg.Seed, i)
		// Stateful route policies (round-robin's rotation counter) must
		// not be shared across the parallel workers.
		wcfg.Route = federation.FreshPolicy(cfg.Route)
		wcfgs[i] = wcfg
	}

	results := make([]*FedResult, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := range wcfgs {
		wg.Add(1)
		go func(i int, wcfg FedConfig) {
			defer wg.Done()
			results[i], errs[i] = RunFederated(wcfg)
		}(i, wcfgs[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return MergeFedResults(results...), nil
}

// streamShards runs the shared setup of the streaming sharded runners:
// defaulting the config against a one-shard probe source (so the capacity
// split sees the same defaults the workers will), clamping the shard count
// to the capacity bound, and building the final shard generators. The
// trace/source slots are passed by pointer so the probe source can be
// installed and withdrawn in place.
func streamShards(gcfg trace.GenConfig, tr **trace.Trace, src *trace.Source,
	withDefaults func() error, capacityBound func() int, shards *int) ([]*trace.StreamGen, error) {
	*tr = nil
	probe, err := trace.NewStreamGen(gcfg, 0, 1)
	if err != nil {
		return nil, err
	}
	*src = probe
	if err := withDefaults(); err != nil {
		*src = nil
		return nil, err
	}
	*src = nil
	if *shards < 1 {
		*shards = 1
	}
	// Every worker needs at least one real host (a zero share would read as
	// "use the default" to the worker's own config defaulting and invent
	// capacity), so capacity bounds the shard count.
	if bound := capacityBound(); *shards > bound {
		*shards = bound
	}
	return trace.StreamSplit(gcfg, *shards)
}

// uniformWeights returns n equal shares — the exact-splitting invariant
// that every streaming shard has identical expected load.
func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}
