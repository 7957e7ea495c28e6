package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"strings"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/des"
	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/resources"
	"notebookos/internal/scheduler"
	"notebookos/internal/trace"
	"notebookos/internal/workload"
)

// Policy selects the scheduling baseline being simulated (§5.1.1).
type Policy string

// The four evaluated policies.
const (
	// PolicyReservation reserves GPUs for each session's entire lifetime
	// (current notebook platforms).
	PolicyReservation Policy = "reservation"
	// PolicyBatch provisions a fresh container per submission, FCFS.
	PolicyBatch Policy = "batch"
	// PolicyNotebookOS is the full system: 3 replicas, oversubscription,
	// dynamic GPU binding, migration, autoscaling.
	PolicyNotebookOS Policy = "notebookos"
	// PolicyLCP is NotebookOS (LCP): a large warm-container pool with
	// per-task state warm-up instead of replicated kernels.
	PolicyLCP Policy = "notebookos-lcp"
)

// Step identifies a request-path stage from Fig. 15 for the latency
// breakdowns of Figs. 16-19.
type Step string

// Request-path steps (numbers follow Fig. 15).
const (
	StepGSProcess  Step = "GS P Rq (1)"
	StepPreProcess Step = "K PP Rq (5)"
	StepElection   Step = "K PRP (6)"
	StepIntermed   Step = "K PRP Exec (7)"
	StepExec       Step = "K Exec (8)"
	StepPostProc   Step = "K P Rsp (9)"
	StepReturn     Step = "LS<-K (10)"
	StepE2E        Step = "E2E"
)

// Steps lists the recorded steps in display order.
func Steps() []Step {
	return []Step{StepE2E, StepGSProcess, StepPreProcess, StepElection, StepIntermed, StepExec, StepPostProc, StepReturn}
}

// Config parameterizes one simulation run. A zero field selects its
// default; a negative count, rate or interval is an error.
type Config struct {
	// Trace is the workload to replay. Exactly one of Trace and Source must
	// be set.
	Trace *trace.Trace
	// Source is a lazily-iterated session stream (see trace.Source) used in
	// place of Trace: sessions are admitted into the simulation one at a
	// time, in arrival order, as virtual time reaches them, so the full
	// workload never needs to exist in memory. A materialized Trace and its
	// AsSource adapter produce byte-identical results; a trace.StreamGen
	// synthesizes the sessions on the fly.
	Source trace.Source
	// LeanMetrics bounds the result's memory by the simulated window instead
	// of the workload size: delta timelines coalesce at SampleEvery
	// resolution, distribution samples keep a seeded reservoir of
	// LeanSampleCap observations (min/max/N stay exact), and the Fig. 10
	// event record is skipped. Required for bounded-memory million-session
	// streaming runs; off by default.
	LeanMetrics bool
	// LeanSampleCap is the per-distribution reservoir size under LeanMetrics
	// (default 4096).
	LeanSampleCap int
	// Policy is the baseline to simulate.
	Policy Policy
	// Hosts is the initial server count (paper: 30 8-GPU VMs).
	Hosts int
	// HostCapacity defaults to p3.16xlarge.
	HostCapacity resources.Spec
	// ReplicasPerKernel is R (default 3).
	ReplicasPerKernel int
	// PrewarmPerHost sizes the warm pool (NotebookOS: small, for
	// migrations; LCP: large).
	PrewarmPerHost int
	// ScaleFactor is the autoscaler's f (default 1.05).
	ScaleFactor float64
	// ScalingBufferHosts keeps spare servers for bursts.
	ScalingBufferHosts int
	// AutoscaleInterval is the autoscaler period (default 60s).
	AutoscaleInterval time.Duration
	// MinHosts floors scale-in (default 4).
	MinHosts int
	// SRHighWatermark caps per-host subscription (default 3.0).
	SRHighWatermark float64
	// Latencies are the protocol latency models.
	Latencies Latencies
	// Seed drives all randomness.
	Seed int64
	// SampleEvery is the metrics sampling period (default 5 min).
	SampleEvery time.Duration
	// ShardCapacity selects how the sharded runners treat cluster capacity.
	// Run itself ignores it: the choice only exists when a trace is split
	// across workers. LegacySplit (the zero value) keeps the static
	// proportional split; LeasePool does not split at all, so the sharded
	// runners return the unsharded run. See RunSharded and
	// docs/SHARDING.md.
	ShardCapacity ShardCapacity
	// Faults declares the deterministic fault model: per-host exponential
	// crash/recover churn, scheduled outage windows, and (in federated
	// runs) network-degradation episodes. Nil or empty means a
	// failure-free world and leaves the run byte-identical to builds
	// without fault injection; see trace.FaultSpec and docs/FAULTS.md.
	Faults *trace.FaultSpec
}

func (c *Config) withDefaults() error {
	if c.Trace == nil && c.Source == nil {
		return fmt.Errorf("sim: config requires Trace or Source")
	}
	if c.Trace != nil && c.Source != nil {
		return fmt.Errorf("sim: config requires exactly one of Trace and Source")
	}
	if err := rejectNegative("Config",
		"Hosts", c.Hosts, "MinHosts", c.MinHosts, "ScalingBufferHosts", c.ScalingBufferHosts,
		"PrewarmPerHost", c.PrewarmPerHost, "ReplicasPerKernel", c.ReplicasPerKernel,
		"LeanSampleCap", c.LeanSampleCap, "ScaleFactor", c.ScaleFactor,
		"SRHighWatermark", c.SRHighWatermark, "SampleEvery", c.SampleEvery,
		"AutoscaleInterval", c.AutoscaleInterval); err != nil {
		return err
	}
	if c.LeanMetrics && c.LeanSampleCap == 0 {
		c.LeanSampleCap = 4096
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Policy == "" {
		c.Policy = PolicyNotebookOS
	}
	if c.Hosts == 0 {
		c.Hosts = 30
	}
	if c.HostCapacity.IsZero() {
		c.HostCapacity = resources.P316xlarge()
	}
	if c.ReplicasPerKernel == 0 {
		c.ReplicasPerKernel = 3
	}
	if c.ScaleFactor == 0 {
		c.ScaleFactor = 1.05
	}
	if c.AutoscaleInterval == 0 {
		c.AutoscaleInterval = time.Minute
	}
	if c.MinHosts == 0 {
		c.MinHosts = 4
	}
	if c.SRHighWatermark == 0 {
		c.SRHighWatermark = scheduler.DefaultSRHighWatermark
	}
	if c.Latencies.GSProcess == nil {
		c.Latencies = DefaultLatencies()
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 5 * time.Minute
	}
	if c.PrewarmPerHost == 0 {
		switch c.Policy {
		case PolicyLCP:
			c.PrewarmPerHost = 6
		case PolicyNotebookOS:
			c.PrewarmPerHost = 1
		}
	}
	return nil
}

// rejectNegative checks name/value pairs of one config type: zero selects
// a field's default, and a negative (or NaN) value is an error rather than
// a silent default.
func rejectNegative(owner string, pairs ...any) error {
	for i := 0; i+1 < len(pairs); i += 2 {
		bad := false
		switch v := pairs[i+1].(type) {
		case int:
			bad = v < 0
		case float64:
			bad = !(v >= 0)
		case time.Duration:
			bad = v < 0
		}
		if bad {
			return fmt.Errorf("sim: %s.%s is %v; it must not be negative (zero selects the default)",
				owner, pairs[i], pairs[i+1])
		}
	}
	return nil
}

// Event mirrors scheduler events for the Fig. 10 timeline. T is the event
// time in Unix nanoseconds — the DES engine's native int64 ordering key —
// which keeps a long trace's event record at 24 bytes instead of the 40 a
// time.Time field costs, and makes merge comparisons integer compares.
type Event struct {
	T    int64
	Kind scheduler.EventKind
}

// Time returns the event time as a time.Time in UTC.
func (e Event) Time() time.Time { return time.Unix(0, e.T).UTC() }

// Result carries everything the experiment harness needs to regenerate
// the paper's tables and figures.
type Result struct {
	Policy Policy

	// Timelines (Figs. 7, 8, 10, 14, 20).
	ProvisionedGPUs *metrics.Timeline
	CommittedGPUs   *metrics.Timeline
	ActiveSessions  *metrics.Timeline
	ActiveTrainings *metrics.Timeline
	SR              *metrics.Timeline

	// Distributions (Figs. 9, 11, 16-19).
	Interactivity *metrics.Sample          // seconds
	TCT           *metrics.Sample          // seconds
	StepLatency   map[Step]*metrics.Sample // seconds
	SyncLatency   *metrics.Sample          // seconds
	ReadLatency   *metrics.Sample          // seconds
	WriteLatency  *metrics.Sample          // seconds

	// Events and counters (Fig. 10, §5.3.2). Events is nil under
	// Config.LeanMetrics.
	Events           []Event
	Sessions         int
	Tasks            int
	ImmediateCommits int
	ExecutorReuse    int
	Migrations       int
	FailedMigrations int
	ScaleOuts        int
	ScaleIns         int
	ColdStarts       int
	WarmStarts       int

	// Revenue inputs (Fig. 12): integrated GPU/replica hours.
	ActiveGPUHours      float64
	StandbyReplicaHours float64
	ReservedGPUHours    float64
	ServerHours         float64

	// Fault-injection outcomes (docs/FAULTS.md). All zero — and the two
	// recorders nil — unless Config.Faults is enabled. HostCrashes and
	// HostRecoveries count crash/repair events; Failovers counts quorum-
	// preserving replica losses absorbed at one election cost;
	// TaskRestarts counts checkpoint-restore resubmissions after quorum
	// or executor loss; Abandonments counts tasks whose SLO-class retry
	// budget ran out (counted, never silently dropped); LostGPUHours
	// integrates GPU time thrown away by aborted executions.
	HostCrashes    int
	HostRecoveries int
	Failovers      int
	TaskRestarts   int
	Abandonments   int
	LostGPUHours   float64
	// Availability tracks the live host count as a delta timeline — its
	// integral over any window is exactly the fleet's up-host-hours.
	Availability *metrics.Timeline
	// RecoveryTime samples every recovery charge paid: failover election
	// rounds and checkpoint-restore restart penalties, in seconds.
	RecoveryTime *metrics.Sample

	// Placement work (cluster.PlacementWork): least-loaded placement
	// calls and the hosts they read. Deterministic work counters.
	PlacementCalls      int64
	PlacementHostVisits int64

	// DES work: the events the engine fired and its pending-event
	// high-water mark (des.Engine Steps and PeakLen). Deterministic work
	// counters; merged runs sum the first and take the max of the second.
	EventsFired       int64
	PeakPendingEvents int
}

// simSession is the per-session simulation state.
type simSession struct {
	src   *trace.Session
	req   resources.Spec
	assig workload.Assignment
	// home is the member the session was assigned to, round-robin in
	// arrival order.
	home int

	// holder is the session's exclusive-commit key ("<kind>/<id>"), built
	// once at session creation. A session's tasks are strictly serialized
	// (running + FCFS queue), so at most one commitment per session is ever
	// outstanding and one key can serve every task — the per-attempt
	// "<kind>/<id>/<nanos>" keys were the task path's largest allocation
	// source on long traces.
	holder string
	// NotebookOS: the R replicas (a nil host is a crash-emptied slot);
	// Reservation: the single reserved host, with no replica handle.
	replicas     []replicaRef
	lastExecutor int
	queue        []trace.Task
	running      bool
	closed       bool
	// cur is the in-flight task state machine (nil between tasks), the
	// handle the fault layer aborts through; restarts counts the current
	// task's checkpoint-restore resubmissions against its retry budget.
	cur      runningTask
	restarts int
}

// replicaRef is one of a session's replicas: the host it is subscribed
// on and the handle that unsubscribes it there.
type replicaRef struct {
	sh *simHost
	rh cluster.ReplicaHandle
}

// simHost pairs a cluster host with its member index and the simulator's
// per-host state (the warm-container count), so the hot placement scans
// walk one slice instead of re-fetching the host list and hitting a
// string-keyed map.
type simHost struct {
	h      *cluster.Host
	member int
	// warm counts pre-warmed containers available on the host.
	warm int
}

// simMember is one member cluster's mutable simulation state.
type simMember struct {
	spec    FedClusterSpec
	c       *cluster.Cluster
	hosts   []*simHost
	res     *FedClusterResult
	hostSeq int
	// pendingHosts counts servers being provisioned for this member.
	pendingHosts int
	// buffer is the spare-server count the autoscaler keeps
	// (Config.ScalingBufferHosts; zero for federation members).
	buffer int
}

// sim is the simulation engine: a federation of member clusters under one
// policy. RunFederated runs it with its configured members and the
// NotebookOS policy; Run runs a one-member engine under any of the four
// policies (see newRunSim).
type sim struct {
	cfg       FedConfig
	policy    Policy
	eng       *des.Engine
	rng       *rand.Rand
	fed       *federation.Federation
	members   []*simMember
	placement scheduler.LeastLoaded
	// try is the policy's task attempt: it reports whether the task made
	// progress (runTask parks it on the wait-queue otherwise).
	try func(ss *simSession, task trace.Task, submit time.Time) bool
	// byHost resolves the hosts returned by the placement policy back to
	// their simHost wrappers (warm counts, member index).
	byHost map[*cluster.Host]*simHost
	// waitq parks tasks blocked on capacity anywhere in the federation;
	// it is woken by any member's Release/AddHost.
	waitq *capacityWaitQueue
	// autoscaler makes the pooled decisions when cfg.PooledAutoscale is
	// set; nil in per-member mode.
	autoscaler *federation.FederatedAutoscaler
	// loads is the reusable MemberLoad buffer the pooled autoscaler
	// snapshot fills every interval (one slice for the whole run instead
	// of one per tick — 90-day runs make tens of thousands of ticks).
	loads []federation.MemberLoad
	// route is the reusable ranking scratch for the route policy — the
	// event loop is single-threaded and ranks clusters on every placement
	// and remote execution, so one scratch serves the whole run.
	route federation.RouteScratch
	// qdepth counts parked capacity waiters per home member — the
	// QueueDepth signal RoutingSnapshots carry (via SetSnapshotExtras).
	// Maintained on every park/unpark; it never affects the default path's
	// event order.
	qdepth []int
	res    *FedResult
	// one holds the recorders only Result exposes: the SR timeline, Fig. 10
	// events, active trainings, the per-step breakdown, the Sync/Read/Write
	// samples and ExecutorReuse. It is non-nil only under Run, so federated
	// runs pay nothing for them, and it marks the single-cluster run, which
	// ignores member-scoped outages and degradation episodes. rrng feeds
	// its record-only draws (the Fig. 11 async Sync and store-Put
	// latencies), so recording never perturbs the scheduling RNG.
	one  *Result
	rrng *rand.Rand
	// kind is the holder-key namespace (see holderKind).
	kind string

	// start/end bound the simulated window (the trace's or the source's).
	start, end time.Time
	// streaming is set when sessions arrive lazily from cfg.Source; lean
	// mirrors cfg.LeanMetrics for the hot recording paths.
	streaming bool
	lean      bool
	// wr is the workload-assignment stream, shared by the up-front loop
	// and the lazy injector so both draw in arrival order.
	wr *rand.Rand
	// homeSeq counts admitted sessions for round-robin home assignment.
	homeSeq int
	// pull yields the source's next session under streaming; stopPull
	// releases the iterator (see close); srcErr holds the source's
	// iteration error once the stream is exhausted.
	pull     func() (*trace.Session, bool)
	stopPull func()
	srcErr   error
	// inputErr records a session no member can hold; the run stops
	// admitting and returns it (see reject).
	inputErr error
	// reserved integrates reserved GPUs (session request sizes over session
	// lifetimes) online, replacing the trace-scan integral when streaming.
	reserved gpuHoursAcc

	// Fault-injection state (see faults.go), live only when cfg.Faults is
	// enabled: frng feeds the crash-path draws (elections, container
	// starts during repair) so fault handling never perturbs the
	// scheduling RNG; faultSessions tracks live sessions in arrival order
	// for crash repair.
	faultsOn      bool
	frng          *rand.Rand
	faultSessions []*simSession
}

// holderKind names the exclusive-commit key namespace each policy's task
// path uses; Reservation holds for whole sessions under "sess".
func holderKind(p Policy) string {
	switch p {
	case PolicyReservation:
		return "sess"
	case PolicyBatch:
		return "batch"
	case PolicyLCP:
		return "lcp"
	default:
		return "nbos"
	}
}

// Run executes a single-cluster simulation and returns its result. The
// cluster is a one-member federation run by the same engine as
// RunFederated, so a one-member RunFederated with the same sizes and seed
// reproduces every output the two results share
// (TestRunIsOneMemberFederation).
func Run(cfg Config) (*Result, error) {
	s, err := newRunSim(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.eng.RunUntil(s.end.Add(24 * time.Hour))
	if err := s.finish(); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// newRunSim builds the engine Run drives: one member named "sim", sized
// from Config.Hosts/HostCapacity/MinHosts/ScalingBufferHosts, under
// LocalFirst routing, running cfg.Policy.
func newRunSim(cfg Config) (*sim, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	return newSim(FedConfig{
		Trace:             cfg.Trace,
		Source:            cfg.Source,
		LeanMetrics:       cfg.LeanMetrics,
		LeanSampleCap:     cfg.LeanSampleCap,
		Clusters:          []FedClusterSpec{{Name: "sim", Hosts: cfg.Hosts, HostCapacity: cfg.HostCapacity, MinHosts: cfg.MinHosts}},
		Route:             federation.LocalFirst{},
		ReplicasPerKernel: cfg.ReplicasPerKernel,
		PrewarmPerHost:    cfg.PrewarmPerHost,
		SRHighWatermark:   cfg.SRHighWatermark,
		ScaleFactor:       cfg.ScaleFactor,
		AutoscaleInterval: cfg.AutoscaleInterval,
		Latencies:         cfg.Latencies,
		Seed:              cfg.Seed,
		SampleEvery:       cfg.SampleEvery,
		Faults:            cfg.Faults,
	}, &cfg)
}

// newSim builds a ready-to-run engine from a defaulted config: members and
// hosts in place, every trace (or injector) event scheduled, sampling and
// autoscale ticks armed. run is the single-cluster Config the engine was
// built from (nil for a federated run): it selects the policy and the
// scaling buffer and switches on the Result-only recorders. Callers drive
// the engine to past the window's end and collect with finish; pair with
// close, which releases the streaming source's iterator.
func newSim(cfg FedConfig, run *Config) (*sim, error) {
	src := cfg.Source
	if src == nil {
		src = cfg.Trace.AsSource()
	}
	start, end := src.Window()
	eng := des.New(start)
	s := &sim{
		cfg:       cfg,
		policy:    PolicyNotebookOS,
		eng:       eng,
		rng:       rand.New(rand.NewSource(cfg.Seed + 1)),
		fed:       federation.New(cfg.InterClusterPenalty),
		placement: scheduler.LeastLoaded{SRHighWatermark: cfg.SRHighWatermark},
		byHost:    map[*cluster.Host]*simHost{},
		waitq:     newCapacityWaitQueue(eng),
		start:     start,
		end:       end,
		streaming: cfg.Source != nil,
		lean:      cfg.LeanMetrics,
		wr:        rand.New(rand.NewSource(cfg.Seed + 2)),
	}
	if run != nil {
		s.policy = run.Policy
	}
	s.kind = holderKind(s.policy)
	switch s.policy {
	case PolicyReservation:
		s.try = s.tryReservationTask
	case PolicyBatch:
		s.try = s.tryBatchTask
	case PolicyLCP:
		s.try = s.tryLCPTask
	default:
		s.try = s.tryNbosTask
	}
	s.reserved.lastNS = start.UnixNano()

	// Lean mode swaps the unbounded recorders for window-bounded ones:
	// timelines coalesce at the sampling period, samples keep seeded
	// reservoirs (each with its own derived seed, so merges stay
	// reproducible). Samples are created in a fixed order — Interactivity,
	// TCT, then the Result-only ones, then the SLO classes — so every
	// reservoir seed is the same in Run and RunFederated.
	newTL := metrics.NewTimeline
	if s.lean {
		newTL = func() *metrics.Timeline { return metrics.NewCoalescedTimeline(cfg.SampleEvery) }
	}
	sampleSeq := cfg.Seed + 1000
	newSample := func() *metrics.Sample {
		sm := metrics.NewSample()
		if s.lean {
			sampleSeq++
			sm.Reservoir(cfg.LeanSampleCap, sampleSeq)
		}
		return sm
	}
	s.res = &FedResult{
		ActiveSessions: newTL(),
		Interactivity:  newSample(),
		TCT:            newSample(),
	}
	if run != nil {
		s.one = &Result{
			Policy:          s.policy,
			SR:              newTL(),
			ActiveTrainings: newTL(),
			SyncLatency:     newSample(),
			ReadLatency:     newSample(),
			WriteLatency:    newSample(),
			StepLatency:     map[Step]*metrics.Sample{},
		}
		for _, st := range Steps() {
			s.one.StepLatency[st] = newSample()
		}
		s.rrng = rand.New(rand.NewSource(cfg.Seed + 4))
	}
	s.qdepth = make([]int, len(cfg.Clusters))
	if cfg.SLOAware {
		s.waitq.usePriority(cfg.SLOAgingBound)
		// Pre-create the per-class samples in SLOClasses order so lean-mode
		// reservoir seeds are position-independent of the workload.
		s.res.ClassDelay = make(map[trace.SLOClass]*metrics.Sample, 3)
		for _, cl := range trace.SLOClasses() {
			s.res.ClassDelay[cl] = newSample()
		}
	}
	// Fault injection arms before the member clusters build so every host
	// slot — including each member's initial Hosts — carries a crash
	// clock, and the availability timeline sees every membership change.
	s.initFaults()
	for i, spec := range cfg.Clusters {
		c := cluster.New(cfg.ReplicasPerKernel)
		if _, err := s.fed.AddMember(spec.Name, c); err != nil {
			return nil, err
		}
		// Any member's capacity-freeing transition wakes the shared queue
		// directly (the federation's own fan-in would add a lock per
		// notification and nothing else).
		c.SetCapacityNotifier(s.waitq.Notify)
		m := &simMember{
			spec: spec,
			c:    c,
			res: &FedClusterResult{
				Name:            spec.Name,
				ProvisionedGPUs: newTL(),
				CommittedGPUs:   newTL(),
			},
		}
		if run != nil {
			m.buffer = run.ScalingBufferHosts
		}
		s.members = append(s.members, m)
		s.res.Clusters = append(s.res.Clusters, m.res)
		for j := 0; j < spec.Hosts; j++ {
			s.addHost(i)
		}
	}
	if cfg.Latency != nil {
		// Size was validated against the cluster count in withDefaults.
		if err := s.fed.SetLatencyMatrix(cfg.Latency); err != nil {
			return nil, err
		}
	}
	if cfg.PooledAutoscale {
		s.autoscaler = &federation.FederatedAutoscaler{
			ScaleFactor: cfg.ScaleFactor,
			MinHosts:    cfg.FedMinHosts,
			Replicas:    cfg.ReplicasPerKernel,
			Policy:      cfg.ScalePolicy,
		}
	}
	// Routing snapshots read the scheduler-level signals through this
	// callback: parked-waiter depth by home member, and the retirable
	// (empty) host count a scale-in could reclaim. Only Snapshot-building
	// policies (ScoredPolicy) invoke it; the closed-form trio pays nothing.
	s.fed.SetSnapshotExtras(func(member int) (int, int) {
		return s.qdepth[member], s.members[member].c.EmptyHosts()
	})

	// Pre-size the metric columns from the source's expectation: delta
	// series record two points per task (or session), sampled series one
	// point per period. For a materialized trace the hints are exact upper
	// bounds (coincident timestamps collapse), so long traces pay one
	// allocation per column instead of a geometric growth ladder — the
	// dominant allocation cost of 90-day runs. Per-member delta series
	// split the task total evenly — an estimate, so a hot member may still
	// grow. A streaming source supplies analytic expectations instead of a
	// trace scan; under LeanMetrics the recorders bound themselves and the
	// hints are skipped entirely.
	exp := src.Expect()
	sessions, numTasks := exp.Sessions, exp.Tasks
	ticks := int(end.Sub(start)/cfg.SampleEvery) + 2
	if !s.lean {
		s.res.ActiveSessions.Grow(2 * sessions)
		s.res.Interactivity.Grow(numTasks)
		s.res.TCT.Grow(numTasks)
		for _, m := range s.members {
			m.res.ProvisionedGPUs.Grow(ticks + 64)
			m.res.CommittedGPUs.Grow(2*numTasks/len(s.members) + 16)
		}
		if r := s.one; r != nil {
			r.ActiveTrainings.Grow(2 * numTasks)
			if s.provisionsServers() {
				r.SR.Grow(2*sessions + ticks)
			}
			r.SyncLatency.Grow(numTasks)
			r.ReadLatency.Grow(numTasks)
			r.WriteLatency.Grow(numTasks)
			for _, st := range Steps() {
				r.StepLatency[st].Grow(numTasks) // one observation per executed task
			}
			r.Events = make([]Event, 0, sessions+64)
		}
	}

	if s.streaming {
		// Sessions are admitted lazily: the injector event at each session's
		// start materializes it, schedules its end and first task arrival,
		// and pulls the next one — pending-event count tracks concurrency,
		// not workload size.
		next, stop := iter.Pull(func(yield func(*trace.Session) bool) {
			s.srcErr = src.Sessions(yield)
		})
		s.stopPull = stop
		s.pull = next
		if first, ok := next(); ok {
			s.eng.ScheduleRunner(first.Start, &injector{s: s, sess: first})
		}
	} else {
		// Every session boundary is scheduled up front; task arrivals
		// chain per session (see arrivals), so the heap peaks at the
		// session boundaries plus one arrival per session.
		s.eng.Reserve(2*sessions + 16)
		for _, sess := range cfg.Trace.Sessions {
			ss, err := s.admit(sess)
			if err != nil {
				return nil, err
			}
			s.eng.Schedule(sess.Start, func() { s.sessionStart(ss) })
			s.scheduleSession(ss)
		}
	}

	s.scheduleSampling()
	if s.provisionsServers() {
		s.scheduleAutoscale()
	}
	return s, nil
}

// provisionsServers reports whether the policy provisions whole servers
// and autoscales them (NotebookOS and LCP); Reservation and Batch
// provision what they commit (Fig. 8).
func (s *sim) provisionsServers() bool {
	return s.policy == PolicyNotebookOS || s.policy == PolicyLCP
}

// admit builds a session's state in arrival order: it checks that the
// session is well formed (its tasks sorted by Submit within its lifetime,
// which the arrival cursor relies on), that it starts inside the
// simulated window, and that some member's hosts can hold the request,
// then assigns the workload and the round-robin home member.
func (s *sim) admit(sess *trace.Session) (*simSession, error) {
	if sess.Start.Before(s.start) {
		return nil, fmt.Errorf("sim: session %s starts at %s, before the window start %s",
			sess.ID, sess.Start.Format(time.RFC3339), s.start.Format(time.RFC3339))
	}
	if err := sess.Validate(); err != nil {
		return nil, err
	}
	if err := s.fitsSomeMember(sess); err != nil {
		return nil, err
	}
	ss := &simSession{
		src:    sess,
		req:    sess.Request,
		assig:  workload.Assign(s.wr),
		home:   s.homeSeq % len(s.members),
		holder: s.kind + "/" + sess.ID,
	}
	s.homeSeq++
	s.members[ss.home].res.HomeSessions++
	return ss, nil
}

// scheduleSession schedules an admitted session's end and the first of
// its task arrivals; the rest chain through the session's arrivals cursor.
func (s *sim) scheduleSession(ss *simSession) {
	s.eng.Schedule(ss.src.End, func() { s.sessionEnd(ss) })
	if tasks := ss.src.Tasks; len(tasks) > 0 {
		a := &arrivals{s: s, ss: ss, seq: s.eng.ReserveSeqs(len(tasks))}
		s.eng.ScheduleRunnerSeq(tasks[0].Submit, a.seq, a)
	}
}

// arrivals is a session's task-arrival cursor: firing task next schedules
// task next+1, so a live session keeps one pending arrival instead of its
// whole task list. The session's sequence numbers are reserved when it is
// scheduled, and admission guarantees its tasks are sorted by Submit, so
// every arrival fires at the (time, sequence) position eager scheduling
// gave it. It is allocated only for sessions with tasks (most streamed
// sessions have none).
type arrivals struct {
	s  *sim
	ss *simSession
	// seq is the reserved sequence number of Tasks[0]; Tasks[i] fires
	// with seq+i.
	seq  int64
	next int
}

func (a *arrivals) Fire() {
	tasks := a.ss.src.Tasks
	task := tasks[a.next]
	a.next++
	if a.next < len(tasks) {
		a.s.eng.ScheduleRunnerSeq(tasks[a.next].Submit, a.seq+int64(a.next), a)
	}
	a.s.taskArrive(a.ss, task)
}

// close releases the streaming source's iterator; safe on any sim and
// safe to call more than once.
func (s *sim) close() {
	if s.stopPull != nil {
		s.stopPull()
		s.stopPull = nil
	}
}

// finish surfaces an input or streaming-source error, integrates the
// reserved GPU-hours and records each member's final host count. Call
// once, after the engine has run past the window's end; then project
// with result or fedResult.
func (s *sim) finish() error {
	if s.inputErr != nil {
		return s.inputErr
	}
	if s.srcErr != nil {
		return s.srcErr
	}
	if s.streaming {
		// No trace to scan: the online accumulator integrated reserved GPUs
		// as sessions came and went (bit-for-bit it is a different summation
		// order than the trace-scan timeline, so the two agree to rounding).
		s.res.ReservedGPUHours = s.reserved.finish(s.end.UnixNano())
	} else {
		s.res.ReservedGPUHours = s.cfg.Trace.ReservedGPUs().Integral(s.start, s.end)
	}
	for _, m := range s.members {
		m.res.FinalHosts = m.c.NumHosts()
	}
	s.res.EventsFired, s.res.PeakPendingEvents = s.eng.Steps(), s.eng.PeakLen()
	return nil
}

// result projects a finished one-member engine into a Result: the
// member's own series, the shared counters and samples, the Result-only
// recorders, and the integrated hours of the cost model (Fig. 12).
func (s *sim) result() *Result {
	r, f, m := s.one, s.res, s.members[0]
	r.ProvisionedGPUs, r.CommittedGPUs = m.res.ProvisionedGPUs, m.res.CommittedGPUs
	r.ActiveSessions, r.Interactivity, r.TCT = f.ActiveSessions, f.Interactivity, f.TCT
	r.Sessions = m.res.HomeSessions
	r.Tasks, r.ImmediateCommits, r.Migrations = f.Tasks, f.ImmediateCommits, f.Migrations
	r.ScaleOuts, r.ScaleIns = f.ScaleOuts, f.ScaleIns
	r.ColdStarts, r.WarmStarts = f.ColdStarts, f.WarmStarts
	r.HostCrashes, r.HostRecoveries, r.Failovers = f.HostCrashes, f.HostRecoveries, f.Failovers
	r.TaskRestarts, r.Abandonments, r.LostGPUHours = f.TaskRestarts, f.Abandonments, f.LostGPUHours
	r.Availability, r.RecoveryTime = f.Availability, f.RecoveryTime
	r.ActiveGPUHours = r.CommittedGPUs.Integral(s.start, s.end)
	r.ServerHours = r.ProvisionedGPUs.Integral(s.start, s.end) / float64(m.spec.HostCapacity.GPUs)
	r.ReservedGPUHours = f.ReservedGPUHours
	if s.policy == PolicyNotebookOS {
		// Each session keeps R standby replicas alive; the executor is
		// billed as active while training. Replica-hours approximate
		// R x session-hours.
		r.StandbyReplicaHours = r.ActiveSessions.Integral(s.start, s.end) * float64(s.cfg.ReplicasPerKernel)
	}
	r.PlacementCalls, r.PlacementHostVisits = m.c.PlacementWork()
	r.EventsFired, r.PeakPendingEvents = f.EventsFired, f.PeakPendingEvents
	return r
}

func (s *sim) now() time.Time { return s.eng.Now() }

// fitsSomeMember rejects a session whose request exceeds one host of
// every member: no policy can ever place it (a kernel replica, a
// reservation and a task container each live on one host), so the run
// fails with an error instead of dropping the session or its tasks. A
// session that fits only other members' hosts is admitted; placeSession
// tries every member, and sessionStart fails the run if none can take it.
func (s *sim) fitsSomeMember(sess *trace.Session) error {
	for _, m := range s.members {
		if sess.Request.Fits(m.spec.HostCapacity) {
			return nil
		}
	}
	if len(s.members) == 1 {
		return fmt.Errorf("sim: session %s requests %v, more than the host capacity %v",
			sess.ID, sess.Request, s.members[0].spec.HostCapacity)
	}
	caps := make([]string, len(s.members))
	for i, m := range s.members {
		caps[i] = fmt.Sprintf("%v (%s)", m.spec.HostCapacity, m.spec.Name)
	}
	return fmt.Errorf("sim: session %s requests %v, more than the host capacity of every cluster: %s",
		sess.ID, sess.Request, strings.Join(caps, ", "))
}

// reject records a session's input error and ends the run: nothing more
// is admitted, and finish returns the error.
func (s *sim) reject(err error) {
	s.inputErr = err
	s.eng.Stop()
}

func (s *sim) addHost(member int) *simHost {
	m := s.members[member]
	m.hostSeq++
	h := cluster.NewHost(fmt.Sprintf("%s-h%04d", m.spec.Name, m.hostSeq), m.spec.HostCapacity)
	if err := m.c.AddHost(h); err != nil {
		panic(err)
	}
	sh := &simHost{h: h, member: member, warm: s.cfg.PrewarmPerHost}
	m.hosts = append(m.hosts, sh)
	s.byHost[h] = sh
	if s.faultsOn {
		s.armHostFaults(sh, m.hostSeq)
	}
	return sh
}

// recordEvent appends a Fig. 10 event (Run only, and not under
// LeanMetrics).
func (s *sim) recordEvent(kind scheduler.EventKind) {
	if s.one == nil || s.lean {
		return
	}
	s.one.Events = append(s.one.Events, Event{T: s.now().UnixNano(), Kind: kind})
}

// ---- session lifecycle -------------------------------------------------

func (s *sim) sessionStart(ss *simSession) {
	if s.faultsOn {
		s.faultSessions = append(s.faultSessions, ss)
	}
	s.res.ActiveSessions.Delta(s.now(), 1)
	s.reserved.bump(s.now().UnixNano(), float64(ss.req.GPUs))
	switch s.policy {
	case PolicyReservation:
		// Bind GPUs for the whole session; grow the cluster when full
		// (the provider provisions to fit all reservations).
		sh := s.hostWithIdle(ss.home, ss.req)
		if sh == nil {
			sh = s.addHost(ss.home)
		}
		if err := sh.h.Commit(ss.holder, ss.req); err != nil {
			// A fresh host always fits a valid request.
			panic(err)
		}
		ss.replicas = []replicaRef{{sh: sh}}
	case PolicyNotebookOS:
		s.startKernel(ss)
	case PolicyBatch, PolicyLCP:
		// No per-session provisioning: containers come per task.
	}
}

// startKernel places the session's R replicas within one member, trying
// members in route-policy order. When none can place them it scales out
// the home member synchronously (placement pauses until the servers are
// ready; the provisioning delay is charged to session creation, not to
// any task).
func (s *sim) startKernel(ss *simSession) {
	if !s.placeSession(ss) {
		for i := 0; i < s.cfg.ReplicasPerKernel; i++ {
			s.addHost(ss.home)
		}
		s.res.ScaleOuts++
		s.members[ss.home].res.ScaleOuts++
		s.recordEvent(scheduler.EventScaleOut)
		if !s.placeSession(ss) {
			// Only a session larger than the home member's hosts gets here:
			// it fits some other member's hosts, but none has room for it.
			ss.replicas = nil
			m := s.members[ss.home]
			s.reject(fmt.Errorf("sim: session %s requests %v, more than the host capacity %v of its home cluster %s, and no other cluster has room for it",
				ss.src.ID, ss.req, m.spec.HostCapacity, m.spec.Name))
			return
		}
	}
	s.recordEvent(scheduler.EventKernelCreated)
	s.sampleSR()
}

// placeSession places the session's R replicas within a single member,
// trying members in route-policy order.
func (s *sim) placeSession(ss *simSession) bool {
	for _, idx := range s.cfg.Route.Order(s.fed, ss.home, &s.route) {
		m := s.members[idx]
		hosts, err := s.placement.SelectHosts(m.c, ss.req, s.cfg.ReplicasPerKernel)
		if err != nil {
			continue
		}
		ss.replicas = make([]replicaRef, len(hosts))
		for i, h := range hosts {
			rh, _ := h.PlaceReplica(ss.req)
			ss.replicas[i] = replicaRef{sh: s.byHost[h], rh: rh}
		}
		m.res.PlacedSessions++
		if idx == ss.home {
			s.res.LocalPlacements++
		} else {
			s.res.RemotePlacements++
		}
		return true
	}
	return false
}

func (s *sim) sessionEnd(ss *simSession) {
	if ss.closed {
		return
	}
	ss.closed = true
	if s.faultsOn {
		for i, live := range s.faultSessions {
			if live == ss {
				s.faultSessions = append(s.faultSessions[:i], s.faultSessions[i+1:]...)
				break
			}
		}
	}
	s.res.ActiveSessions.Delta(s.now(), -1)
	s.reserved.bump(s.now().UnixNano(), -float64(ss.req.GPUs))
	switch s.policy {
	case PolicyReservation:
		_ = ss.replicas[0].sh.h.Release(ss.holder)
	case PolicyNotebookOS:
		for _, r := range ss.replicas {
			if r.sh == nil {
				continue // crash-emptied slot (faults.go)
			}
			_ = r.sh.h.RemoveReplica(r.rh)
		}
		s.sampleSR()
	}
}

// ---- task pipeline -----------------------------------------------------

func (s *sim) taskArrive(ss *simSession, task trace.Task) {
	if ss.running {
		// IDLT users do not submit concurrent tasks, but platform-induced
		// delays can push a completion past the next trace submission;
		// those tasks queue FCFS within the session.
		ss.queue = append(ss.queue, task)
		return
	}
	ss.running = true
	s.runTask(ss, task, s.now())
}

// runTask makes one attempt of the policy's task path. A task that cannot
// make progress parks on the capacity wait-queue until capacity frees
// anywhere in the federation, keeping the home member's queue-depth gauge
// (a RoutingSnapshot signal) current for the park's whole lifetime.
func (s *sim) runTask(ss *simSession, task trace.Task, submit time.Time) {
	if s.try(ss, task, submit) {
		return
	}
	home := ss.home
	s.qdepth[home]++
	retry := func() bool {
		if !s.try(ss, task, submit) {
			return false
		}
		s.qdepth[home]--
		return true
	}
	if s.cfg.SLOAware {
		s.waitq.WaitClass(ss.src.SLO.Weight(), retry)
	} else {
		s.waitq.Wait(retry)
	}
}

func (s *sim) finishTask(ss *simSession, submit time.Time, interactivity time.Duration) {
	tct := s.now().Sub(submit).Seconds()
	s.res.Interactivity.Add(interactivity.Seconds())
	s.res.TCT.Add(tct)
	if s.res.ClassDelay != nil {
		s.res.ClassDelay[ss.src.SLO.OrDefault()].Add(interactivity.Seconds())
	}
	if s.one != nil {
		s.one.StepLatency[StepE2E].Add(tct)
	}
	s.res.Tasks++
	ss.running = false
	ss.cur = nil
	ss.restarts = 0
	s.startNext(ss)
}

// startNext starts the session's next queued task, if any.
func (s *sim) startNext(ss *simSession) {
	if len(ss.queue) > 0 {
		next := ss.queue[0]
		ss.queue = ss.queue[1:]
		ss.running = true
		s.runTask(ss, next, s.now())
	}
}

// clampTaskReq shapes a task's exclusive-commit request from its session's
// reservation: the task's GPU count (never above the reservation) with
// VRAM sized at 16 GB per GPU.
func clampTaskReq(sessReq resources.Spec, taskGPUs int) resources.Spec {
	r := sessReq
	r.GPUs = taskGPUs
	if r.GPUs > sessReq.GPUs {
		r.GPUs = sessReq.GPUs
	}
	r.VRAMGB = float64(r.GPUs) * 16
	return r
}

// sampleStep records d in the per-step breakdown (Run only) and returns it.
func (s *sim) sampleStep(st Step, d time.Duration) time.Duration {
	if s.one != nil {
		s.one.StepLatency[st].Add(d.Seconds())
	}
	return d
}

// tryReservationTask: GPUs are already bound; the task starts after
// framework overhead only. The pipeline runs as a resvTask state machine
// (one allocation per task): both lead events carry the same Runner, in
// the same order the closure version scheduled them. It always makes
// progress. The Reservation, Batch and LCP paths run only under Run, so
// they record into s.one unconditionally.
func (s *sim) tryReservationTask(ss *simSession, task trace.Task, submit time.Time) bool {
	lat := s.cfg.Latencies
	step1 := s.sampleStep(StepGSProcess, lat.GSProcess(s.rng))
	step5 := s.sampleStep(StepPreProcess, lat.PreProcess(s.rng))
	s.sampleStep(StepElection, 0)
	step7 := s.sampleStep(StepIntermed, lat.Transfer.LoadTime(ss.assig.Model.ParamBytes, task.GPUs))
	hops := lat.Hop(s.rng) + lat.Hop(s.rng)
	delay := step1 + step5 + step7 + hops

	rt := &resvTask{s: s, ss: ss, task: task, submit: submit, delay: delay}
	ss.cur = rt
	s.eng.ScheduleRunner(submit.Add(delay), rt)
	s.eng.ScheduleRunner(submit.Add(delay+task.Duration), rt)
	return true
}

// tryBatchTask: FCFS on-demand provisioning: wait for free GPUs, cold
// start a container, download model+dataset, execute, persist, terminate.
// It reports whether the task is now in flight; the pipeline after commit
// runs as a batchTask state machine (one allocation per task).
func (s *sim) tryBatchTask(ss *simSession, task trace.Task, submit time.Time) bool {
	// A batch job requests the session's full configured resources, the
	// way a slurm submission would, not just the GPUs this task touches.
	req := ss.req
	sh := s.hostWithIdle(ss.home, req)
	if sh == nil {
		return false
	}
	if err := sh.h.Commit(ss.holder, req); err != nil {
		return false
	}
	lat := s.cfg.Latencies
	queueing := s.now().Sub(submit)
	cold := lat.ColdStart(s.rng)
	s.res.ColdStarts++
	fetch := lat.Store.GetLatency(ss.assig.Model.ParamBytes+ss.assig.Dataset.SizeBytes/16, s.rng)
	s.one.ReadLatency.Add(fetch.Seconds())
	step1 := s.sampleStep(StepGSProcess, queueing+cold+lat.GSProcess(s.rng))
	step5 := s.sampleStep(StepPreProcess, lat.PreProcess(s.rng)+fetch)
	s.sampleStep(StepElection, 0)
	step7 := s.sampleStep(StepIntermed, lat.Transfer.LoadTime(ss.assig.Model.ParamBytes, task.GPUs))
	delay := step1 + step5 + step7

	bt := &batchTask{s: s, ss: ss, task: task, submit: submit, sh: sh, delay: delay}
	ss.cur = bt
	s.eng.DeferRunner(delay, bt)
	return true
}

// tryNbosTask attempts one step of the full NotebookOS path and reports
// whether it made progress: immediate commit on a replica host when
// possible, otherwise migration (warm container when available) and
// resubmission.
func (s *sim) tryNbosTask(ss *simSession, task trace.Task, submit time.Time) bool {
	if len(ss.replicas) == 0 {
		return true // rejected session: swallow its tasks
	}
	lat := s.cfg.Latencies
	req := clampTaskReq(ss.req, task.GPUs)
	migrationDelay := s.now().Sub(submit)

	// Prefer the previous executor's host (the paper reuses the same
	// executor for 89.45% of consecutive executions).
	executor := 0
	if ss.lastExecutor > 0 && ss.lastExecutor <= len(ss.replicas) &&
		ss.replicas[ss.lastExecutor-1].sh != nil &&
		ss.replicas[ss.lastExecutor-1].sh.h.CanCommit(req) {
		executor = ss.lastExecutor
	}
	if executor == 0 {
		for i, r := range ss.replicas {
			if r.sh != nil && r.sh.h.CanCommit(req) {
				executor = i + 1
				break
			}
		}
	}
	if executor == 0 {
		return s.tryMigrate(ss, task, submit)
	}
	sh := ss.replicas[executor-1].sh
	if err := sh.h.Commit(ss.holder, req); err != nil {
		return s.tryMigrate(ss, task, submit)
	}
	if migrationDelay == 0 {
		s.res.ImmediateCommits++
		if executor == ss.lastExecutor && s.one != nil {
			s.one.ExecutorReuse++
		}
	}
	ss.lastExecutor = executor
	s.members[sh.member].res.Tasks++

	// A replica living outside the session's home member serves requests
	// across the federation boundary: request and reply each pay one
	// inter-cluster crossing (summed per direction, so asymmetric
	// matrices charge correctly).
	var wan time.Duration
	if sh.member != ss.home {
		wan = s.fed.RoundTrip(ss.home, sh.member)
		s.res.RemoteExecutions++
	}

	step1 := s.sampleStep(StepGSProcess, lat.GSProcess(s.rng))
	step5 := s.sampleStep(StepPreProcess, lat.PreProcess(s.rng))
	step6 := s.sampleStep(StepElection, lat.Election(s.rng))
	step7 := s.sampleStep(StepIntermed, lat.Transfer.LoadTime(ss.assig.Model.ParamBytes, task.GPUs))
	hops := lat.Hop(s.rng) + lat.Hop(s.rng)
	delay := migrationDelay + step1 + step5 + step6 + step7 + hops + wan

	nt := &nbosTask{s: s, ss: ss, task: task, submit: submit, sh: sh, delay: delay}
	ss.cur = nt
	s.eng.ScheduleRunner(submit.Add(delay), nt)
	return true
}

// tryMigrate handles the all-YIELD path (§3.2.3): find a target host
// (members in route-policy order, most-idle host within the first member
// that has one), pay warm/cold container plus checkpoint-restore costs —
// plus two inter-cluster crossings when the replica changes member — swap
// the replica, and resubmit. With no target anywhere it scales out the
// home member (at most one scale-out in flight) and reports false, so the
// caller parks on the shared wait-queue until capacity frees anywhere.
func (s *sim) tryMigrate(ss *simSession, task trace.Task, submit time.Time) bool {
	lat := s.cfg.Latencies
	req := clampTaskReq(ss.req, task.GPUs)

	// The failed election itself costs one election round.
	electionCost := lat.Election(s.rng)

	var target *simHost
	for _, idx := range s.cfg.Route.Order(s.fed, ss.home, &s.route) {
		bestIdle := -1
		for _, sh := range s.members[idx].hosts {
			if hostsContain(ss.replicas, sh) || !sh.h.CanCommit(req) {
				continue
			}
			if idle := sh.h.IdleGPUs(); idle > bestIdle {
				bestIdle = idle
				target = sh
			}
		}
		if target != nil {
			break
		}
	}
	if target == nil {
		// The AddHost notification wakes the shared wait-queue (as does a
		// Release in any member).
		if s.members[ss.home].pendingHosts == 0 {
			s.provisionHosts(ss.home, 1)
		}
		return false
	}

	// Victim: a crash-emptied slot (faults.go) is refilled first;
	// otherwise the replica on the fullest host.
	victim := 0
	worst := math.MaxInt
	for i, r := range ss.replicas {
		if r.sh == nil {
			victim = i
			break
		}
		if idle := r.sh.h.IdleGPUs(); idle < worst {
			worst = idle
			victim = i
		}
	}
	old := ss.replicas[victim].sh
	cross := old != nil && old.member != target.member

	var extra time.Duration
	// Container: pre-warmed if the target has pool capacity, else cold.
	if target.warm > 0 {
		target.warm--
		s.res.WarmStarts++
		extra += lat.WarmAttach(s.rng)
		// Pool replenishes in the background.
		tsh := target
		s.eng.Defer(lat.ColdStart(s.rng), func() { tsh.warm++ })
	} else {
		s.res.ColdStarts++
		extra += lat.ColdStart(s.rng)
	}
	// Persist + restore checkpointed state through the data store; a
	// cross-member move pays the federation boundary in both directions.
	wr := lat.Store.PutLatency(ss.assig.Model.ParamBytes, s.rng)
	rd := lat.Store.GetLatency(ss.assig.Model.ParamBytes, s.rng)
	if s.one != nil {
		s.one.WriteLatency.Add(wr.Seconds())
		s.one.ReadLatency.Add(rd.Seconds())
	}
	extra += wr + rd + electionCost
	if cross {
		extra += s.fed.RoundTrip(old.member, target.member)
	}

	if old != nil {
		_ = old.h.RemoveReplica(ss.replicas[victim].rh)
	}
	rh, _ := target.h.PlaceReplica(ss.req)
	ss.replicas[victim] = replicaRef{sh: target, rh: rh}
	ss.lastExecutor = victim + 1
	s.res.Migrations++
	s.members[target.member].res.MigrationsIn++
	if cross {
		s.res.CrossMigrations++
	}
	s.recordEvent(scheduler.EventMigration)
	s.sampleSR()

	s.eng.Defer(extra, func() {
		s.runTask(ss, task, submit)
	})
	return true
}

// hostsContain reports whether sh is one of the session's replica hosts
// (len <= R, so a linear scan beats building a set).
func hostsContain(replicas []replicaRef, sh *simHost) bool {
	for _, r := range replicas {
		if r.sh == sh {
			return true
		}
	}
	return false
}

// tryLCPTask: take a warm container from the pool (or cold start), warm
// it up by downloading model + dataset (on the critical path, which is
// what stretches LCP's TCT in Fig. 9b), execute, return the container.
// It reports whether the task is now in flight; the pipeline after commit
// runs as an lcpTask state machine (one allocation per task).
func (s *sim) tryLCPTask(ss *simSession, task trace.Task, submit time.Time) bool {
	req := clampTaskReq(ss.req, task.GPUs)
	var target *simHost
	warm := false
	// Prefer hosts with both idle GPUs and a warm container.
	for _, sh := range s.members[ss.home].hosts {
		if !sh.h.CanCommit(req) {
			continue
		}
		if sh.warm > 0 {
			target = sh
			warm = true
			break
		}
		if target == nil {
			target = sh
		}
	}
	if target == nil {
		return false
	}
	if err := target.h.Commit(ss.holder, req); err != nil {
		return false
	}
	lat := s.cfg.Latencies
	var start time.Duration
	if warm {
		target.warm--
		s.res.WarmStarts++
		start = lat.WarmAttach(s.rng)
	} else {
		s.res.ColdStarts++
		start = lat.ColdStart(s.rng)
	}
	queueing := s.now().Sub(submit)
	// Warm-up: fetch model parameters and dataset into the container.
	fetch := lat.Store.GetLatency(ss.assig.Model.ParamBytes+ss.assig.Dataset.SizeBytes/16, s.rng)
	s.one.ReadLatency.Add(fetch.Seconds())
	step1 := s.sampleStep(StepGSProcess, queueing+start+lat.GSProcess(s.rng))
	step5 := s.sampleStep(StepPreProcess, lat.PreProcess(s.rng)+fetch)
	s.sampleStep(StepElection, 0)
	step7 := s.sampleStep(StepIntermed, lat.Transfer.LoadTime(ss.assig.Model.ParamBytes, task.GPUs))
	delay := step1 + step5 + step7

	lt := &lcpTask{s: s, ss: ss, task: task, submit: submit, target: target, delay: delay}
	ss.cur = lt
	s.eng.DeferRunner(delay, lt)
	return true
}

// markTraining steps the executing member's committed-GPU series (and,
// under Run, the active-training count) as a task starts or stops
// training.
func (s *sim) markTraining(member int, task trace.Task, start bool) {
	g, n := float64(task.GPUs), 1.0
	if !start {
		g, n = -g, -1
	}
	s.members[member].res.CommittedGPUs.Delta(s.now(), g)
	if s.one != nil {
		s.one.ActiveTrainings.Delta(s.now(), n)
	}
}

// hostWithIdle returns a host of the member that can commit req right now
// (most idle first), or nil.
func (s *sim) hostWithIdle(member int, req resources.Spec) *simHost {
	var best *simHost
	bestIdle := -1
	for _, sh := range s.members[member].hosts {
		if !sh.h.CanCommit(req) {
			continue
		}
		if idle := sh.h.IdleGPUs(); idle > bestIdle {
			bestIdle = idle
			best = sh
		}
	}
	return best
}

// sampleSR records the subscription ratio of Run's one cluster.
func (s *sim) sampleSR() {
	if s.one != nil {
		s.one.SR.Set(s.now(), s.members[0].c.ClusterSR())
	}
}

// ---- periodic sampling & autoscaling ------------------------------------

func (s *sim) scheduleSampling() {
	var tick func()
	tick = func() {
		s.sampleProvisioned()
		if s.now().Before(s.end) {
			s.eng.DeferLate(s.cfg.SampleEvery, tick)
		}
	}
	s.eng.DeferLate(0, tick)
}

// sampleProvisioned records each member's provisioned-GPU series, whose
// meaning is policy-dependent (Fig. 8): Reservation provisions what
// sessions reserve; Batch provisions what runs; NotebookOS/(LCP)
// provision whole servers.
func (s *sim) sampleProvisioned() {
	at := s.now()
	for _, m := range s.members {
		gpus := m.c.TotalGPUs()
		if !s.provisionsServers() {
			gpus = m.c.CommittedGPUs()
		}
		m.res.ProvisionedGPUs.Set(at, float64(gpus))
	}
	if s.provisionsServers() {
		s.sampleSR()
	}
}

func (s *sim) scheduleAutoscale() {
	var tick func()
	tick = func() {
		if s.autoscaler != nil {
			s.autoscalePooled()
		} else {
			for i := range s.members {
				s.autoscaleMember(i)
			}
		}
		if s.now().Before(s.end) {
			s.eng.DeferLate(s.cfg.AutoscaleInterval, tick)
		}
	}
	s.eng.DeferLate(s.cfg.AutoscaleInterval, tick)
}

// autoscaleMember runs one member's autoscaler evaluation: each member
// scales against its own committed load plus its spare-server buffer
// (federations pool placements, not autoscaling decisions, unless
// FedConfig.PooledAutoscale is set).
func (s *sim) autoscaleMember(idx int) {
	m := s.members[idx]
	gpusPerHost := m.spec.HostCapacity.GPUs
	expected := s.cfg.ScaleFactor*float64(m.c.CommittedGPUs()) + float64(m.buffer*gpusPerHost)
	if s.policy == PolicyLCP {
		// The LCP baseline keeps a large warm-container pool sized to the
		// session population, trading resource cost for interactivity
		// (§5.1.1); reserve roughly one GPU of capacity per live session.
		expected += 0.75 * s.res.ActiveSessions.Last()
	}
	total := m.c.TotalGPUs() + m.pendingHosts*gpusPerHost

	if float64(total) < expected {
		need := int(math.Ceil((expected - float64(total)) / float64(gpusPerHost)))
		s.provisionHosts(idx, need)
		return
	}
	// Scale in: release up to 2 empty servers (no replicas, nothing
	// committed) while above the floor, first-joined first. The member's
	// O(1) empty-host count skips the scan when no host is retirable and
	// ends it once none is left.
	if float64(total)-float64(gpusPerHost) > expected && len(m.hosts) > m.spec.MinHosts && m.c.EmptyHosts() > 0 {
		released := 0
		for i := 0; i < len(m.hosts); {
			if released >= 2 || len(m.hosts) <= m.spec.MinHosts || m.c.EmptyHosts() == 0 {
				break
			}
			removed := s.removeHostIfEmpty(m, i)
			if removed {
				released++
			}
			if float64(m.c.TotalGPUs())-float64(gpusPerHost) <= expected {
				break
			}
			if !removed {
				i++
			}
		}
		s.noteScaleIn(m, released)
	}
}

// noteScaleIn counts a scale-in that released hosts and resamples the
// provisioned series.
func (s *sim) noteScaleIn(m *simMember, released int) {
	if released == 0 {
		return
	}
	s.res.ScaleIns++
	m.res.ScaleIns++
	s.recordEvent(scheduler.EventScaleIn)
	s.sampleProvisioned()
}

// provisionHosts starts a scale-out of need hosts toward member idx: they
// count as pending (toward autoscaler capacity) immediately and land
// after one HostProvision draw.
func (s *sim) provisionHosts(idx, need int) {
	provision := s.cfg.Latencies.HostProvision(s.rng)
	m := s.members[idx]
	m.pendingHosts += need
	s.res.ScaleOuts++
	m.res.ScaleOuts++
	s.recordEvent(scheduler.EventScaleOut)
	s.eng.Defer(provision, func() {
		for i := 0; i < need; i++ {
			s.addHost(idx)
		}
		m.pendingHosts -= need
		s.sampleProvisioned()
	})
}

// removeHostIfEmpty retires m.hosts[i] when it is empty, unwiring it from
// the member and the host index; reports whether it was removed. Both
// autoscaling modes retire through this so the emptiness predicate and
// the bookkeeping cannot drift apart.
func (s *sim) removeHostIfEmpty(m *simMember, i int) bool {
	sh := m.hosts[i]
	if !sh.h.Empty() {
		return false
	}
	if err := m.c.RemoveHost(sh.h.ID); err != nil {
		return false
	}
	m.hosts = append(m.hosts[:i], m.hosts[i+1:]...)
	delete(s.byHost, sh.h)
	s.noteHosts(-1)
	return true
}
