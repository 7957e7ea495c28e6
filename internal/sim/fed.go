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

// FedClusterSpec sizes one member cluster of a federated simulation.
// Members may differ in host count and host shape (heterogeneous
// federations are the expected case).
type FedClusterSpec struct {
	// Name labels the cluster in results ("c0", "us-west", ...).
	Name string
	// Hosts is the initial server count.
	Hosts int
	// HostCapacity is the per-server shape (defaults to p3.16xlarge).
	HostCapacity resources.Spec
	// MinHosts floors per-member scale-in. It defaults to Hosts/4 clamped
	// through scheduler.MinHostsFloor to at least R (capped at Hosts):
	// per-member scale-in must never leave the cluster unable to host one
	// kernel's R replicas, or it becomes permanently unplaceable. Ignored
	// under PooledAutoscale, which replaces the per-member floors with one
	// federation-wide floor plus a placement anchor.
	MinHosts int
}

// DefaultFedClusters splits a total host budget across n clusters with
// deliberately heterogeneous sizes (a descending ramp: the first cluster
// is the largest), all p3.16xlarge-shaped. Every cluster gets at least
// one host; subject to that floor the total host count is exactly
// max(totalHosts, n) for every n, so cluster-count sweeps compare equal
// capacity.
func DefaultFedClusters(n, totalHosts int) []FedClusterSpec {
	if n <= 0 {
		n = 1
	}
	if totalHosts < n {
		totalHosts = n
	}
	weightSum := n * (n + 1) / 2
	specs := make([]FedClusterSpec, n)
	assigned := 0
	for i := 0; i < n; i++ {
		h := totalHosts * (n - i) / weightSum
		if h < 1 {
			h = 1
		}
		specs[i] = FedClusterSpec{Name: fmt.Sprintf("c%d", i), Hosts: h}
		assigned += h
	}
	// Hand any rounding shortfall to the largest cluster. If clamping
	// overshot the budget and drove c0 below one host, rebalance from the
	// other clusters, never taking any below one host.
	specs[0].Hosts += totalHosts - assigned
	for i := 1; i < n && specs[0].Hosts < 1; i++ {
		if specs[i].Hosts > 1 {
			take := specs[i].Hosts - 1
			if need := 1 - specs[0].Hosts; take > need {
				take = need
			}
			specs[i].Hosts -= take
			specs[0].Hosts += take
		}
	}
	if specs[0].Hosts < 1 {
		specs[0].Hosts = 1
	}
	return specs
}

// NoInterClusterPenalty selects an explicitly free cluster crossing in
// FedConfig.InterClusterPenalty (whose zero value means "default").
const NoInterClusterPenalty time.Duration = -1

// FedConfig parameterizes one federated simulation run. The simulated
// policy is always NotebookOS (federation exists to re-commit
// idle-reclaimed GPUs wherever capacity exists; the Reservation and Batch
// baselines have nothing to route).
type FedConfig struct {
	// Trace is the shared arrival stream; sessions are assigned home
	// clusters round-robin in trace order. Exactly one of Trace and Source
	// must be set.
	Trace *trace.Trace
	// Source is a lazily-iterated session stream used in place of Trace
	// (see Config.Source): sessions are admitted as virtual time reaches
	// them, keeping memory bounded by concurrency rather than trace size.
	Source trace.Source
	// LeanMetrics bounds the result's memory by the simulated window (see
	// Config.LeanMetrics): coalesced timelines, reservoir samples.
	LeanMetrics bool
	// LeanSampleCap is the per-distribution reservoir size under
	// LeanMetrics (default 4096).
	LeanSampleCap int
	// Clusters are the member clusters (default: two 15-host clusters).
	Clusters []FedClusterSpec
	// Route ranks clusters for placements and migrations (default
	// federation.LocalFirst).
	Route federation.RoutePolicy
	// InterClusterPenalty is the one-way latency between any two distinct
	// clusters (default 25 ms; pass NoInterClusterPenalty for an explicit
	// zero — the zero value means "use the default", as elsewhere in this
	// package's configs). Remote executions pay two crossings per
	// request/reply; cross-cluster migrations pay two crossings for the
	// checkpoint transfer. Ignored when Latency is set.
	InterClusterPenalty time.Duration
	// Latency is a per-pair inter-cluster latency matrix (see
	// federation.UniformMatrix / HubSpokeMatrix / GeoBandedMatrix). When
	// set it replaces InterClusterPenalty: every crossing — remote
	// execution request/reply, cross-cluster checkpoint transfer, and the
	// LatencyAware route policy's cost term — pays the actual pair cost.
	// Its size must equal the cluster count.
	Latency federation.LatencyMatrix
	// PooledAutoscale switches autoscaling from one evaluation per member
	// (each scaling on its own committed load, pinned at its own MinHosts
	// floor) to one federation.FederatedAutoscaler decision per interval:
	// federation-wide expected capacity, ScalePolicy-chosen target member,
	// and a single federation-wide floor so small members can drain to
	// near-zero.
	PooledAutoscale bool
	// FedMinHosts is the federation-wide scale-in floor under
	// PooledAutoscale, clamped through scheduler.MinHostsFloor to at least
	// R. It defaults to a quarter of the initial federation-wide host
	// count — the same floor rule a single cluster uses, applied once to
	// the whole federation instead of once per member, so the floor stays
	// flat as the cluster count grows. A bare R-host floor is legal but
	// causes drain/re-provision churn at low cluster counts.
	FedMinHosts int
	// ScalePolicy picks the member each pooled decision lands on (default
	// federation.GreedyScalePolicy).
	ScalePolicy federation.ScalePolicy
	// ReplicasPerKernel is R (default 3). A session's replicas are placed
	// within a single cluster at creation; migration may later move a
	// replica to another cluster.
	ReplicasPerKernel int
	// PrewarmPerHost sizes each host's warm-container pool (default 1).
	PrewarmPerHost int
	// SRHighWatermark caps per-host subscription (default 3.0).
	SRHighWatermark float64
	// ScaleFactor is each member's autoscaler factor f (default 1.05).
	ScaleFactor float64
	// AutoscaleInterval is the per-member autoscaler period (default 60s).
	AutoscaleInterval time.Duration
	// Latencies are the protocol latency models.
	Latencies Latencies
	// SLOAware switches the capacity wait-queue from strict FIFO to
	// SLO-class-weighted priority order: parked tasks retry by
	// waited×class-weight (trace.SLOClass.Weight — interactive 4, batch 2,
	// best-effort 1), FIFO within a class, with waiters parked longer than
	// SLOAgingBound promoted ahead of everything so best-effort cannot
	// starve. Off by default — the FIFO path replays byte-identically.
	// Per-class queue-delay samples land in FedResult.ClassDelay.
	SLOAware bool
	// SLOAgingBound is the priority queue's starvation-freedom bound
	// (default 30 min; only meaningful with SLOAware).
	SLOAgingBound time.Duration
	// Seed drives all randomness.
	Seed int64
	// SampleEvery is the metrics sampling period (default 5 min).
	SampleEvery time.Duration
	// ShardCapacity selects how the sharded federated runners treat member
	// capacity (RunFederated itself ignores it): LegacySplit (the zero
	// value) keeps the static proportional split, LeasePool does not split,
	// so the sharded runners return RunFederated's result. See
	// RunFederatedSharded and docs/SHARDING.md.
	ShardCapacity ShardCapacity
	// Faults declares the deterministic fault model (see Config.Faults):
	// per-host crash/recover churn, outage windows — scopable to one
	// member by name — and network-degradation episodes that scale every
	// inter-cluster penalty for their window. Nil or empty means a
	// failure-free world and leaves the run byte-identical.
	Faults *trace.FaultSpec
}

func (c *FedConfig) withDefaults() error {
	if c.Trace == nil && c.Source == nil {
		return fmt.Errorf("sim: federated config requires Trace or Source")
	}
	if c.Trace != nil && c.Source != nil {
		return fmt.Errorf("sim: federated config requires exactly one of Trace and Source")
	}
	if c.LeanMetrics && c.LeanSampleCap <= 0 {
		c.LeanSampleCap = 4096
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if len(c.Clusters) == 0 {
		c.Clusters = DefaultFedClusters(2, 30)
	} else {
		// Defaults are filled in place below; copy the slice so a caller's
		// spec slice shared across (possibly concurrent) runs is never
		// mutated.
		c.Clusters = append([]FedClusterSpec(nil), c.Clusters...)
	}
	if c.ReplicasPerKernel <= 0 {
		c.ReplicasPerKernel = 3
	}
	for i := range c.Clusters {
		spec := &c.Clusters[i]
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("c%d", i)
		}
		if spec.Hosts <= 0 {
			spec.Hosts = 15
		}
		if spec.HostCapacity.IsZero() {
			spec.HostCapacity = resources.P316xlarge()
		}
		if spec.MinHosts <= 0 {
			// Per-member scale-in must never leave a cluster unable to host
			// one kernel's R replicas (the clamp rule lives in
			// scheduler.MinHostsFloor).
			spec.MinHosts = scheduler.MinHostsFloor(spec.Hosts/4, c.ReplicasPerKernel)
			if spec.MinHosts > spec.Hosts {
				spec.MinHosts = spec.Hosts
			}
		}
	}
	if c.Latency != nil {
		if err := c.Latency.Validate(); err != nil {
			return err
		}
		if c.Latency.Size() != len(c.Clusters) {
			return fmt.Errorf("sim: latency matrix covers %d members, federation has %d clusters",
				c.Latency.Size(), len(c.Clusters))
		}
	}
	if c.FedMinHosts <= 0 {
		total := 0
		for _, spec := range c.Clusters {
			total += spec.Hosts
		}
		c.FedMinHosts = scheduler.MinHostsFloor(total/4, c.ReplicasPerKernel)
	}
	if c.Route == nil {
		c.Route = federation.LocalFirst{}
	}
	if c.ScalePolicy == nil {
		c.ScalePolicy = federation.GreedyScalePolicy{}
	}
	if c.InterClusterPenalty < 0 {
		c.InterClusterPenalty = 0
	} else if c.InterClusterPenalty == 0 {
		c.InterClusterPenalty = 25 * time.Millisecond
	}
	if c.PrewarmPerHost <= 0 {
		c.PrewarmPerHost = 1
	}
	if c.SRHighWatermark <= 0 {
		c.SRHighWatermark = scheduler.DefaultSRHighWatermark
	}
	if c.ScaleFactor <= 0 {
		c.ScaleFactor = 1.05
	}
	if c.AutoscaleInterval <= 0 {
		c.AutoscaleInterval = time.Minute
	}
	if c.Latencies.GSProcess == nil {
		c.Latencies = DefaultLatencies()
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 5 * time.Minute
	}
	if c.SLOAware && c.SLOAgingBound <= 0 {
		c.SLOAgingBound = defaultAgingBound
	}
	return nil
}

// FedClusterResult is one member cluster's share of a federated run.
type FedClusterResult struct {
	Name string
	// ProvisionedGPUs and CommittedGPUs are this member's series; the
	// federation-wide series in FedResult are their merge.
	ProvisionedGPUs *metrics.Timeline
	CommittedGPUs   *metrics.Timeline
	// HomeSessions counts sessions homed at this cluster; PlacedSessions
	// counts sessions whose kernel was created here (they differ when the
	// route policy spills placements to other clusters).
	HomeSessions   int
	PlacedSessions int
	// Tasks counts task executions that committed GPUs on this cluster.
	Tasks int
	// MigrationsIn counts replicas migrated onto this cluster.
	MigrationsIn int
	ScaleOuts    int
	ScaleIns     int
	// FinalHosts is the member's live host count when the run ended —
	// under pooled autoscaling small members drain here toward zero, while
	// per-member scaling pins each at its own MinHosts floor.
	FinalHosts int
}

// FedResult carries the outcome of a federated simulation: per-cluster
// series plus federation-wide merges and counters.
type FedResult struct {
	Clusters []*FedClusterResult

	// Merged federation-wide series (pointwise sums of the per-cluster
	// series; Integral equals the sum of per-cluster Integrals).
	ProvisionedGPUs *metrics.Timeline
	CommittedGPUs   *metrics.Timeline
	ActiveSessions  *metrics.Timeline

	// Distributions.
	Interactivity *metrics.Sample // seconds
	TCT           *metrics.Sample // seconds
	// ClassDelay is the per-SLO-class queue-delay distribution (the same
	// interactivity delay, split by each task's session class with the
	// unclassified zero value folded into batch). Nil unless the run was
	// SLOAware; iterate trace.SLOClasses() for a deterministic order.
	ClassDelay map[trace.SLOClass]*metrics.Sample // seconds

	// Counters.
	Tasks            int
	ImmediateCommits int
	LocalPlacements  int // sessions placed on their home cluster
	RemotePlacements int // sessions spilled to another cluster
	RemoteExecutions int // tasks executed on a non-home-cluster replica
	Migrations       int
	CrossMigrations  int // migrations that changed cluster
	ScaleOuts        int
	ScaleIns         int
	ColdStarts       int
	WarmStarts       int

	// Integrated hours over the trace window.
	ActiveGPUHours      float64
	ProvisionedGPUHours float64
	ReservedGPUHours    float64

	// Fault-injection outcomes (see Result's matching block and
	// docs/FAULTS.md). All zero — and the two recorders nil — unless
	// FedConfig.Faults is enabled.
	HostCrashes    int
	HostRecoveries int
	Failovers      int
	TaskRestarts   int
	Abandonments   int
	LostGPUHours   float64
	// Availability tracks the federation-wide live host count as a delta
	// timeline; its integral over any window is the fleet's up-host-hours.
	Availability *metrics.Timeline
	// RecoveryTime samples every recovery charge paid: failover elections
	// and checkpoint-restore restart penalties, in seconds.
	RecoveryTime *metrics.Sample
}

// GPUHoursSaved returns the headline federation saving: reserved GPU-hours
// (what the Reservation baseline would bind) minus provisioned GPU-hours.
func (r *FedResult) GPUHoursSaved() float64 {
	return r.ReservedGPUHours - r.ProvisionedGPUHours
}

// FinalHosts returns the federation-wide live host count when the run
// ended (the sum of the per-cluster FinalHosts).
func (r *FedResult) FinalHosts() int {
	n := 0
	for _, c := range r.Clusters {
		n += c.FinalHosts
	}
	return n
}

// fedHost pairs a member host with its cluster index and warm-pool count.
type fedHost struct {
	h      *cluster.Host
	member int
	warm   int
}

// fedMember is one member cluster's mutable simulation state.
type fedMember struct {
	spec    FedClusterSpec
	c       *cluster.Cluster
	hosts   []*fedHost
	res     *FedClusterResult
	hostSeq int
	// pendingHosts counts servers being provisioned for this member.
	pendingHosts int
}

// fedSession is the per-session federated simulation state.
type fedSession struct {
	src   *trace.Session
	req   resources.Spec
	assig workload.Assignment
	home  int

	// holder is the session's exclusive-commit key ("fed/<id>"), built once;
	// task serialization (running + FCFS queue) guarantees at most one
	// outstanding commitment per session, see simSession.holder.
	holder       string
	hosts        []*fedHost
	rkeys        []string
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

func (ss *fedSession) replicaKeyFor(i int) string {
	if len(ss.rkeys) < i {
		ss.rkeys = extendReplicaKeys(ss.rkeys, ss.src.ID, i)
	}
	return ss.rkeys[i-1]
}

// fedSim is the mutable federated simulation state.
type fedSim struct {
	cfg       FedConfig
	eng       *des.Engine
	rng       *rand.Rand
	fed       *federation.Federation
	members   []*fedMember
	placement scheduler.LeastLoaded
	// byHost resolves the hosts returned by the placement policy back to
	// their fedHost wrappers (warm counts, member index).
	byHost map[*cluster.Host]*fedHost
	// waitq parks tasks blocked on capacity anywhere in the federation;
	// it is woken by any member's Release/AddHost via the federation's
	// capacity-notification fan-in.
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

	// Fault-injection state (see faults.go), live only when cfg.Faults is
	// enabled; mirrors sim's matching fields.
	faultsOn      bool
	frng          *rand.Rand
	faultSessions []*fedSession

	// Streaming state (see Config.Source and sim's matching fields).
	start, end time.Time
	streaming  bool
	wr         *rand.Rand
	// homeSeq counts admitted sessions for round-robin home assignment.
	homeSeq  int
	pull     func() (*trace.Session, bool)
	stopPull func()
	srcErr   error
	// inputErr records a session no member can hold (see reject).
	inputErr error
	// reserved integrates reserved GPUs online when streaming.
	reserved gpuHoursAcc
}

// RunFederated executes a federated simulation and returns its result.
// Determinism matches Run: a fixed config replays bit-for-bit.
func RunFederated(cfg FedConfig) (*FedResult, error) {
	s, err := newFedSim(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.eng.RunUntil(s.end.Add(24 * time.Hour))
	return s.finish()
}

// newFedSim builds a ready-to-run federated simulation (see newSim):
// members and hosts in place, events scheduled, ticks armed. Callers
// drive the engine and collect the result with finish; pair with close.
func newFedSim(cfg FedConfig) (*fedSim, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	src := cfg.Source
	if src == nil {
		src = cfg.Trace.AsSource()
	}
	start, end := src.Window()
	eng := des.New(start)
	s := &fedSim{
		cfg:       cfg,
		eng:       eng,
		rng:       rand.New(rand.NewSource(cfg.Seed + 1)),
		fed:       federation.New(cfg.InterClusterPenalty),
		placement: scheduler.LeastLoaded{SRHighWatermark: cfg.SRHighWatermark},
		byHost:    map[*cluster.Host]*fedHost{},
		waitq:     newCapacityWaitQueue(eng),
		start:     start,
		end:       end,
		streaming: cfg.Source != nil,
		wr:        rand.New(rand.NewSource(cfg.Seed + 2)),
	}
	s.reserved.lastNS = start.UnixNano()
	// Lean mode swaps the unbounded recorders for window-bounded ones (see
	// Run): coalesced timelines, seeded reservoir samples.
	newTL := metrics.NewTimeline
	if cfg.LeanMetrics {
		newTL = func() *metrics.Timeline { return metrics.NewCoalescedTimeline(cfg.SampleEvery) }
	}
	sampleSeq := cfg.Seed + 1000
	newSample := func() *metrics.Sample {
		sm := metrics.NewSample()
		if cfg.LeanMetrics {
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
		m := &fedMember{
			spec: spec,
			c:    c,
			res: &FedClusterResult{
				Name:            spec.Name,
				ProvisionedGPUs: newTL(),
				CommittedGPUs:   newTL(),
			},
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
	// Any member's capacity-freeing transition wakes the shared queue.
	s.fed.SetCapacityNotifier(s.waitq.Notify)
	// Routing snapshots read the scheduler-level signals through this
	// callback: parked-waiter depth by home member, and the retirable
	// (empty) host count a scale-in could reclaim. Only Snapshot-building
	// policies (ScoredPolicy) invoke it; the closed-form trio pays nothing.
	s.fed.SetSnapshotExtras(func(member int) (int, int) {
		return s.qdepth[member], s.members[member].c.EmptyHosts()
	})

	// Pre-size metric columns from the source's expectation (see Run): for
	// a materialized trace the federation-wide series get exact hints;
	// per-member delta series split the task total evenly — an estimate, so
	// a hot member may still grow, but the bulk of the column is allocated
	// once. Lean recorders bound themselves and skip the hints.
	exp := src.Expect()
	sessions, numTasks := exp.Sessions, exp.Tasks
	ticks := int(end.Sub(start)/cfg.SampleEvery) + 2
	if !cfg.LeanMetrics {
		s.res.ActiveSessions.Grow(2 * sessions)
		s.res.Interactivity.Grow(numTasks)
		s.res.TCT.Grow(numTasks)
		for _, m := range s.members {
			m.res.ProvisionedGPUs.Grow(ticks + 64)
			m.res.CommittedGPUs.Grow(2*numTasks/len(s.members) + 16)
		}
	}

	if s.streaming {
		// Lazy admission (see the single-cluster injector): one event pulls
		// session after session, so pending events track concurrency.
		next, stop := iter.Pull(func(yield func(*trace.Session) bool) {
			s.srcErr = src.Sessions(yield)
		})
		s.stopPull = stop
		s.pull = next
		if first, ok := next(); ok {
			s.eng.ScheduleRunner(first.Start, &fedInjector{s: s, sess: first})
		}
	} else {
		s.eng.Reserve(2*sessions + numTasks + 16)
		for i, sess := range cfg.Trace.Sessions {
			if err := s.fitsSomeMember(sess); err != nil {
				return nil, err
			}
			sess := sess
			ss := &fedSession{
				src:    sess,
				req:    sess.Request,
				assig:  workload.Assign(s.wr),
				home:   i % len(s.members),
				holder: "fed/" + sess.ID,
			}
			s.members[ss.home].res.HomeSessions++
			s.eng.Schedule(sess.Start, func() { s.sessionStart(ss) })
			s.eng.Schedule(sess.End, func() { s.sessionEnd(ss) })
			for _, task := range sess.Tasks {
				task := task
				s.eng.Schedule(task.Submit, func() { s.taskArrive(ss, task) })
			}
		}
	}

	s.scheduleSampling()
	s.scheduleAutoscale()
	return s, nil
}

// close releases the streaming source's iterator; safe to call twice.
func (s *fedSim) close() {
	if s.stopPull != nil {
		s.stopPull()
		s.stopPull = nil
	}
}

// finish surfaces a streaming-source error and computes the merged series
// and integrated hours. Call once, after the engine has run past the
// window's end.
func (s *fedSim) finish() (*FedResult, error) {
	if s.inputErr != nil {
		return nil, s.inputErr
	}
	if s.srcErr != nil {
		return nil, s.srcErr
	}
	s.finalize()
	return s.res, nil
}

func (s *fedSim) now() time.Time { return s.eng.Now() }

// fitsSomeMember rejects a session whose request exceeds one host of
// every member: no member can ever place it (see sim.fitsHost). A session
// that fits only other members' hosts is admitted; placeSession tries
// every member, and sessionStart fails the run if none can take it.
func (s *fedSim) fitsSomeMember(sess *trace.Session) error {
	caps := make([]string, len(s.members))
	for i, m := range s.members {
		if sess.Request.Fits(m.spec.HostCapacity) {
			return nil
		}
		caps[i] = fmt.Sprintf("%v (%s)", m.spec.HostCapacity, m.spec.Name)
	}
	return fmt.Errorf("sim: session %s requests %v, more than the host capacity of every cluster: %s",
		sess.ID, sess.Request, strings.Join(caps, ", "))
}

// reject records a session's input error and ends the run, as
// sim.rejectStream does: nothing more is admitted, and finish returns
// the error.
func (s *fedSim) reject(err error) {
	s.inputErr = err
	s.eng.Stop()
}

func (s *fedSim) addHost(member int) *fedHost {
	m := s.members[member]
	m.hostSeq++
	h := cluster.NewHost(fmt.Sprintf("%s-h%04d", m.spec.Name, m.hostSeq), m.spec.HostCapacity)
	if err := m.c.AddHost(h); err != nil {
		panic(err)
	}
	fh := &fedHost{h: h, member: member, warm: s.cfg.PrewarmPerHost}
	m.hosts = append(m.hosts, fh)
	s.byHost[h] = fh
	if s.faultsOn {
		s.armHostFaults(fh, m.hostSeq)
	}
	return fh
}

// ---- session lifecycle -------------------------------------------------

// placeSession places the session's R replicas within a single cluster,
// trying clusters in route-policy order.
func (s *fedSim) placeSession(ss *fedSession) bool {
	for _, idx := range s.cfg.Route.Order(s.fed, ss.home, &s.route) {
		m := s.members[idx]
		hosts, err := s.placement.SelectHosts(m.c, ss.req, s.cfg.ReplicasPerKernel)
		if err != nil {
			continue
		}
		ss.hosts = make([]*fedHost, len(hosts))
		for i, h := range hosts {
			_ = h.PlaceReplica(ss.replicaKeyFor(i+1), ss.req)
			ss.hosts[i] = s.byHost[h]
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

func (s *fedSim) sessionStart(ss *fedSession) {
	if s.faultsOn {
		s.faultSessions = append(s.faultSessions, ss)
	}
	s.res.ActiveSessions.Delta(s.now(), 1)
	s.reserved.bump(s.now().UnixNano(), float64(ss.req.GPUs))
	if s.placeSession(ss) {
		return
	}
	// No cluster can place the kernel: scale out the home cluster
	// synchronously (as in the single-cluster simulator, the provisioning
	// delay is charged to session creation, not to any task).
	for i := 0; i < s.cfg.ReplicasPerKernel; i++ {
		s.addHost(ss.home)
	}
	s.res.ScaleOuts++
	s.members[ss.home].res.ScaleOuts++
	if !s.placeSession(ss) {
		// Only a session larger than the home member's hosts gets here:
		// it fits some other member's hosts, but none has room for it.
		ss.hosts = nil
		m := s.members[ss.home]
		s.reject(fmt.Errorf("sim: session %s requests %v, more than the host capacity %v of its home cluster %s, and no other cluster has room for it",
			ss.src.ID, ss.req, m.spec.HostCapacity, m.spec.Name))
	}
}

func (s *fedSim) sessionEnd(ss *fedSession) {
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
	for i, fh := range ss.hosts {
		if fh == nil {
			continue // crash-emptied slot (faults.go)
		}
		_ = fh.h.RemoveReplica(ss.replicaKeyFor(i + 1))
	}
}

// ---- task pipeline -----------------------------------------------------

func (s *fedSim) taskArrive(ss *fedSession, task trace.Task) {
	if ss.running {
		ss.queue = append(ss.queue, task)
		return
	}
	ss.running = true
	s.runTask(ss, task, s.now())
}

func (s *fedSim) runTask(ss *fedSession, task trace.Task, submit time.Time) {
	if s.tryTask(ss, task, submit) {
		return
	}
	// Park until capacity frees anywhere in the federation, keeping the
	// home member's queue-depth gauge (a RoutingSnapshot signal) current
	// for the park's whole lifetime.
	home := ss.home
	s.qdepth[home]++
	retry := func() bool {
		if !s.tryTask(ss, task, submit) {
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

func (s *fedSim) finishTask(ss *fedSession, submit time.Time, interactivity time.Duration) {
	s.res.Interactivity.Add(interactivity.Seconds())
	s.res.TCT.Add(s.now().Sub(submit).Seconds())
	if s.res.ClassDelay != nil {
		s.res.ClassDelay[ss.src.SLO.OrDefault()].Add(interactivity.Seconds())
	}
	s.res.Tasks++
	ss.running = false
	ss.cur = nil
	ss.restarts = 0
	if len(ss.queue) > 0 {
		next := ss.queue[0]
		ss.queue = ss.queue[1:]
		ss.running = true
		s.runTask(ss, next, s.now())
	}
}

func (s *fedSim) fedTaskReq(ss *fedSession, task trace.Task) resources.Spec {
	return clampTaskReq(ss.req, task.GPUs)
}

// tryTask attempts one commit-or-migrate step (the NotebookOS task path
// generalized across clusters) and reports whether it made progress.
func (s *fedSim) tryTask(ss *fedSession, task trace.Task, submit time.Time) bool {
	if len(ss.hosts) == 0 {
		return true // dropped session: swallow its tasks
	}
	lat := s.cfg.Latencies
	req := s.fedTaskReq(ss, task)
	migrationDelay := s.now().Sub(submit)

	executor := 0
	if ss.lastExecutor > 0 && ss.lastExecutor <= len(ss.hosts) &&
		ss.hosts[ss.lastExecutor-1] != nil &&
		ss.hosts[ss.lastExecutor-1].h.CanCommit(req) {
		executor = ss.lastExecutor
	}
	if executor == 0 {
		for i, fh := range ss.hosts {
			if fh != nil && fh.h.CanCommit(req) {
				executor = i + 1
				break
			}
		}
	}
	if executor == 0 {
		return s.tryFedMigrate(ss, task, submit)
	}
	fh := ss.hosts[executor-1]
	holder := ss.holder
	if err := fh.h.Commit(holder, req); err != nil {
		return s.tryFedMigrate(ss, task, submit)
	}
	if migrationDelay == 0 {
		s.res.ImmediateCommits++
	}
	ss.lastExecutor = executor
	s.members[fh.member].res.Tasks++

	// A replica living outside the session's home cluster serves requests
	// across the federation boundary: request and reply each pay one
	// inter-cluster crossing (summed per direction, so asymmetric
	// matrices charge correctly).
	var wan time.Duration
	if fh.member != ss.home {
		wan = s.fed.RoundTrip(ss.home, fh.member)
		s.res.RemoteExecutions++
	}

	delay := migrationDelay +
		lat.GSProcess(s.rng) +
		lat.PreProcess(s.rng) +
		lat.Election(s.rng) +
		lat.Transfer.LoadTime(ss.assig.Model.ParamBytes, task.GPUs) +
		lat.Hop(s.rng) + lat.Hop(s.rng) +
		wan

	// The pipeline runs as a fedTask state machine: one allocation per
	// task, re-scheduled phase after phase through pooled Runner events.
	ft := &fedTask{s: s, ss: ss, task: task, submit: submit, fh: fh, delay: delay}
	ss.cur = ft
	s.eng.ScheduleRunner(submit.Add(delay), ft)
	return true
}

// tryFedMigrate handles the all-YIELD path across the federation: find a
// target host anywhere (clusters in route-policy order, most-idle host
// within the chosen cluster), pay container plus checkpoint-restore costs
// — plus two inter-cluster crossings when the replica changes cluster —
// swap the replica, and resubmit. With no target anywhere, one scale-out
// of the home cluster is triggered and the caller parks on the shared
// wait-queue until *any* cluster frees capacity.
func (s *fedSim) tryFedMigrate(ss *fedSession, task trace.Task, submit time.Time) bool {
	lat := s.cfg.Latencies
	req := s.fedTaskReq(ss, task)

	// The failed election itself costs one election round.
	electionCost := lat.Election(s.rng)

	var target *fedHost
	for _, idx := range s.cfg.Route.Order(s.fed, ss.home, &s.route) {
		bestIdle := -1
		for _, fh := range s.members[idx].hosts {
			if fedHostsContain(ss.hosts, fh) || !fh.h.CanCommit(req) {
				continue
			}
			if idle := fh.h.IdleGPUs(); idle > bestIdle {
				bestIdle = idle
				target = fh
			}
		}
		if target != nil {
			break
		}
	}
	if target == nil {
		// Scale out the home cluster; the AddHost notification wakes the
		// shared wait-queue (as does a Release in any other cluster).
		if s.members[ss.home].pendingHosts == 0 {
			s.provisionHosts(ss.home, 1)
		}
		return false
	}

	// Victim: a crash-emptied slot (faults.go) is refilled first;
	// otherwise the replica on the fullest host.
	victim := 0
	worst := math.MaxInt
	for i, fh := range ss.hosts {
		if fh == nil {
			victim = i
			break
		}
		if idle := fh.h.IdleGPUs(); idle < worst {
			worst = idle
			victim = i
		}
	}
	old := ss.hosts[victim]
	cross := old != nil && old.member != target.member

	var extra time.Duration
	if target.warm > 0 {
		target.warm--
		s.res.WarmStarts++
		extra += lat.WarmAttach(s.rng)
		tfh := target
		s.eng.Defer(lat.ColdStart(s.rng), func() { tfh.warm++ })
	} else {
		s.res.ColdStarts++
		extra += lat.ColdStart(s.rng)
	}
	// Persist + restore checkpointed state through the data store; a
	// cross-cluster move pays the federation boundary in both directions.
	wrLat := lat.Store.PutLatency(ss.assig.Model.ParamBytes, s.rng)
	rdLat := lat.Store.GetLatency(ss.assig.Model.ParamBytes, s.rng)
	extra += wrLat + rdLat + electionCost
	if cross {
		extra += s.fed.RoundTrip(old.member, target.member)
	}

	key := ss.replicaKeyFor(victim + 1)
	if old != nil {
		_ = old.h.RemoveReplica(key)
	}
	_ = target.h.PlaceReplica(key, ss.req)
	ss.hosts[victim] = target
	ss.lastExecutor = victim + 1
	s.res.Migrations++
	s.members[target.member].res.MigrationsIn++
	if cross {
		s.res.CrossMigrations++
	}

	s.eng.Defer(extra, func() {
		s.runTask(ss, task, submit)
	})
	return true
}

// fedHostsContain reports whether fh is one of the session's replica hosts.
func fedHostsContain(hosts []*fedHost, fh *fedHost) bool {
	for _, x := range hosts {
		if x == fh {
			return true
		}
	}
	return false
}

func (s *fedSim) markTraining(member int, task trace.Task, start bool) {
	g := float64(task.GPUs)
	if !start {
		g = -g
	}
	s.members[member].res.CommittedGPUs.Delta(s.now(), g)
}

// ---- periodic sampling & autoscaling ------------------------------------

func (s *fedSim) scheduleSampling() {
	var tick func()
	tick = func() {
		s.sampleProvisioned()
		if s.now().Before(s.end) {
			s.eng.DeferLate(s.cfg.SampleEvery, tick)
		}
	}
	s.eng.DeferLate(0, tick)
}

func (s *fedSim) sampleProvisioned() {
	at := s.now()
	for _, m := range s.members {
		m.res.ProvisionedGPUs.Set(at, float64(m.c.TotalGPUs()))
	}
}

func (s *fedSim) scheduleAutoscale() {
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

// autoscalePooled runs one pooled evaluation: snapshot every member's O(1)
// counters, let the FederatedAutoscaler make the single federation-wide
// decision, and execute it — provision hosts on the chosen member after
// the provisioning latency, or retire up to the decided number of empty
// hosts from it. Per-member MinHosts floors do not apply here; the
// autoscaler enforces the federation-wide floor and the placement anchor
// (some member always keeps R hosts).
func (s *fedSim) autoscalePooled() {
	if s.loads == nil {
		s.loads = make([]federation.MemberLoad, len(s.members))
	}
	loads := s.loads
	for i, m := range s.members {
		l := federation.MemberLoad{
			Hosts:          m.c.NumHosts(),
			PendingHosts:   m.pendingHosts,
			GPUsPerHost:    m.spec.HostCapacity.GPUs,
			CommittedGPUs:  m.c.CommittedGPUs(),
			SubscribedGPUs: m.c.SubscribedGPUs(),
			EmptyHosts:     m.c.EmptyHosts(),
		}
		loads[i] = l
	}
	dec := s.autoscaler.Decide(loads)
	switch dec.Action {
	case federation.ScaleOut:
		s.provisionHosts(dec.Member, dec.Hosts)
	case federation.ScaleIn:
		m := s.members[dec.Member]
		released := 0
		for i := 0; i < len(m.hosts) && released < dec.Hosts && m.c.EmptyHosts() > 0; {
			if s.removeHostIfEmpty(m, i) {
				released++
				continue
			}
			i++
		}
		if released > 0 {
			s.res.ScaleIns++
			m.res.ScaleIns++
			s.sampleProvisioned()
		}
	}
}

// provisionHosts starts need hosts toward member idx: they count as
// pending (toward autoscaler capacity) immediately and land after the
// provisioning latency, one HostProvision draw.
func (s *fedSim) provisionHosts(idx, need int) {
	provision := s.cfg.Latencies.HostProvision(s.rng)
	m := s.members[idx]
	m.pendingHosts += need
	s.res.ScaleOuts++
	m.res.ScaleOuts++
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
func (s *fedSim) removeHostIfEmpty(m *fedMember, i int) bool {
	fh := m.hosts[i]
	if !fh.h.Empty() {
		return false
	}
	if err := m.c.RemoveHost(fh.h.ID); err != nil {
		return false
	}
	m.hosts = append(m.hosts[:i], m.hosts[i+1:]...)
	delete(s.byHost, fh.h)
	s.noteHosts(-1)
	return true
}

// autoscaleMember runs one member's autoscaler evaluation: each cluster
// scales against its own committed load (federations do not pool
// autoscaling decisions, only placements).
func (s *fedSim) autoscaleMember(idx int) {
	m := s.members[idx]
	gpusPerHost := m.spec.HostCapacity.GPUs
	expected := s.cfg.ScaleFactor * float64(m.c.CommittedGPUs())
	total := m.c.TotalGPUs() + m.pendingHosts*gpusPerHost

	if float64(total) < expected {
		need := int(math.Ceil((expected - float64(total)) / float64(gpusPerHost)))
		s.provisionHosts(idx, need)
		return
	}
	// Scale in: release up to 2 empty servers while above the floor,
	// skipping the scan when the member's O(1) empty-host count says no
	// host is retirable (see sim.autoscaleOnce).
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
		if released > 0 {
			s.res.ScaleIns++
			m.res.ScaleIns++
			s.sampleProvisioned()
		}
	}
}

// finalize merges the per-cluster series and computes integrated hours.
func (s *fedSim) finalize() {
	start, end := s.start, s.end
	prov := make([]*metrics.Timeline, len(s.members))
	comm := make([]*metrics.Timeline, len(s.members))
	for i, m := range s.members {
		prov[i] = m.res.ProvisionedGPUs
		comm[i] = m.res.CommittedGPUs
		m.res.FinalHosts = m.c.NumHosts()
	}
	s.res.ProvisionedGPUs = metrics.MergeTimelines(prov...)
	s.res.CommittedGPUs = metrics.MergeTimelines(comm...)
	s.res.ActiveGPUHours = s.res.CommittedGPUs.Integral(start, end)
	s.res.ProvisionedGPUHours = s.res.ProvisionedGPUs.Integral(start, end)
	if s.streaming {
		s.res.ReservedGPUHours = s.reserved.finish(end.UnixNano())
	} else {
		s.res.ReservedGPUHours = s.cfg.Trace.ReservedGPUs().Integral(start, end)
	}
}
