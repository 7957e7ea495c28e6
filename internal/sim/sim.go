package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/des"
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

// Config parameterizes one simulation run.
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
	// proportional split; LeasePool reconciles a shared virtual capacity
	// pool at epoch barriers so k>1 tracks the unsharded run to ~1%. See
	// RunSharded and docs/SHARDING.md.
	ShardCapacity ShardCapacity
	// LeaseEpoch is the barrier period of the LeasePool capacity protocol
	// (default AutoscaleInterval, so pooled capacity decisions keep the
	// unsharded autoscaler's cadence). Only meaningful with
	// ShardCapacity == LeasePool.
	LeaseEpoch time.Duration
	// Faults declares the deterministic fault model: per-host exponential
	// crash/recover churn, scheduled outage windows, and (in federated
	// runs) network-degradation episodes. Nil or empty means a
	// failure-free world and leaves the run byte-identical to builds
	// without fault injection; see trace.FaultSpec and docs/FAULTS.md.
	Faults *trace.FaultSpec

	// leaseManaged marks a sharded worker whose capacity is governed by a
	// lease pool at epoch barriers: the worker's own autoscale ticks are
	// suppressed (the pool makes one global decision per barrier with the
	// unsharded formula). Set only by the lease runner, never by callers.
	leaseManaged bool
}

func (c *Config) withDefaults() error {
	if c.Trace == nil && c.Source == nil {
		return fmt.Errorf("sim: config requires Trace or Source")
	}
	if c.Trace != nil && c.Source != nil {
		return fmt.Errorf("sim: config requires exactly one of Trace and Source")
	}
	if c.LeanMetrics && c.LeanSampleCap <= 0 {
		c.LeanSampleCap = 4096
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Policy == "" {
		c.Policy = PolicyNotebookOS
	}
	if c.Hosts <= 0 {
		c.Hosts = 30
	}
	if c.HostCapacity.IsZero() {
		c.HostCapacity = resources.P316xlarge()
	}
	if c.ReplicasPerKernel <= 0 {
		c.ReplicasPerKernel = 3
	}
	if c.ScaleFactor <= 0 {
		c.ScaleFactor = 1.05
	}
	if c.AutoscaleInterval <= 0 {
		c.AutoscaleInterval = time.Minute
	}
	if c.LeaseEpoch <= 0 {
		c.LeaseEpoch = c.AutoscaleInterval
	}
	if c.MinHosts <= 0 {
		c.MinHosts = 4
	}
	if c.SRHighWatermark <= 0 {
		c.SRHighWatermark = scheduler.DefaultSRHighWatermark
	}
	if c.Latencies.GSProcess == nil {
		c.Latencies = DefaultLatencies()
	}
	if c.SampleEvery <= 0 {
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
}

// simSession is the per-session simulation state.
type simSession struct {
	src   *trace.Session
	req   resources.Spec
	assig workload.Assignment

	// NotebookOS: replica hosts; Reservation: the single reserved host.
	hosts []*cluster.Host
	// holder is the session's exclusive-commit key ("<kind>/<id>"), built
	// once at session creation. A session's tasks are strictly serialized
	// (running + FCFS queue), so at most one commitment per session is ever
	// outstanding and one key can serve every task — the per-attempt
	// "<kind>/<id>/<nanos>" keys were the task path's largest allocation
	// source on long traces.
	holder string
	// rkeys caches the session's replica subscription keys ("<id>/r<i>"),
	// built once at kernel creation and reused at shutdown and on every
	// migration.
	rkeys        []string
	lastExecutor int
	busyUntil    time.Time
	queue        []trace.Task
	running      bool
	closed       bool
	// cur is the in-flight task state machine (nil between tasks), the
	// handle the fault layer aborts through; restarts counts the current
	// task's checkpoint-restore resubmissions against its retry budget.
	cur      runningTask
	restarts int
}

// replicaKeyFor returns the cached key for replica i (1-based).
func (ss *simSession) replicaKeyFor(i int) string {
	if len(ss.rkeys) < i {
		ss.rkeys = extendReplicaKeys(ss.rkeys, ss.src.ID, i)
	}
	return ss.rkeys[i-1]
}

// simHost pairs a cluster host with the simulator's per-host state (the
// warm-container count), so the hot placement scans walk one slice
// instead of re-fetching the host list and hitting a string-keyed map.
type simHost struct {
	h *cluster.Host
	// warm counts pre-warmed containers available on the host.
	warm int
}

// sim is the mutable simulation state.
type sim struct {
	cfg     Config
	eng     *des.Engine
	rng     *rand.Rand
	cluster *cluster.Cluster
	policy  scheduler.LeastLoaded
	res     *Result

	// start/end bound the simulated window (the trace's or the source's).
	start, end time.Time
	// streaming is set when sessions arrive lazily from cfg.Source; lean
	// mirrors cfg.LeanMetrics for the hot recording paths.
	streaming bool
	lean      bool
	// kind is the holder-key namespace, wr the workload-assignment stream
	// (shared by the up-front loop and the lazy injector so both draw in
	// arrival order).
	kind string
	wr   *rand.Rand
	// pull yields the source's next session under streaming; stopPull
	// releases the iterator (see close); srcErr holds the source's
	// iteration error once the stream is exhausted.
	pull     func() (*trace.Session, bool)
	stopPull func()
	srcErr   error
	// inputErr records a streamed session no host can hold; the injector
	// stops admitting and the run returns it (see rejectStream).
	inputErr error
	// reserved integrates reserved GPUs (session request sizes over session
	// lifetimes) online, replacing the trace-scan integral when streaming.
	reserved gpuHoursAcc

	hostSeq int
	// hostList mirrors the cluster membership in insertion order and
	// carries warm-pool counts.
	hostList []*simHost
	// pendingHosts counts servers being provisioned (scale-out latency).
	pendingHosts int
	// waitq parks tasks blocked on cluster capacity; it is woken by the
	// cluster's Release/AddHost notifications.
	waitq *capacityWaitQueue

	// Fault-injection state (see faults.go), live only when cfg.Faults is
	// enabled: frng feeds the crash-path draws (elections, container
	// starts during repair) so fault handling never perturbs the
	// scheduling RNG; faultSessions tracks live sessions in arrival order
	// for crash repair.
	faultsOn      bool
	frng          *rand.Rand
	faultSessions []*simSession

	// Lease-pool bookkeeping, maintained only when cfg.leaseManaged: the
	// live NotebookOS sessions in arrival order (so barrier-time replica
	// rehoming can find a replica's owner deterministically) and the
	// largest per-session GPU request seen (the headroom margin the pool
	// plans with).
	leaseSessions []*simSession
	leaseMaxReq   int
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

// extendReplicaKeys grows keys to n entries of "<id>/r<i>" (1-based),
// carving every new key out of one backing buffer: a kernel's R keys cost
// two allocations (buffer + slice) instead of one per key.
func extendReplicaKeys(keys []string, id string, n int) []string {
	if cap(keys) < n {
		nk := make([]string, len(keys), n)
		copy(nk, keys)
		keys = nk
	}
	start := len(keys)
	size := 0
	for i := start + 1; i <= n; i++ {
		size += len(id) + 2 + decimalDigits(i)
	}
	var b strings.Builder
	b.Grow(size)
	for i := start + 1; i <= n; i++ {
		b.WriteString(id)
		b.WriteString("/r")
		b.WriteString(strconv.Itoa(i))
	}
	blob := b.String()
	pos := 0
	for i := start + 1; i <= n; i++ {
		l := len(id) + 2 + decimalDigits(i)
		keys = append(keys, blob[pos:pos+l])
		pos += l
	}
	return keys
}

// decimalDigits returns the number of base-10 digits of i > 0.
func decimalDigits(i int) int {
	d := 1
	for i >= 10 {
		i /= 10
		d++
	}
	return d
}

// Run executes the simulation and returns its result.
func Run(cfg Config) (*Result, error) {
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.eng.RunUntil(s.end.Add(24 * time.Hour))
	return s.finish()
}

// newSim builds a ready-to-run simulation: cluster and hosts in place,
// every trace (or injector) event scheduled, sampling and autoscale ticks
// armed. Callers drive the engine themselves — Run in one RunUntil shot to
// past the window's end, the lease runner (runLeased) in epoch-sized steps
// with barrier reconciliation between them — and then collect the result
// with finish. Pair with close, which releases the streaming source's
// iterator.
func newSim(cfg Config) (*sim, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	src := cfg.Source
	if src == nil {
		for _, sess := range cfg.Trace.Sessions {
			if err := fitsHost(sess, cfg.HostCapacity); err != nil {
				return nil, err
			}
		}
		src = cfg.Trace.AsSource()
	}
	start, end := src.Window()
	eng := des.New(start)
	s := &sim{
		cfg:       cfg,
		eng:       eng,
		rng:       rand.New(rand.NewSource(cfg.Seed + 1)),
		cluster:   cluster.New(cfg.ReplicasPerKernel),
		start:     start,
		end:       end,
		streaming: cfg.Source != nil,
		lean:      cfg.LeanMetrics,
		kind:      holderKind(cfg.Policy),
		wr:        rand.New(rand.NewSource(cfg.Seed + 2)),
		waitq:     newCapacityWaitQueue(eng),
	}
	s.policy = scheduler.LeastLoaded{SRHighWatermark: cfg.SRHighWatermark}
	s.reserved.lastNS = start.UnixNano()

	// Lean mode swaps the unbounded recorders for window-bounded ones:
	// timelines coalesce at the sampling period, samples keep seeded
	// reservoirs (each with its own derived seed, so merges stay
	// reproducible).
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
	s.res = &Result{
		Policy:          cfg.Policy,
		ProvisionedGPUs: newTL(),
		CommittedGPUs:   newTL(),
		ActiveSessions:  newTL(),
		ActiveTrainings: newTL(),
		SR:              newTL(),
		Interactivity:   newSample(),
		TCT:             newSample(),
		StepLatency:     map[Step]*metrics.Sample{},
		SyncLatency:     newSample(),
		ReadLatency:     newSample(),
		WriteLatency:    newSample(),
	}
	for _, st := range Steps() {
		s.res.StepLatency[st] = newSample()
	}
	s.cluster.SetCapacityNotifier(s.waitq.Notify)
	// Fault injection arms before the initial hosts join so every host
	// slot — including the first Hosts — carries a crash clock, and the
	// availability timeline sees every membership change (faults.go).
	s.initFaults()

	// Pre-size the metric columns from the source's expectation: delta
	// series record two points per task (or session), sampled series one
	// point per period. For a materialized trace the hints are exact upper
	// bounds (coincident timestamps collapse), so long traces pay one
	// allocation per column instead of a geometric growth ladder — the
	// dominant allocation cost of 90-day runs. A streaming source supplies
	// analytic expectations instead of a trace scan; under LeanMetrics the
	// recorders bound themselves and the hints are skipped entirely.
	exp := src.Expect()
	sessions, numTasks := exp.Sessions, exp.Tasks
	ticks := int(end.Sub(start)/cfg.SampleEvery) + 2
	if !s.lean {
		s.res.ProvisionedGPUs.Grow(ticks + 64)
		s.res.CommittedGPUs.Grow(2 * numTasks)
		s.res.ActiveSessions.Grow(2 * sessions)
		s.res.ActiveTrainings.Grow(2 * numTasks)
		if cfg.Policy == PolicyNotebookOS || cfg.Policy == PolicyLCP {
			s.res.SR.Grow(2*sessions + ticks)
		}
		s.res.Interactivity.Grow(numTasks)
		s.res.TCT.Grow(numTasks)
		s.res.SyncLatency.Grow(numTasks)
		s.res.ReadLatency.Grow(numTasks)
		s.res.WriteLatency.Grow(numTasks)
		for _, st := range Steps() {
			s.res.StepLatency[st].Grow(numTasks) // one observation per executed task
		}
		s.res.Events = make([]Event, 0, sessions+64)
	}
	for i := 0; i < cfg.Hosts; i++ {
		s.addHost()
	}

	if s.streaming {
		// Sessions are admitted lazily: the injector event at each session's
		// start materializes it, schedules its end and task arrivals, and
		// pulls the next one — pending-event count tracks concurrency, not
		// workload size.
		next, stop := iter.Pull(func(yield func(*trace.Session) bool) {
			s.srcErr = src.Sessions(yield)
		})
		s.stopPull = stop
		s.pull = next
		if first, ok := next(); ok {
			s.eng.ScheduleRunner(first.Start, &injector{s: s, sess: first})
		}
	} else {
		// The whole trace is scheduled up front: one event per session
		// boundary plus one per task arrival.
		s.eng.Reserve(2*sessions + numTasks + 16)
		for _, sess := range cfg.Trace.Sessions {
			sess := sess
			ss := &simSession{
				src:    sess,
				req:    sess.Request,
				assig:  workload.Assign(s.wr),
				holder: s.kind + "/" + sess.ID,
			}
			s.eng.Schedule(sess.Start, func() { s.sessionStart(ss) })
			s.eng.Schedule(sess.End, func() { s.sessionEnd(ss) })
			for _, task := range sess.Tasks {
				task := task
				s.eng.Schedule(task.Submit, func() { s.taskArrive(ss, task) })
			}
		}
	}

	// Periodic sampling and autoscaling. A lease-managed worker skips its
	// own autoscale ticks: the pool runs the same formula once per barrier
	// over the pooled counters instead.
	s.scheduleSampling()
	if (cfg.Policy == PolicyNotebookOS || cfg.Policy == PolicyLCP) && !cfg.leaseManaged {
		s.scheduleAutoscale()
	}
	return s, nil
}

// close releases the streaming source's iterator; safe on any sim and
// safe to call more than once.
func (s *sim) close() {
	if s.stopPull != nil {
		s.stopPull()
		s.stopPull = nil
	}
}

// finish surfaces a streaming-source error and computes the integrated
// metrics. Call once, after the engine has run past the window's end.
func (s *sim) finish() (*Result, error) {
	if s.inputErr != nil {
		return nil, s.inputErr
	}
	if s.srcErr != nil {
		return nil, s.srcErr
	}
	s.finalizeIntegrals()
	s.res.PlacementCalls, s.res.PlacementHostVisits = s.cluster.PlacementWork()
	return s.res, nil
}

func (s *sim) now() time.Time { return s.eng.Now() }

// fitsHost rejects a session whose request exceeds one host's capacity:
// no policy can ever place it (a kernel replica, a reservation and a task
// container each live on one host), so the run fails with an error
// instead of dropping the session or its tasks.
func fitsHost(sess *trace.Session, capacity resources.Spec) error {
	if sess.Request.Fits(capacity) {
		return nil
	}
	return fmt.Errorf("sim: session %s requests %v, more than the host capacity %v",
		sess.ID, sess.Request, capacity)
}

// rejectStream records a streamed session's input error and ends the
// run: the injector admits nothing more, and finish returns the error. A
// lease-managed engine is stepped by the barrier protocol and keeps
// running, with no further admissions, until the others finish.
func (s *sim) rejectStream(err error) {
	s.inputErr = err
	if !s.cfg.leaseManaged {
		s.eng.Stop()
	}
}

func (s *sim) addHost() *simHost {
	s.hostSeq++
	h := cluster.NewHost(fmt.Sprintf("sim-h%04d", s.hostSeq), s.cfg.HostCapacity)
	if err := s.cluster.AddHost(h); err != nil {
		panic(err)
	}
	sh := &simHost{h: h, warm: s.cfg.PrewarmPerHost}
	s.hostList = append(s.hostList, sh)
	if s.faultsOn {
		s.armHostFaults(sh)
	}
	return sh
}

func (s *sim) recordEvent(kind scheduler.EventKind) {
	if s.lean {
		return
	}
	s.res.Events = append(s.res.Events, Event{T: s.now().UnixNano(), Kind: kind})
}

// ---- session lifecycle -------------------------------------------------

func (s *sim) sessionStart(ss *simSession) {
	s.res.Sessions++
	if s.faultsOn {
		s.faultSessions = append(s.faultSessions, ss)
	}
	s.res.ActiveSessions.Delta(s.now(), 1)
	s.reserved.bump(s.now().UnixNano(), float64(ss.req.GPUs))
	switch s.cfg.Policy {
	case PolicyReservation:
		// Bind GPUs for the whole session; grow the cluster when full
		// (the provider provisions to fit all reservations).
		sh := s.hostWithIdle(ss.req)
		if sh == nil {
			sh = s.addHost()
		}
		if err := sh.h.Commit(ss.holder, ss.req); err != nil {
			// A fresh host always fits a valid request.
			panic(err)
		}
		ss.hosts = []*cluster.Host{sh.h}
	case PolicyNotebookOS:
		hosts, err := s.policy.SelectHosts(s.cluster, ss.req, s.cfg.ReplicasPerKernel)
		if err != nil {
			// Scale out synchronously at creation (placement pauses until
			// the servers are ready; the provisioning delay is charged to
			// session creation, not to any task).
			for i := 0; i < s.cfg.ReplicasPerKernel; i++ {
				s.addHost()
			}
			s.res.ScaleOuts++
			s.recordEvent(scheduler.EventScaleOut)
			hosts, err = s.policy.SelectHosts(s.cluster, ss.req, s.cfg.ReplicasPerKernel)
			if err != nil {
				return // pathological request; drop the session
			}
		}
		for i, h := range hosts {
			_ = h.PlaceReplica(ss.replicaKeyFor(i+1), ss.req)
		}
		ss.hosts = hosts
		if s.cfg.leaseManaged {
			s.leaseSessions = append(s.leaseSessions, ss)
			if ss.req.GPUs > s.leaseMaxReq {
				s.leaseMaxReq = ss.req.GPUs
			}
		}
		s.recordEvent(scheduler.EventKernelCreated)
		s.sampleSR()
	case PolicyBatch, PolicyLCP:
		// No per-session provisioning: containers come per task.
	}
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
	switch s.cfg.Policy {
	case PolicyReservation:
		if len(ss.hosts) > 0 && ss.hosts[0] != nil {
			_ = ss.hosts[0].Release(ss.holder)
		}
	case PolicyNotebookOS:
		for i, h := range ss.hosts {
			if h == nil {
				continue // crash-emptied slot (faults.go)
			}
			_ = h.RemoveReplica(ss.replicaKeyFor(i + 1))
		}
		if s.cfg.leaseManaged {
			for i, live := range s.leaseSessions {
				if live == ss {
					s.leaseSessions = append(s.leaseSessions[:i], s.leaseSessions[i+1:]...)
					break
				}
			}
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
	s.startTask(ss, task, s.now())
}

func (s *sim) finishTask(ss *simSession, submit time.Time, interactivity, exec, post time.Duration) {
	tct := s.now().Sub(submit)
	s.res.Interactivity.Add(interactivity.Seconds())
	s.res.TCT.Add(tct.Seconds())
	s.res.StepLatency[StepE2E].Add(tct.Seconds())
	s.res.Tasks++
	ss.running = false
	ss.cur = nil
	ss.restarts = 0
	if len(ss.queue) > 0 {
		next := ss.queue[0]
		ss.queue = ss.queue[1:]
		ss.running = true
		s.startTask(ss, next, s.now())
	}
}

func (s *sim) startTask(ss *simSession, task trace.Task, submit time.Time) {
	switch s.cfg.Policy {
	case PolicyReservation:
		s.runReservationTask(ss, task, submit)
	case PolicyBatch:
		s.runBatchTask(ss, task, submit)
	case PolicyNotebookOS:
		s.runNbosTask(ss, task, submit)
	case PolicyLCP:
		s.runLCPTask(ss, task, submit)
	}
}

func (s *sim) taskReq(ss *simSession, task trace.Task) resources.Spec {
	return clampTaskReq(ss.req, task.GPUs)
}

// clampTaskReq shapes a task's exclusive-commit request from its session's
// reservation: the task's GPU count (never above the reservation) with
// VRAM sized at 16 GB per GPU. Shared by the single-cluster and federated
// simulators so their request shaping cannot drift.
func clampTaskReq(sessReq resources.Spec, taskGPUs int) resources.Spec {
	r := sessReq
	r.GPUs = taskGPUs
	if r.GPUs > sessReq.GPUs {
		r.GPUs = sessReq.GPUs
	}
	r.VRAMGB = float64(r.GPUs) * 16
	return r
}

func (s *sim) sampleStep(st Step, d time.Duration) time.Duration {
	s.res.StepLatency[st].Add(d.Seconds())
	return d
}

// runReservationTask: GPUs are already bound; the task starts after
// framework overhead only. The pipeline runs as a resvTask state machine
// (one allocation per task): both lead events carry the same Runner, in the
// same order the closure version scheduled them.
func (s *sim) runReservationTask(ss *simSession, task trace.Task, submit time.Time) {
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
}

// runBatchTask: FCFS on-demand provisioning: wait for free GPUs, cold
// start a container, download model+dataset, execute, persist, terminate.
// When the cluster is saturated the task parks on the capacity wait-queue
// and is retried on the next Release/AddHost notification. The pipeline
// after commit runs as a batchTask state machine (one allocation per task);
// the retry closure is only built on the park path, which saturation makes
// rare relative to task count.
func (s *sim) runBatchTask(ss *simSession, task trace.Task, submit time.Time) {
	if s.tryBatchTask(ss, task, submit) {
		return
	}
	s.waitq.Wait(func() bool { return s.tryBatchTask(ss, task, submit) })
}

// tryBatchTask attempts the commit-and-start step and reports whether the
// task is now in flight.
func (s *sim) tryBatchTask(ss *simSession, task trace.Task, submit time.Time) bool {
	// A batch job requests the session's full configured resources, the
	// way a slurm submission would, not just the GPUs this task touches.
	req := ss.req
	sh := s.hostWithIdle(req)
	if sh == nil {
		return false
	}
	h := sh.h
	if err := h.Commit(ss.holder, req); err != nil {
		return false
	}
	queueing := s.now().Sub(submit)
	cold := s.cfg.Latencies.ColdStart(s.rng)
	s.res.ColdStarts++
	fetch := s.cfg.Latencies.Store.GetLatency(ss.assig.Model.ParamBytes+ss.assig.Dataset.SizeBytes/16, s.rng)
	s.res.ReadLatency.Add(fetch.Seconds())
	step1 := s.sampleStep(StepGSProcess, queueing+cold+s.cfg.Latencies.GSProcess(s.rng))
	step5 := s.sampleStep(StepPreProcess, s.cfg.Latencies.PreProcess(s.rng)+fetch)
	s.sampleStep(StepElection, 0)
	step7 := s.sampleStep(StepIntermed, s.cfg.Latencies.Transfer.LoadTime(ss.assig.Model.ParamBytes, task.GPUs))
	delay := step1 + step5 + step7

	bt := &batchTask{s: s, ss: ss, task: task, submit: submit, h: h, delay: delay}
	ss.cur = bt
	s.eng.DeferRunner(delay, bt)
	return true
}

// runNbosTask: the full NotebookOS path: immediate commit on a replica
// host when possible, otherwise migration (warm container when available)
// and resubmission. A task that can neither commit nor migrate parks on
// the capacity wait-queue until a Release/AddHost notification.
func (s *sim) runNbosTask(ss *simSession, task trace.Task, submit time.Time) {
	if s.tryNbosTask(ss, task, submit) {
		return
	}
	s.waitq.Wait(func() bool { return s.tryNbosTask(ss, task, submit) })
}

// tryNbosTask attempts one commit-or-migrate step and reports whether it
// made progress (committed the task or scheduled a migration).
func (s *sim) tryNbosTask(ss *simSession, task trace.Task, submit time.Time) bool {
	lat := s.cfg.Latencies
	req := s.taskReq(ss, task)
	migrationDelay := s.now().Sub(submit)

	// Prefer the previous executor's host (the paper reuses the same
	// executor for 89.45% of consecutive executions).
	executor := 0
	if ss.lastExecutor > 0 && ss.lastExecutor <= len(ss.hosts) &&
		ss.hosts[ss.lastExecutor-1] != nil &&
		ss.hosts[ss.lastExecutor-1].CanCommit(req) {
		executor = ss.lastExecutor
	}
	if executor == 0 {
		for i, h := range ss.hosts {
			if h != nil && h.CanCommit(req) {
				executor = i + 1
				break
			}
		}
	}
	if executor == 0 {
		return s.tryMigrate(ss, task, submit)
	}
	h := ss.hosts[executor-1]
	holder := ss.holder
	if err := h.Commit(holder, req); err != nil {
		return s.tryMigrate(ss, task, submit)
	}
	if migrationDelay == 0 {
		s.res.ImmediateCommits++
		if executor == ss.lastExecutor {
			s.res.ExecutorReuse++
		}
	}
	ss.lastExecutor = executor

	step1 := s.sampleStep(StepGSProcess, lat.GSProcess(s.rng))
	step5 := s.sampleStep(StepPreProcess, lat.PreProcess(s.rng))
	step6 := s.sampleStep(StepElection, lat.Election(s.rng))
	step7 := s.sampleStep(StepIntermed, lat.Transfer.LoadTime(ss.assig.Model.ParamBytes, task.GPUs))
	hops := lat.Hop(s.rng) + lat.Hop(s.rng)
	delay := migrationDelay + step1 + step5 + step6 + step7 + hops

	nt := &nbosTask{s: s, ss: ss, task: task, submit: submit, h: h, delay: delay}
	ss.cur = nt
	s.eng.ScheduleRunner(submit.Add(delay), nt)
	return true
}

// tryMigrate handles the all-YIELD path (§3.2.3): find a target with idle
// resources, pay warm/cold container plus checkpoint-restore costs, swap
// the replica, and resubmit. When no target exists it triggers a scale-out
// (at most one in flight) and reports false so the caller parks on the
// wait-queue until new capacity arrives.
func (s *sim) tryMigrate(ss *simSession, task trace.Task, submit time.Time) bool {
	lat := s.cfg.Latencies
	req := s.taskReq(ss, task)

	// The failed election itself costs one election round.
	electionCost := lat.Election(s.rng)

	var target *simHost
	bestIdle := -1
	for _, sh := range s.hostList {
		h := sh.h
		if hostsContain(ss.hosts, h) || !h.CanCommit(req) {
			continue
		}
		if idle := h.IdleGPUs(); idle > bestIdle {
			bestIdle = idle
			target = sh
		}
	}
	if target == nil {
		// Scale out; the AddHost notification wakes the wait-queue.
		if s.pendingHosts == 0 {
			s.pendingHosts++
			s.res.ScaleOuts++
			s.recordEvent(scheduler.EventScaleOut)
			provision := lat.HostProvision(s.rng)
			s.eng.Defer(provision, func() {
				s.addHost()
				s.pendingHosts--
			})
		}
		return false
	}

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
	// Persist + restore checkpointed state through the data store.
	wr := lat.Store.PutLatency(ss.assig.Model.ParamBytes, s.rng)
	rd := lat.Store.GetLatency(ss.assig.Model.ParamBytes, s.rng)
	s.res.WriteLatency.Add(wr.Seconds())
	s.res.ReadLatency.Add(rd.Seconds())
	extra += wr + rd + electionCost

	// Move the replica: a crash-emptied slot (faults.go) is refilled
	// first; otherwise the victim is the replica on the fullest host.
	victim := 0
	worst := math.MaxInt
	for i, h := range ss.hosts {
		if h == nil {
			victim = i
			break
		}
		if idle := h.IdleGPUs(); idle < worst {
			worst = idle
			victim = i
		}
	}
	oldHost := ss.hosts[victim]
	key := ss.replicaKeyFor(victim + 1)
	if oldHost != nil {
		_ = oldHost.RemoveReplica(key)
	}
	_ = target.h.PlaceReplica(key, ss.req)
	ss.hosts[victim] = target.h
	ss.lastExecutor = victim + 1
	s.res.Migrations++
	s.recordEvent(scheduler.EventMigration)
	s.sampleSR()

	s.eng.Defer(extra, func() {
		s.runNbosTask(ss, task, submit)
	})
	return true
}

// hostsContain reports whether h is one of the session's replica hosts
// (len <= R, so a linear scan beats building a set).
func hostsContain(hosts []*cluster.Host, h *cluster.Host) bool {
	for _, x := range hosts {
		if x == h {
			return true
		}
	}
	return false
}

// runLCPTask: take a warm container from the pool (or cold start), warm
// it up by downloading model + dataset (on the critical path, which is
// what stretches LCP's TCT in Fig. 9b), execute, return the container.
// Saturation parks the task on the capacity wait-queue. The pipeline after
// commit runs as an lcpTask state machine (one allocation per task); the
// retry closure is only built on the park path.
func (s *sim) runLCPTask(ss *simSession, task trace.Task, submit time.Time) {
	if s.tryLCPTask(ss, task, submit) {
		return
	}
	s.waitq.Wait(func() bool { return s.tryLCPTask(ss, task, submit) })
}

// tryLCPTask attempts the commit-and-warm-up step and reports whether the
// task is now in flight.
func (s *sim) tryLCPTask(ss *simSession, task trace.Task, submit time.Time) bool {
	req := s.taskReq(ss, task)
	var target *simHost
	warm := false
	// Prefer hosts with both idle GPUs and a warm container.
	for _, sh := range s.hostList {
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
	var start time.Duration
	if warm {
		target.warm--
		s.res.WarmStarts++
		start = s.cfg.Latencies.WarmAttach(s.rng)
	} else {
		s.res.ColdStarts++
		start = s.cfg.Latencies.ColdStart(s.rng)
	}
	queueing := s.now().Sub(submit)
	// Warm-up: fetch model parameters and dataset into the container.
	fetch := s.cfg.Latencies.Store.GetLatency(ss.assig.Model.ParamBytes+ss.assig.Dataset.SizeBytes/16, s.rng)
	s.res.ReadLatency.Add(fetch.Seconds())
	step1 := s.sampleStep(StepGSProcess, queueing+start+s.cfg.Latencies.GSProcess(s.rng))
	step5 := s.sampleStep(StepPreProcess, s.cfg.Latencies.PreProcess(s.rng)+fetch)
	s.sampleStep(StepElection, 0)
	step7 := s.sampleStep(StepIntermed, s.cfg.Latencies.Transfer.LoadTime(ss.assig.Model.ParamBytes, task.GPUs))
	delay := step1 + step5 + step7

	lt := &lcpTask{s: s, ss: ss, task: task, submit: submit, target: target, delay: delay}
	ss.cur = lt
	s.eng.DeferRunner(delay, lt)
	return true
}

func (s *sim) markTraining(ss *simSession, task trace.Task, at time.Time, start bool) {
	g := float64(task.GPUs)
	if start {
		s.res.ActiveTrainings.Delta(at, 1)
		s.res.CommittedGPUs.Delta(at, g)
	} else {
		s.res.ActiveTrainings.Delta(at, -1)
		s.res.CommittedGPUs.Delta(at, -g)
	}
}

// hostWithIdle returns a host that can commit req right now (most idle
// first), or nil.
func (s *sim) hostWithIdle(req resources.Spec) *simHost {
	var best *simHost
	bestIdle := -1
	for _, sh := range s.hostList {
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

func (s *sim) sampleSR() {
	s.res.SR.Set(s.now(), s.cluster.ClusterSR())
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

// sampleProvisioned records the provisioned-GPU series whose meaning is
// policy-dependent (Fig. 8): Reservation provisions what sessions reserve;
// Batch provisions what runs; NotebookOS/(LCP) provision whole servers.
func (s *sim) sampleProvisioned() {
	switch s.cfg.Policy {
	case PolicyReservation:
		s.res.ProvisionedGPUs.Set(s.now(), float64(s.cluster.CommittedGPUs()))
	case PolicyBatch:
		s.res.ProvisionedGPUs.Set(s.now(), float64(s.cluster.CommittedGPUs()))
	default:
		s.res.ProvisionedGPUs.Set(s.now(), float64(s.cluster.TotalGPUs()))
		s.sampleSR()
	}
}

func (s *sim) scheduleAutoscale() {
	var tick func()
	tick = func() {
		s.autoscaleOnce()
		if s.now().Before(s.end) {
			s.eng.DeferLate(s.cfg.AutoscaleInterval, tick)
		}
	}
	s.eng.DeferLate(s.cfg.AutoscaleInterval, tick)
}

func (s *sim) autoscaleOnce() {
	committed := s.cluster.CommittedGPUs()
	gpusPerHost := s.cfg.HostCapacity.GPUs
	expected := s.cfg.ScaleFactor*float64(committed) + float64(s.cfg.ScalingBufferHosts*gpusPerHost)
	if s.cfg.Policy == PolicyLCP {
		// The LCP baseline keeps a large warm-container pool sized to the
		// session population, trading resource cost for interactivity
		// (§5.1.1); reserve roughly one GPU of capacity per live session.
		expected += 0.75 * s.res.ActiveSessions.Last()
	}
	total := s.cluster.TotalGPUs() + s.pendingHosts*gpusPerHost

	if float64(total) < expected {
		need := int(math.Ceil((expected - float64(total)) / float64(gpusPerHost)))
		s.provisionAt(need, s.cfg.Latencies.HostProvision(s.rng))
		return
	}
	// Scale in: release up to 2 empty servers (no replicas, nothing
	// committed) while above the floor, first-joined first. The cluster's
	// O(1) empty-host count skips the scan when no host is retirable and
	// ends it once none is left.
	if float64(total)-float64(gpusPerHost) > expected && len(s.hostList) > s.cfg.MinHosts && s.cluster.EmptyHosts() > 0 {
		released := 0
		for i := 0; i < len(s.hostList); {
			if released >= 2 || len(s.hostList) <= s.cfg.MinHosts || s.cluster.EmptyHosts() == 0 {
				break
			}
			sh := s.hostList[i]
			removed := false
			if sh.h.Empty() {
				if err := s.cluster.RemoveHost(sh.h.ID); err == nil {
					s.hostList = append(s.hostList[:i], s.hostList[i+1:]...)
					s.noteHosts(-1)
					released++
					removed = true
				}
			}
			if float64(s.cluster.TotalGPUs())-float64(gpusPerHost) <= expected {
				break
			}
			if !removed {
				i++
			}
		}
		if released > 0 {
			s.res.ScaleIns++
			s.recordEvent(scheduler.EventScaleIn)
			s.sampleProvisioned()
		}
	}
}

// provisionAt starts a scale-out of need hosts: they count as pending
// immediately and land after the given provisioning latency. The latency
// is a parameter, not a draw, so the lease pool can charge its own rng's
// draw (one per pooled decision, like the unsharded autoscaler's one per
// tick) while the worker's local paths pass a worker-rng draw.
func (s *sim) provisionAt(need int, provision time.Duration) {
	s.pendingHosts += need
	s.res.ScaleOuts++
	s.recordEvent(scheduler.EventScaleOut)
	s.eng.Defer(provision, func() {
		for i := 0; i < need; i++ {
			s.addHost()
		}
		s.pendingHosts -= need
		s.sampleProvisioned()
	})
}

// finalizeIntegrals computes the integrated hour metrics for the cost
// model (Fig. 12).
func (s *sim) finalizeIntegrals() {
	start, end := s.start, s.end
	s.res.ActiveGPUHours = s.res.CommittedGPUs.Integral(start, end)
	s.res.ServerHours = s.res.ProvisionedGPUs.Integral(start, end) / float64(s.cfg.HostCapacity.GPUs)
	if s.streaming {
		// No trace to scan: the online accumulator integrated reserved GPUs
		// as sessions came and went (bit-for-bit it is a different summation
		// order than the trace-scan timeline, so the two agree to rounding).
		s.res.ReservedGPUHours = s.reserved.finish(end.UnixNano())
	} else {
		s.res.ReservedGPUHours = s.cfg.Trace.ReservedGPUs().Integral(start, end)
	}
	if s.cfg.Policy == PolicyNotebookOS {
		// Each session keeps R standby replicas alive; the executor is
		// billed as active while training. Replica-hours approximate
		// R x session-hours.
		sessHours := s.res.ActiveSessions.Integral(start, end)
		s.res.StandbyReplicaHours = sessHours * float64(s.cfg.ReplicasPerKernel)
	}
}
