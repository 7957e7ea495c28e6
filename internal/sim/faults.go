package sim

import (
	"math/rand"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/metrics"
	"notebookos/internal/trace"
)

// Fault injection
//
// This file wires trace.FaultSpec's deterministic fault streams into the
// discrete-event simulators as first-class events: per-host crash/recover
// pairs armed when each host joins, scheduled outage windows, and (in the
// federated simulator) network-degradation episodes that scale every
// inter-cluster penalty. The design contract, pinned by the zero-fault
// identity and double-run determinism tests and argued in docs/FAULTS.md:
//
//   - Everything is gated on cfg.Faults.Enabled(): a nil or empty spec
//     schedules no events, draws no randomness, and allocates nothing, so
//     failure-free runs stay byte-identical to builds without this file.
//   - Fault timing is a pure function of (FaultSpec, Seed, host slot) via
//     trace.HostFault/OutageRNG — workload-independent, so every replay
//     of a config sees the identical fault stream.
//   - Crash-path randomness (failover elections, container starts during
//     replica rehoming) comes from a dedicated RNG (Seed+3), never from
//     the scheduling or workload streams.
//
// Failure semantics on a host crash: resident replicas die in place
// (their ss.hosts slot goes nil). A NotebookOS session that keeps raft
// quorum (2*alive > R) fails over — one election charge, lost replicas
// rehome onto the most-idle hosts — and its running task continues unless
// the executor itself died. Quorum loss, executor death, or (for the
// replica-less baselines) any crash under the running container aborts
// the task: training accounting unwinds into LostGPUHours and the task
// resubmits through restartTask with a checkpoint-restore penalty and
// SLO-class-aware exponential backoff; an exhausted retry budget counts
// an Abandonment. Crashed hosts leave the cluster through
// cluster.CrashHost (forced removal, no capacity notification) and a
// fresh replacement host — new slot, new crash clock — joins after the
// drawn repair time, while the autoscaler's next tick sees the missing
// capacity and can scale out in the interim.

// runningTask is the fault layer's view of an in-flight task state
// machine: where it executes and how to kill it. Implemented by every
// policy's task FSM (taskfsm.go).
type runningTask interface {
	// runsOn reports whether the task's executor lives on h.
	runsOn(h *cluster.Host) bool
	// abort cancels the machine — later Fire events no-op, training
	// accounting unwinds, committed GPUs release — and returns the task
	// and its original submit time for resubmission.
	abort() (trace.Task, time.Time)
}

// initFaults arms the run's fault layer: the dedicated crash-path RNG,
// the availability/recovery recorders, and one event per unscoped outage
// window. Per-host crash clocks arm in addHost as each host joins. A
// disabled spec leaves the sim untouched.
func (s *sim) initFaults() {
	f := s.cfg.Faults
	if !f.Enabled() {
		return
	}
	s.faultsOn = true
	s.frng = rand.New(rand.NewSource(s.cfg.Seed + 3))
	s.res.Availability = metrics.NewTimeline()
	s.res.RecoveryTime = metrics.NewSample()
	for i, o := range f.Outages {
		if o.Cluster != "" {
			continue // member-scoped outages apply only to federated runs
		}
		i, o := i, o
		s.eng.Schedule(s.start.Add(hoursDur(o.StartHour)), func() { s.outageStrike(i, o) })
	}
}

// hoursDur converts a spec's fractional hours to a duration.
func hoursDur(h float64) time.Duration {
	return time.Duration(h * float64(time.Hour))
}

// noteHosts records a host-count change on the availability timeline.
// Nil-safe: a no-op unless faults are enabled.
func (s *sim) noteHosts(d float64) {
	if s.res.Availability != nil {
		s.res.Availability.Delta(s.now(), d)
	}
}

// armHostFaults gives a freshly joined host its availability tick and its
// deterministic crash clock: the (uptime, downtime) pair is a pure
// function of (spec, seed, host slot), so replays see the identical
// stream.
func (s *sim) armHostFaults(sh *simHost) {
	s.noteHosts(1)
	if up, down := s.cfg.Faults.HostFault(s.cfg.Seed, uint64(s.hostSeq)); up > 0 {
		s.eng.Defer(up, func() { s.crashHost(sh, down) })
	}
}

// crashHost kills one host: it leaves the cluster immediately (forced
// removal — resident replicas die with it), affected sessions repair
// (failover or abort+restart), and a fresh replacement host joins after
// the repair time. A host that already left the cluster by scale-in makes
// the crash a no-op: its clock died with it.
func (s *sim) crashHost(sh *simHost, down time.Duration) {
	idx := -1
	for i, x := range s.hostList {
		if x == sh {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	if err := s.cluster.CrashHost(sh.h.ID); err != nil {
		return
	}
	s.hostList = append(s.hostList[:idx], s.hostList[idx+1:]...)
	s.res.HostCrashes++
	s.noteHosts(-1)
	s.repairSessions(sh.h)
	s.sampleProvisioned()
	s.eng.Defer(down, func() {
		// The replacement is a fresh host slot with its own crash clock
		// (armed in addHost), never the crashed host re-attached —
		// re-attachment would double-count its stale commitments.
		s.addHost()
		s.res.HostRecoveries++
		s.sampleProvisioned()
	})
}

// outageStrike executes outage window idx: each live host is killed
// independently with probability HostFraction, drawn per host in
// host-list order from the outage's own deterministic RNG; every victim's
// replacement arrives together when the window closes.
func (s *sim) outageStrike(idx int, o trace.OutageSpec) {
	r := s.cfg.Faults.OutageRNG(s.cfg.Seed, idx)
	var victims []*simHost
	for _, sh := range s.hostList {
		if r.Float64() < o.HostFraction {
			victims = append(victims, sh)
		}
	}
	down := hoursDur(o.DurationHours)
	for _, sh := range victims {
		s.crashHost(sh, down)
	}
}

// repairSessions repairs every live session touched by a crash of h,
// in arrival order.
func (s *sim) repairSessions(h *cluster.Host) {
	for _, ss := range s.faultSessions {
		switch s.cfg.Policy {
		case PolicyNotebookOS:
			s.repairNbos(ss, h)
		case PolicyReservation:
			s.repairReservation(ss, h)
		default:
			// Batch and LCP run per-task containers with no replicas:
			// only a task executing on the crashed host is affected.
			if ss.cur != nil && ss.cur.runsOn(h) {
				s.abortRestart(ss)
			}
		}
	}
}

// repairNbos applies the replicated-kernel failure semantics: a replica
// on the crashed host dies (its slot goes nil). With raft quorum intact
// the session fails over — one election charge, dead slots rehome — and
// the running task survives unless its executor died; without quorum the
// running task aborts through the checkpoint-restore restart path.
func (s *sim) repairNbos(ss *simSession, h *cluster.Host) {
	alive, lost := 0, 0
	for i, rh := range ss.hosts {
		if rh == h {
			ss.hosts[i] = nil
			lost++
		} else if rh != nil {
			alive++
		}
	}
	execDied := ss.cur != nil && ss.cur.runsOn(h)
	if lost == 0 && !execDied {
		return
	}
	quorum := 2*alive > len(ss.hosts)
	if lost > 0 && quorum {
		s.res.Failovers++
		elect := s.cfg.Latencies.Election(s.frng)
		s.res.RecoveryTime.Add(elect.Seconds())
	}
	for i, rh := range ss.hosts {
		if rh == nil {
			s.rehomeReplica(ss, i)
		}
	}
	// The executor's GPU state died with its host; quorum loss drops the
	// raft log's tail. Either way the in-flight execution restarts from
	// its last checkpoint.
	if ss.cur != nil && (execDied || (lost > 0 && !quorum)) {
		s.abortRestart(ss)
	}
}

// repairReservation re-binds a session whose reserved host crashed: the
// running task (always on the reserved host) aborts, and the session's
// GPUs re-commit on the most-idle host — growing the cluster when full,
// exactly as sessionStart placed it.
func (s *sim) repairReservation(ss *simSession, h *cluster.Host) {
	if len(ss.hosts) == 0 || ss.hosts[0] != h {
		return
	}
	if ss.cur != nil && ss.cur.runsOn(h) {
		s.abortRestart(ss)
	}
	sh := s.hostWithIdle(ss.req)
	if sh == nil {
		sh = s.addHost()
	}
	if err := sh.h.Commit(ss.holder, ss.req); err != nil {
		// A fresh host always fits a valid request.
		panic(err)
	}
	ss.hosts[0] = sh.h
}

// rehomeReplica rebuilds the dead replica in slot `slot` on the most-idle
// host outside the session's replica set, charging a warm attach (pool
// permitting) or cold start off the task's critical path. Reports false —
// the slot stays nil, for a later migration or crash repair to fill —
// when no candidate host exists.
func (s *sim) rehomeReplica(ss *simSession, slot int) bool {
	var target *simHost
	bestIdle := -1
	for _, sh := range s.hostList {
		if hostsContain(ss.hosts, sh.h) {
			continue
		}
		if idle := sh.h.IdleGPUs(); idle > bestIdle {
			bestIdle = idle
			target = sh
		}
	}
	if target == nil {
		return false
	}
	if target.warm > 0 {
		target.warm--
		s.res.WarmStarts++
		tsh := target
		s.eng.Defer(s.cfg.Latencies.ColdStart(s.frng), func() { tsh.warm++ })
	} else {
		s.res.ColdStarts++
	}
	_ = target.h.PlaceReplica(ss.replicaKeyFor(slot+1), ss.req)
	ss.hosts[slot] = target.h
	return true
}

// abortRestart kills the session's in-flight task and resubmits it
// through the restart path.
func (s *sim) abortRestart(ss *simSession) {
	task, submit := ss.cur.abort()
	ss.cur = nil
	s.restartTask(ss, task, submit)
}

// restartTask resubmits an aborted task after a checkpoint-restore
// penalty plus exponential backoff, against an SLO-class-aware retry
// budget (interactive abandons fastest). The original submit time rides
// along, so every restart's delay lands in the interactivity and TCT
// tails. An exhausted budget abandons the task — counted, never silently
// dropped — and the session's queue moves on.
func (s *sim) restartTask(ss *simSession, task trace.Task, submit time.Time) {
	ss.restarts++
	f := s.cfg.Faults
	if ss.restarts > f.RetryBudget(ss.src.SLO) {
		s.res.Abandonments++
		ss.restarts = 0
		ss.running = false
		if len(ss.queue) > 0 {
			next := ss.queue[0]
			ss.queue = ss.queue[1:]
			ss.running = true
			s.startTask(ss, next, s.now())
		}
		return
	}
	s.res.TaskRestarts++
	penalty := f.CheckpointRestore() + f.RetryBackoff()<<(ss.restarts-1)
	s.res.RecoveryTime.Add(penalty.Seconds())
	s.eng.Defer(penalty, func() {
		if ss.closed {
			return // the session ended during the backoff; its work dies with it
		}
		s.startTask(ss, task, submit)
	})
}

// noteLostGPUHours integrates the GPU time an aborted execution threw
// away, from its training start to now.
func (s *sim) noteLostGPUHours(startNS int64, gpus int) {
	s.res.LostGPUHours += time.Duration(s.now().UnixNano()-startNS).Hours() * float64(gpus)
}

// ---- federated twin ------------------------------------------------------

// fedFaultSlot builds the unique fault-stream key for a member's host:
// member index in the high bits, the member's own host sequence in the
// low bits. The spread keeps every member's slots — and the outage key
// space at 1<<32 — disjoint.
func fedFaultSlot(member, seq int) uint64 {
	return uint64(member)<<40 | uint64(seq)
}

// initFaults is the federated twin of sim.initFaults; degradation
// episodes additionally scale every inter-cluster penalty through the
// federation's SetPenaltyScale choke point for their window.
func (s *fedSim) initFaults() {
	f := s.cfg.Faults
	if !f.Enabled() {
		return
	}
	s.faultsOn = true
	s.frng = rand.New(rand.NewSource(s.cfg.Seed + 3))
	s.res.Availability = metrics.NewTimeline()
	s.res.RecoveryTime = metrics.NewSample()
	for i, o := range f.Outages {
		i, o := i, o
		s.eng.Schedule(s.start.Add(hoursDur(o.StartHour)), func() { s.outageStrike(i, o) })
	}
	for _, d := range f.Degradations {
		d := d
		at := s.start.Add(hoursDur(d.StartHour))
		s.eng.Schedule(at, func() { s.fed.SetPenaltyScale(d.Factor) })
		s.eng.Schedule(at.Add(hoursDur(d.DurationHours)), func() { s.fed.SetPenaltyScale(1) })
	}
}

func (s *fedSim) noteHosts(d float64) {
	if s.res.Availability != nil {
		s.res.Availability.Delta(s.now(), d)
	}
}

func (s *fedSim) armHostFaults(fh *fedHost, seq int) {
	s.noteHosts(1)
	if up, down := s.cfg.Faults.HostFault(s.cfg.Seed, fedFaultSlot(fh.member, seq)); up > 0 {
		s.eng.Defer(up, func() { s.crashHost(fh, down) })
	}
}

// crashHost is the federated sim.crashHost: forced removal from the
// member cluster, session repair across the federation, replacement in
// the same member after the repair time.
func (s *fedSim) crashHost(fh *fedHost, down time.Duration) {
	m := s.members[fh.member]
	idx := -1
	for i, x := range m.hosts {
		if x == fh {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	if err := m.c.CrashHost(fh.h.ID); err != nil {
		return
	}
	m.hosts = append(m.hosts[:idx], m.hosts[idx+1:]...)
	delete(s.byHost, fh.h)
	s.res.HostCrashes++
	s.noteHosts(-1)
	s.repairSessions(fh)
	s.sampleProvisioned()
	member := fh.member
	s.eng.Defer(down, func() {
		s.addHost(member)
		s.res.HostRecoveries++
		s.sampleProvisioned()
	})
}

// outageStrike executes outage window idx across the federation: members
// in index order, hosts in list order, each live host in a matching
// member killed with probability HostFraction. An outage scoped to a
// member name hits only that member; an unscoped one hits every member.
func (s *fedSim) outageStrike(idx int, o trace.OutageSpec) {
	r := s.cfg.Faults.OutageRNG(s.cfg.Seed, idx)
	var victims []*fedHost
	for _, m := range s.members {
		if o.Cluster != "" && o.Cluster != m.spec.Name {
			continue
		}
		for _, fh := range m.hosts {
			if r.Float64() < o.HostFraction {
				victims = append(victims, fh)
			}
		}
	}
	down := hoursDur(o.DurationHours)
	for _, fh := range victims {
		s.crashHost(fh, down)
	}
}

// repairSessions applies the replicated-kernel failure semantics (see
// sim.repairNbos — the federated policy is always NotebookOS) to every
// live session touched by the crash of fh.
func (s *fedSim) repairSessions(fh *fedHost) {
	h := fh.h
	for _, ss := range s.faultSessions {
		alive, lost := 0, 0
		for i, rfh := range ss.hosts {
			if rfh == fh {
				ss.hosts[i] = nil
				lost++
			} else if rfh != nil {
				alive++
			}
		}
		execDied := ss.cur != nil && ss.cur.runsOn(h)
		if lost == 0 && !execDied {
			continue
		}
		quorum := 2*alive > len(ss.hosts)
		if lost > 0 && quorum {
			s.res.Failovers++
			elect := s.cfg.Latencies.Election(s.frng)
			s.res.RecoveryTime.Add(elect.Seconds())
		}
		for i, rfh := range ss.hosts {
			if rfh == nil {
				s.rehomeReplica(ss, i)
			}
		}
		if ss.cur != nil && (execDied || (lost > 0 && !quorum)) {
			s.abortRestart(ss)
		}
	}
}

// rehomeReplica is the federated sim.rehomeReplica: clusters are tried in
// route-policy order from the session's home, most-idle host within the
// first cluster that has a candidate.
func (s *fedSim) rehomeReplica(ss *fedSession, slot int) bool {
	var target *fedHost
	for _, idx := range s.cfg.Route.Order(s.fed, ss.home, &s.route) {
		bestIdle := -1
		for _, fh := range s.members[idx].hosts {
			if fedHostsContain(ss.hosts, fh) {
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
		return false
	}
	if target.warm > 0 {
		target.warm--
		s.res.WarmStarts++
		tfh := target
		s.eng.Defer(s.cfg.Latencies.ColdStart(s.frng), func() { tfh.warm++ })
	} else {
		s.res.ColdStarts++
	}
	_ = target.h.PlaceReplica(ss.replicaKeyFor(slot+1), ss.req)
	ss.hosts[slot] = target
	return true
}

func (s *fedSim) abortRestart(ss *fedSession) {
	task, submit := ss.cur.abort()
	ss.cur = nil
	s.restartTask(ss, task, submit)
}

// restartTask is the federated sim.restartTask: same checkpoint-restore
// penalty, backoff, and SLO-class-aware budget, resubmitting through the
// federated task path (and so through the shared capacity wait-queue).
func (s *fedSim) restartTask(ss *fedSession, task trace.Task, submit time.Time) {
	ss.restarts++
	f := s.cfg.Faults
	if ss.restarts > f.RetryBudget(ss.src.SLO) {
		s.res.Abandonments++
		ss.restarts = 0
		ss.running = false
		if len(ss.queue) > 0 {
			next := ss.queue[0]
			ss.queue = ss.queue[1:]
			ss.running = true
			s.runTask(ss, next, s.now())
		}
		return
	}
	s.res.TaskRestarts++
	penalty := f.CheckpointRestore() + f.RetryBackoff()<<(ss.restarts-1)
	s.res.RecoveryTime.Add(penalty.Seconds())
	s.eng.Defer(penalty, func() {
		if ss.closed {
			return // the session ended during the backoff; its work dies with it
		}
		s.runTask(ss, task, submit)
	})
}

func (s *fedSim) noteLostGPUHours(startNS int64, gpus int) {
	s.res.LostGPUHours += time.Duration(s.now().UnixNano()-startNS).Hours() * float64(gpus)
}
