package sim

import (
	"math/rand"
	"time"

	"notebookos/internal/metrics"
	"notebookos/internal/trace"
)

// Fault injection
//
// This file wires trace.FaultSpec's deterministic fault streams into the
// discrete-event simulator as first-class events: per-host crash/recover
// pairs armed when each host joins, scheduled outage windows, and (in
// federated runs) network-degradation episodes that scale every
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
// (their ss.replicas slot goes nil). A NotebookOS session that keeps raft
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
	// runsOn reports whether the task's executor lives on sh.
	runsOn(sh *simHost) bool
	// abort cancels the machine — later Fire events no-op, training
	// accounting unwinds, committed GPUs release — and returns the task
	// and its original submit time for resubmission.
	abort() (trace.Task, time.Time)
}

// initFaults arms the run's fault layer: the dedicated crash-path RNG,
// the availability/recovery recorders, one event per outage window, and
// the degradation episodes, which scale every inter-cluster penalty
// through the federation's SetPenaltyScale choke point for their window.
// Per-host crash clocks arm in addHost as each host joins. A single-
// cluster Run applies only unscoped outages and has no inter-cluster
// links to degrade. A disabled spec leaves the sim untouched.
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
		if o.Cluster != "" && s.one != nil {
			continue // member-scoped outages apply only to federated runs
		}
		i, o := i, o
		s.eng.Schedule(s.start.Add(hoursDur(o.StartHour)), func() { s.outageStrike(i, o) })
	}
	if s.one != nil {
		return
	}
	for _, d := range f.Degradations {
		d := d
		at := s.start.Add(hoursDur(d.StartHour))
		s.eng.Schedule(at, func() { s.fed.SetPenaltyScale(d.Factor) })
		s.eng.Schedule(at.Add(hoursDur(d.DurationHours)), func() { s.fed.SetPenaltyScale(1) })
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

// faultSlot builds the unique fault-stream key for a member's host:
// member index in the high bits, the member's own host sequence in the
// low bits. The spread keeps every member's slots — and the outage key
// space at 1<<32 — disjoint; member 0's slots are its plain sequence
// numbers.
func faultSlot(member, seq int) uint64 {
	return uint64(member)<<40 | uint64(seq)
}

// armHostFaults gives a freshly joined host its availability tick and its
// deterministic crash clock: the (uptime, downtime) pair is a pure
// function of (spec, seed, host slot), so replays see the identical
// stream.
func (s *sim) armHostFaults(sh *simHost, seq int) {
	s.noteHosts(1)
	if up, down := s.cfg.Faults.HostFault(s.cfg.Seed, faultSlot(sh.member, seq)); up > 0 {
		s.eng.Defer(up, func() { s.crashHost(sh, down) })
	}
}

// crashHost kills one host: it leaves its member cluster immediately
// (forced removal — resident replicas die with it), affected sessions
// repair (failover or abort+restart), and a fresh replacement host joins
// the same member after the repair time. A host that already left by
// scale-in makes the crash a no-op: its clock died with it.
func (s *sim) crashHost(sh *simHost, down time.Duration) {
	m := s.members[sh.member]
	idx := -1
	for i, x := range m.hosts {
		if x == sh {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	if err := m.c.CrashHost(sh.h.ID); err != nil {
		return
	}
	m.hosts = append(m.hosts[:idx], m.hosts[idx+1:]...)
	delete(s.byHost, sh.h)
	s.res.HostCrashes++
	s.noteHosts(-1)
	s.repairSessions(sh)
	s.sampleProvisioned()
	member := sh.member
	s.eng.Defer(down, func() {
		// The replacement is a fresh host slot with its own crash clock
		// (armed in addHost), never the crashed host re-attached —
		// re-attachment would double-count its stale commitments.
		s.addHost(member)
		s.res.HostRecoveries++
		s.sampleProvisioned()
	})
}

// outageStrike executes outage window idx: members in index order, hosts
// in list order, each live host of a matching member killed independently
// with probability HostFraction, drawn from the outage's own
// deterministic RNG; every victim's replacement arrives together when the
// window closes. An outage scoped to a member name hits only that member;
// an unscoped one hits every member.
func (s *sim) outageStrike(idx int, o trace.OutageSpec) {
	r := s.cfg.Faults.OutageRNG(s.cfg.Seed, idx)
	var victims []*simHost
	for _, m := range s.members {
		if o.Cluster != "" && o.Cluster != m.spec.Name {
			continue
		}
		for _, sh := range m.hosts {
			if r.Float64() < o.HostFraction {
				victims = append(victims, sh)
			}
		}
	}
	down := hoursDur(o.DurationHours)
	for _, sh := range victims {
		s.crashHost(sh, down)
	}
}

// repairSessions repairs every live session touched by the crash of sh,
// in arrival order.
func (s *sim) repairSessions(sh *simHost) {
	for _, ss := range s.faultSessions {
		switch s.policy {
		case PolicyNotebookOS:
			s.repairNbos(ss, sh)
		case PolicyReservation:
			s.repairReservation(ss, sh)
		default:
			// Batch and LCP run per-task containers with no replicas:
			// only a task executing on the crashed host is affected.
			if ss.cur != nil && ss.cur.runsOn(sh) {
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
func (s *sim) repairNbos(ss *simSession, sh *simHost) {
	alive, lost := 0, 0
	for i, r := range ss.replicas {
		if r.sh == sh {
			ss.replicas[i] = replicaRef{}
			lost++
		} else if r.sh != nil {
			alive++
		}
	}
	execDied := ss.cur != nil && ss.cur.runsOn(sh)
	if lost == 0 && !execDied {
		return
	}
	quorum := 2*alive > len(ss.replicas)
	if lost > 0 && quorum {
		s.res.Failovers++
		elect := s.cfg.Latencies.Election(s.frng)
		s.res.RecoveryTime.Add(elect.Seconds())
	}
	for i, r := range ss.replicas {
		if r.sh == nil {
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
func (s *sim) repairReservation(ss *simSession, sh *simHost) {
	if len(ss.replicas) == 0 || ss.replicas[0].sh != sh {
		return
	}
	if ss.cur != nil && ss.cur.runsOn(sh) {
		s.abortRestart(ss)
	}
	nh := s.hostWithIdle(ss.home, ss.req)
	if nh == nil {
		nh = s.addHost(ss.home)
	}
	if err := nh.h.Commit(ss.holder, ss.req); err != nil {
		// A fresh host always fits a valid request.
		panic(err)
	}
	ss.replicas[0].sh = nh
}

// rehomeReplica rebuilds the dead replica in slot `slot` on the most-idle
// host outside the session's replica set — members tried in route-policy
// order from the session's home, the first member with a candidate wins —
// charging a warm attach (pool permitting) or cold start off the task's
// critical path. Reports false — the slot stays nil, for a later
// migration or crash repair to fill — when no candidate host exists.
func (s *sim) rehomeReplica(ss *simSession, slot int) bool {
	var target *simHost
	for _, idx := range s.cfg.Route.Order(s.fed, ss.home, &s.route) {
		bestIdle := -1
		for _, sh := range s.members[idx].hosts {
			if hostsContain(ss.replicas, sh) {
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
	rh, _ := target.h.PlaceReplica(ss.req)
	ss.replicas[slot] = replicaRef{sh: target, rh: rh}
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
// tails, and the resubmission goes through the policy's task path (and so
// through the shared capacity wait-queue). An exhausted budget abandons
// the task — counted, never silently dropped — and the session's queue
// moves on.
func (s *sim) restartTask(ss *simSession, task trace.Task, submit time.Time) {
	ss.restarts++
	f := s.cfg.Faults
	if ss.restarts > f.RetryBudget(ss.src.SLO) {
		s.res.Abandonments++
		ss.restarts = 0
		ss.running = false
		s.startNext(ss)
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

// noteLostGPUHours integrates the GPU time an aborted execution threw
// away, from its training start to now.
func (s *sim) noteLostGPUHours(startNS int64, gpus int) {
	s.res.LostGPUHours += time.Duration(s.now().UnixNano()-startNS).Hours() * float64(gpus)
}
