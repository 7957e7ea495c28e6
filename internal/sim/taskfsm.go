package sim

import (
	"time"

	"notebookos/internal/trace"
)

// Task state machines
//
// Each policy's task pipeline used to be a chain of nested closures: the
// commit handler allocated the training-start closure, which allocated the
// completion closure, which allocated the return closure — three to four
// heap allocations (plus captured-variable boxes) per executed task, the
// last per-task allocation source left in the hot path. Each pipeline is
// now a single struct implementing des.Runner: one allocation per task,
// re-scheduled phase after phase through the engine's pooled-event
// ScheduleRunner/DeferRunner (which allocate nothing).
//
// Byte-identity contract: these machines replicate the closure chains they
// replaced exactly — same event-scheduling topology (so engine sequence
// numbers, and therefore tie-breaks, are unchanged) and same RNG draw order
// within each phase. CI's benchsnap gated metrics pin this.
//
// Each machine also implements the fault layer's runningTask interface
// (faults.go): abort marks the machine dead — already-scheduled phase
// events no-op when they fire — unwinds any in-progress training
// accounting into LostGPUHours, releases the task's exclusive commit, and
// hands the task back for checkpoint-restore resubmission. The dead flag
// and tstartNS stamp cost nothing on the fault-free path and change no
// scheduling, preserving the byte-identity contract.

// resvTask drives the Reservation pipeline. Its two lead events (training
// start at submit+delay, completion at submit+delay+duration) are both
// scheduled up front, in that order, exactly as the closure version did;
// task durations are strictly positive, so the phases fire in order.
type resvTask struct {
	s      *sim
	ss     *simSession
	task   trace.Task
	submit time.Time
	delay  time.Duration
	tstart int64
	phase  uint8
	dead   bool
}

func (t *resvTask) Fire() {
	if t.dead {
		return
	}
	s := t.s
	switch t.phase {
	case 0: // training starts
		t.phase = 1
		t.tstart = s.now().UnixNano()
		s.markTraining(t.ss.home, t.task, true)
	case 1: // execution done: persist state synchronously (Fig. 16 step 9)
		t.phase = 2
		post := s.cfg.Latencies.Store.PutLatency(t.ss.assig.Model.ParamBytes, s.rng)
		s.one.WriteLatency.Add(post.Seconds())
		s.sampleStep(StepPostProc, post)
		s.sampleStep(StepExec, t.task.Duration)
		ret := s.sampleStep(StepReturn, s.cfg.Latencies.Hop(s.rng))
		s.eng.DeferRunner(post+ret, t)
	case 2: // reply returned
		s.markTraining(t.ss.home, t.task, false)
		s.finishTask(t.ss, t.submit, t.delay)
	}
}

// runsOn: a reservation task always executes on the session's reserved
// host.
func (t *resvTask) runsOn(sh *simHost) bool {
	return len(t.ss.replicas) > 0 && t.ss.replicas[0].sh == sh
}

// abort kills the machine. The session-lifetime GPU commitment stays with
// the session (repairReservation re-binds it), so nothing releases here.
func (t *resvTask) abort() (trace.Task, time.Time) {
	t.dead = true
	if t.phase >= 1 {
		t.s.markTraining(t.ss.home, t.task, false)
		t.s.noteLostGPUHours(t.tstart, t.task.GPUs)
	}
	return t.task, t.submit
}

// batchTask drives the Batch pipeline from the training-start event on
// (commit, cold start, and the delay draws happen in tryBatchTask).
type batchTask struct {
	s      *sim
	ss     *simSession
	task   trace.Task
	submit time.Time
	sh     *simHost
	delay  time.Duration
	tstart int64
	phase  uint8
	dead   bool
}

func (t *batchTask) Fire() {
	if t.dead {
		return
	}
	s := t.s
	switch t.phase {
	case 0: // training starts
		t.phase = 1
		t.tstart = s.now().UnixNano()
		s.markTraining(t.sh.member, t.task, true)
		s.eng.DeferRunner(t.task.Duration, t)
	case 1: // execution done: persist, then return
		t.phase = 2
		s.sampleStep(StepExec, t.task.Duration)
		post := s.cfg.Latencies.Store.PutLatency(t.ss.assig.Model.ParamBytes, s.rng)
		s.one.WriteLatency.Add(post.Seconds())
		s.sampleStep(StepPostProc, post)
		ret := s.sampleStep(StepReturn, s.cfg.Latencies.Hop(s.rng))
		s.eng.DeferRunner(post+ret, t)
	case 2: // reply returned; container terminates
		s.markTraining(t.sh.member, t.task, false)
		_ = t.sh.h.Release(t.ss.holder)
		s.finishTask(t.ss, t.submit, t.delay)
	}
}

func (t *batchTask) runsOn(sh *simHost) bool { return t.sh == sh }

// abort kills the machine: the per-task commit releases (a no-op charge
// on a crashed host — the cluster already dropped its aggregates) and any
// started training unwinds.
func (t *batchTask) abort() (trace.Task, time.Time) {
	t.dead = true
	if t.phase >= 1 {
		t.s.markTraining(t.sh.member, t.task, false)
		t.s.noteLostGPUHours(t.tstart, t.task.GPUs)
	}
	_ = t.sh.h.Release(t.ss.holder)
	return t.task, t.submit
}

// nbosTask drives the NotebookOS pipeline from the training-start event on
// (executor selection, commit, WAN charging, and the delay draws happen in
// tryNbosTask).
type nbosTask struct {
	s      *sim
	ss     *simSession
	task   trace.Task
	submit time.Time
	sh     *simHost
	delay  time.Duration
	tstart int64
	phase  uint8
	dead   bool
}

func (t *nbosTask) Fire() {
	if t.dead {
		return
	}
	s := t.s
	switch t.phase {
	case 0: // training starts
		t.phase = 1
		t.tstart = s.now().UnixNano()
		s.markTraining(t.sh.member, t.task, true)
		s.eng.DeferRunner(t.task.Duration, t)
	case 1: // execution done
		t.phase = 2
		s.sampleStep(StepExec, t.task.Duration)
		// State replication is off the critical path (§3.2.4): the reply
		// returns after the GPU offload only.
		off := s.sampleStep(StepPostProc, s.cfg.Latencies.Transfer.OffloadTime(t.ss.assig.Model.ParamBytes))
		ret := s.sampleStep(StepReturn, s.cfg.Latencies.Hop(s.rng))
		if r := s.one; r != nil {
			// Record the async replication costs for Fig. 11.
			r.SyncLatency.Add(s.cfg.Latencies.Sync(s.rrng).Seconds())
			r.WriteLatency.Add(s.cfg.Latencies.Store.PutLatency(t.ss.assig.Model.ParamBytes, s.rrng).Seconds())
		}
		s.eng.DeferRunner(off+ret, t)
	case 2: // reply returned
		s.markTraining(t.sh.member, t.task, false)
		_ = t.sh.h.Release(t.ss.holder)
		s.finishTask(t.ss, t.submit, t.delay)
	}
}

func (t *nbosTask) runsOn(sh *simHost) bool { return t.sh == sh }

// abort kills the machine (executor death or quorum loss — the repair
// logic in faults.go decides which): the executor's commit releases and
// any started training unwinds against the executor's member.
func (t *nbosTask) abort() (trace.Task, time.Time) {
	t.dead = true
	if t.phase >= 1 {
		t.s.markTraining(t.sh.member, t.task, false)
		t.s.noteLostGPUHours(t.tstart, t.task.GPUs)
	}
	_ = t.sh.h.Release(t.ss.holder)
	return t.task, t.submit
}

// lcpTask drives the LCP pipeline from the training-start event on (warm
// container attach and the delay draws happen in tryLCPTask). The
// container returns to the target's warm pool at completion.
type lcpTask struct {
	s      *sim
	ss     *simSession
	task   trace.Task
	submit time.Time
	target *simHost
	delay  time.Duration
	tstart int64
	phase  uint8
	dead   bool
}

func (t *lcpTask) Fire() {
	if t.dead {
		return
	}
	s := t.s
	switch t.phase {
	case 0: // training starts
		t.phase = 1
		t.tstart = s.now().UnixNano()
		s.markTraining(t.target.member, t.task, true)
		s.eng.DeferRunner(t.task.Duration, t)
	case 1: // execution done: persist, then return
		t.phase = 2
		s.sampleStep(StepExec, t.task.Duration)
		post := s.cfg.Latencies.Store.PutLatency(t.ss.assig.Model.ParamBytes, s.rng)
		s.one.WriteLatency.Add(post.Seconds())
		s.sampleStep(StepPostProc, post)
		ret := s.sampleStep(StepReturn, s.cfg.Latencies.Hop(s.rng))
		s.eng.DeferRunner(post+ret, t)
	case 2: // reply returned; container goes back to the warm pool
		s.markTraining(t.target.member, t.task, false)
		_ = t.target.h.Release(t.ss.holder)
		t.target.warm++
		s.finishTask(t.ss, t.submit, t.delay)
	}
}

func (t *lcpTask) runsOn(sh *simHost) bool { return t.target == sh }

// abort kills the machine: the commit releases, training unwinds, and the
// container does NOT return to the warm pool — it died with its host.
func (t *lcpTask) abort() (trace.Task, time.Time) {
	t.dead = true
	if t.phase >= 1 {
		t.s.markTraining(t.target.member, t.task, false)
		t.s.noteLostGPUHours(t.tstart, t.task.GPUs)
	}
	_ = t.target.h.Release(t.ss.holder)
	return t.task, t.submit
}
