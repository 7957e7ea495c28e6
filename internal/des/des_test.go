package des

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

func TestRunExecutesInTimeOrder(t *testing.T) {
	e := New(t0)
	var order []int
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if got := e.Now().Sub(t0); got != 3*time.Second {
		t.Fatalf("Now = +%v, want +3s", got)
	}
	if e.Steps() != 3 {
		t.Fatalf("Steps = %d", e.Steps())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := New(t0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := New(t0)
	var fired []time.Duration
	e.After(time.Second, func() {
		fired = append(fired, e.Now().Sub(t0))
		e.After(time.Second, func() {
			fired = append(fired, e.Now().Sub(t0))
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v", fired)
	}
}

func TestCancel(t *testing.T) {
	e := New(t0)
	ran := false
	ev := e.After(time.Second, func() { ran = true })
	ev.Cancel()
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() should be true")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(t0)
	var fired int
	for i := 1; i <= 10; i++ {
		e.After(time.Duration(i)*time.Minute, func() { fired++ })
	}
	e.RunUntil(t0.Add(5 * time.Minute))
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if !e.Now().Equal(t0.Add(5 * time.Minute)) {
		t.Fatalf("Now = %v", e.Now())
	}
	e.Run()
	if fired != 10 {
		t.Fatalf("fired = %d, want 10", fired)
	}
}

func TestStop(t *testing.T) {
	e := New(t0)
	var fired int
	e.After(time.Second, func() { fired++; e.Stop() })
	e.After(2*time.Second, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (stopped)", fired)
	}
	e.Run() // resume
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 after resume", fired)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	e := New(t0)
	var at time.Time
	e.After(time.Hour, func() {
		e.At(t0, func() { at = e.Now() }) // t0 is in the past by then
	})
	e.Run()
	if !at.Equal(t0.Add(time.Hour)) {
		t.Fatalf("past event ran at %v, want clamp to now", at)
	}
}

// Property: regardless of insertion order, events fire in non-decreasing
// time order and the engine executes exactly the non-cancelled ones.
func TestOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := New(t0)
		n := 50 + r.Intn(100)
		canceled := 0
		var fireTimes []time.Time
		for i := 0; i < n; i++ {
			d := time.Duration(r.Intn(10_000)) * time.Millisecond
			ev := e.After(d, func() { fireTimes = append(fireTimes, e.Now()) })
			if r.Intn(5) == 0 {
				ev.Cancel()
				canceled++
			}
		}
		e.Run()
		if len(fireTimes) != n-canceled {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i].Before(fireTimes[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCancelReapsImmediately: cancelling removes the event from the queue
// right away, so Len reflects only live events and long runs do not
// accumulate dead heap entries.
func TestCancelReapsImmediately(t *testing.T) {
	e := New(t0)
	evs := make([]*Event, 100)
	for i := range evs {
		evs[i] = e.After(time.Duration(i+1)*time.Second, func() {})
	}
	if e.Len() != 100 {
		t.Fatalf("Len = %d, want 100", e.Len())
	}
	for i, ev := range evs {
		if i%2 == 0 {
			ev.Cancel()
		}
	}
	if e.Len() != 50 {
		t.Fatalf("Len after cancelling half = %d, want 50", e.Len())
	}
	fired := 0
	e.Run()
	if fired = int(e.Steps()); fired != 50 {
		t.Fatalf("fired %d events, want 50", fired)
	}
	if e.Len() != 0 {
		t.Fatalf("Len after run = %d, want 0", e.Len())
	}
}

// TestScheduleRecyclesDeterministically: the no-handle Schedule/Defer path
// recycles event allocations without disturbing (time, seq) ordering.
func TestScheduleRecyclesDeterministically(t *testing.T) {
	run := func() []int {
		e := New(t0)
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			d := time.Duration((i*7919)%100) * time.Millisecond
			e.Defer(d, func() {
				order = append(order, i)
				if i%3 == 0 {
					e.Defer(time.Millisecond, func() { order = append(order, 1000+i) })
				}
			})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Ties must still break by scheduling sequence.
	e := New(t0)
	var tie []int
	for i := 0; i < 10; i++ {
		i := i
		e.Defer(time.Second, func() { tie = append(tie, i) })
	}
	e.Run()
	for i, v := range tie {
		if v != i {
			t.Fatalf("tie order = %v, want FIFO", tie)
		}
	}
}

// TestCancelInterleavedWithPooled: cancellable and pooled events coexist
// on one queue; removal keeps the heap invariant intact.
func TestCancelInterleavedWithPooled(t *testing.T) {
	e := New(t0)
	var fired []int
	var cancels []*Event
	for i := 0; i < 200; i++ {
		i := i
		d := time.Duration((i*131)%977) * time.Millisecond
		if i%2 == 0 {
			cancels = append(cancels, e.After(d, func() { fired = append(fired, i) }))
		} else {
			e.Schedule(t0.Add(d), func() { fired = append(fired, i) })
		}
	}
	for i, ev := range cancels {
		if i%2 == 0 {
			ev.Cancel()
		}
	}
	e.Run()
	want := 200 - (len(cancels)+1)/2
	if len(fired) != want {
		t.Fatalf("fired %d events, want %d", len(fired), want)
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d after run", e.Len())
	}
}

// TestReservePreservesBehavior: Reserve is a pure capacity hint — firing
// order, Len, and recycling are unchanged whether or not (and whenever)
// it is called, and reserved engines run identically to unreserved ones.
func TestReservePreservesBehavior(t *testing.T) {
	run := func(reserve bool) []int {
		e := New(t0)
		if reserve {
			e.Reserve(128)
		}
		var order []int
		for i := 0; i < 60; i++ {
			i := i
			e.Defer(time.Duration((i*104729)%50)*time.Millisecond, func() {
				order = append(order, i)
			})
		}
		if reserve {
			e.Reserve(16) // shrinking hints are no-ops
		}
		e.Run()
		return order
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestArenaPooledEventsRecycle: far more Schedule calls than the peak
// pending count must not grow allocations linearly — fired events return
// to the arena-backed free list and are reused.
func TestArenaPooledEventsRecycle(t *testing.T) {
	e := New(t0)
	fired := 0
	var chain func()
	chain = func() {
		fired++
		if fired < 10000 {
			e.Defer(time.Millisecond, chain)
		}
	}
	e.Defer(0, chain)
	e.Run()
	if fired != 10000 {
		t.Fatalf("fired = %d", fired)
	}
	// Peak pending was 1, so the free list must have stayed at the first
	// arena block's size rather than growing with the 10k schedules.
	if len(e.free) > 64 {
		t.Fatalf("free list grew to %d; pooled events are not recycling", len(e.free))
	}
}

// stepper is a Runner that re-schedules itself a fixed number of times.
type stepper struct {
	e     *Engine
	left  int
	fired []time.Duration
}

func (s *stepper) Fire() {
	s.fired = append(s.fired, s.e.Now().Sub(t0))
	if s.left--; s.left > 0 {
		s.e.DeferRunner(time.Second, s)
	}
}

func TestRunnerInterleavesWithHandlers(t *testing.T) {
	e := New(t0)
	s := &stepper{e: e, left: 3}
	e.ScheduleRunner(t0.Add(time.Second), s)
	var handlerAt []time.Duration
	e.Defer(90*time.Second, func() { handlerAt = append(handlerAt, e.Now().Sub(t0)) })
	e.DeferRunner(2500*time.Millisecond, &stepper{e: e, left: 1, fired: s.fired})
	e.Run()
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if len(s.fired) != 3 {
		t.Fatalf("stepper fired %d times: %v", len(s.fired), s.fired)
	}
	for i, w := range want {
		if s.fired[i] != w {
			t.Fatalf("stepper fired at %v, want %v", s.fired, want)
		}
	}
	if len(handlerAt) != 1 || handlerAt[0] != 90*time.Second {
		t.Fatalf("handler fired at %v", handlerAt)
	}
	if e.Steps() != 5 {
		t.Fatalf("Steps = %d, want 5", e.Steps())
	}
}

func TestRunnerScheduleAllocs(t *testing.T) {
	e := New(t0)
	e.Reserve(4)
	s := &stepper{e: e, left: 1 << 30}
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleRunner(e.Now(), s)
		e.step()
	})
	if allocs > 0 {
		t.Fatalf("ScheduleRunner+step allocates %.1f per op, want 0", allocs)
	}
}

func TestLateEventsLoseAllTies(t *testing.T) {
	e := New(t0)
	var order []string
	at := t0.Add(time.Second)
	// A late event scheduled FIRST still fires after normal events at the
	// same instant — including normal events scheduled afterwards.
	e.ScheduleLate(at, func() { order = append(order, "late1") })
	e.Schedule(at, func() { order = append(order, "a") })
	e.DeferLate(time.Second, func() { order = append(order, "late2") })
	e.Schedule(at, func() { order = append(order, "b") })
	e.Schedule(at.Add(time.Second), func() { order = append(order, "next") })
	e.Run()
	want := []string{"a", "b", "late1", "late2", "next"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// seqChain is a test chain of reserved-sequence events. In lazy mode each
// step schedules its successor from Fire (the arrival-cursor pattern); in
// eager mode every step is scheduled when the chain is created.
type seqChain struct {
	e     *Engine
	id    int
	lazy  bool
	times []time.Time
	// spawn[i] >= 0 makes step i schedule a handler that far ahead.
	spawn []time.Duration
	seq   int64
	log   *[]string
}

func (c *seqChain) start() {
	c.seq = c.e.ReserveSeqs(len(c.times))
	for i := range c.times {
		if i > 0 && c.lazy {
			break
		}
		c.e.ScheduleRunnerSeq(c.times[i], c.seq+int64(i), chainStep{c, i})
	}
}

type chainStep struct {
	c *seqChain
	i int
}

func (s chainStep) Fire() {
	c := s.c
	logf(c.log, c.e, "c%d.%d", c.id, s.i)
	if d := c.spawn[s.i]; d >= 0 {
		id, i := c.id, s.i
		c.e.Schedule(c.e.Now().Add(d), func() { logf(c.log, c.e, "c%d.%d.child", id, i) })
	}
	if c.lazy && s.i+1 < len(c.times) {
		c.e.ScheduleRunnerSeq(c.times[s.i+1], c.seq+int64(s.i+1), chainStep{c, s.i + 1})
	}
}

func logf(log *[]string, e *Engine, format string, args ...any) {
	*log = append(*log, fmt.Sprintf(format, args...)+"@"+e.Now().Sub(t0).String())
}

// playReservedWorkload builds the workload seed describes and runs it,
// with every seqChain lazy or eager, returning the fire log and engine.
// Times sit on a one-second grid over 20 s so same-instant ties between
// chain steps, handler-scheduled events, late ticks and cancelled At
// handles are common. Apart from when chain links are pushed, the engine
// calls depend only on seed and on the fire order.
func playReservedWorkload(seed int64, lazy bool) ([]string, *Engine) {
	r := rand.New(rand.NewSource(seed))
	e := New(t0)
	var log []string
	grid := func(from int) int { return from + r.Intn(21-from) }
	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

	// Late ticks every 2 s, each re-arming the next.
	var tick func()
	tick = func() {
		logf(&log, e, "tick")
		if e.Now().Before(at(20)) {
			e.DeferLate(2*time.Second, tick)
		}
	}
	e.ScheduleLate(t0, tick)

	for id, n := 0, 4+r.Intn(10); id < n; id++ {
		created := 0
		if r.Intn(2) == 0 {
			created = grid(0)
		}
		c := &seqChain{e: e, id: id, lazy: lazy, log: &log}
		sec := created
		for k := r.Intn(6); k > 0; k-- { // k == 0 covers ReserveSeqs(0)
			sec = grid(sec)
			c.times = append(c.times, at(sec))
			d := time.Duration(-1)
			if r.Intn(2) == 0 {
				d = time.Duration(r.Intn(3)) * time.Second
			}
			c.spawn = append(c.spawn, d)
		}
		if created == 0 {
			c.start()
		} else {
			// A chain created by a handler reserves its numbers between
			// the sequence numbers of events other handlers schedule.
			e.Schedule(at(created), func() { logf(&log, e, "c%d.create", c.id); c.start() })
		}
	}

	for id, n := 0, r.Intn(8); id < n; id++ {
		sec := grid(0)
		ev := e.At(at(sec), func() { logf(&log, e, "at%d", id) })
		switch r.Intn(3) {
		case 0:
			ev.Cancel()
		case 1:
			// Cancelled from a handler at or before its own instant; at the
			// same instant the At may already have fired (a no-op cancel).
			e.Schedule(at(r.Intn(sec+1)), func() { logf(&log, e, "cancel-at%d", id); ev.Cancel() })
		}
	}

	for id, n := 0, r.Intn(10); id < n; id++ {
		e.ScheduleRunner(at(grid(0)), &stepper{e: e, left: 1 + r.Intn(3)})
		e.Schedule(at(grid(0)), func() { logf(&log, e, "h%d", id) })
	}
	e.Run()
	return log, e
}

// TestReservedSeqsMatchEagerOrder: chaining reserved-sequence events one
// at a time fires every event in the same order, at the same instant, as
// scheduling the whole chain up front with the same numbers.
func TestReservedSeqsMatchEagerOrder(t *testing.T) {
	f := func(seed int64) bool {
		eager, ee := playReservedWorkload(seed, false)
		lazy, le := playReservedWorkload(seed, true)
		if len(eager) != len(lazy) || ee.Steps() != le.Steps() || le.PeakLen() > ee.PeakLen() {
			t.Logf("seed %d: %d vs %d logged, steps %d vs %d, peak %d vs %d",
				seed, len(eager), len(lazy), ee.Steps(), le.Steps(), ee.PeakLen(), le.PeakLen())
			return false
		}
		for i := range eager {
			if eager[i] != lazy[i] {
				t.Logf("seed %d: event %d eager %s, lazy %s", seed, i, eager[i], lazy[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReserveSeqsZero: an empty reservation claims no number.
func TestReserveSeqsZero(t *testing.T) {
	e := New(t0)
	e.Schedule(t0, func() {})
	a := e.ReserveSeqs(0)
	b := e.ReserveSeqs(2)
	c := e.ReserveSeqs(1)
	if a != b || c != b+2 {
		t.Fatalf("ReserveSeqs(0)=%d, ReserveSeqs(2)=%d, ReserveSeqs(1)=%d", a, b, c)
	}
}

// TestReservedSeqInPastClampsToNow: a reserved event scheduled for a past
// time fires now, as ScheduleRunner does, and keeps the tie position of
// its reservation: ahead of a same-instant event scheduled after the
// reservation, even one scheduled before the ScheduleRunnerSeq call.
func TestReservedSeqInPastClampsToNow(t *testing.T) {
	e := New(t0)
	var order []string
	seq := e.ReserveSeqs(1)
	e.Schedule(t0.Add(time.Hour), func() {
		e.Schedule(e.Now(), func() { logf(&order, e, "later") })
		e.ScheduleRunnerSeq(t0, seq, runnerFunc(func() { logf(&order, e, "reserved") }))
	})
	e.Run()
	want := []string{"reserved@1h0m0s", "later@1h0m0s"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

type runnerFunc func()

func (f runnerFunc) Fire() { f() }

// TestPeakLen: the high-water mark tracks the largest pending count,
// including events later cancelled, and survives the queue draining.
func TestPeakLen(t *testing.T) {
	e := New(t0)
	for i := 0; i < 5; i++ {
		e.After(time.Second, func() {})
	}
	ev := e.After(time.Second, func() {})
	ev.Cancel()
	e.Run()
	if e.PeakLen() != 6 || e.Len() != 0 {
		t.Fatalf("PeakLen = %d, Len = %d; want 6, 0", e.PeakLen(), e.Len())
	}
}

// arrivalChain is BenchmarkEngine's cursor: a chain of reserved-sequence
// arrivals that reserves a new block of numbers each time one runs out,
// like a stream of sessions with 64 tasks each.
type arrivalChain struct {
	e      *Engine
	b      *bgEvent
	left   *int
	seq    int64
	next   int
	delays []time.Duration
}

// bgEvent is the background runtime event each arrival schedules.
type bgEvent struct{}

func (bgEvent) Fire() {}

func (c *arrivalChain) Fire() {
	if *c.left--; *c.left <= 0 {
		return
	}
	c.next++
	if c.next == 64 {
		c.seq, c.next = c.e.ReserveSeqs(64), 0
	}
	d := c.delays[(int(c.seq)+c.next)%len(c.delays)]
	c.e.ScheduleRunnerSeq(c.e.Now().Add(d), c.seq+int64(c.next), c)
	c.e.DeferRunner(d/2, c.b)
}

// BenchmarkEngine churns 1024 chained reserved-sequence arrival streams,
// each arrival scheduling one background runtime event, on a
// millisecond grid where ties are common. One op is one arrival (plus its
// background event).
func BenchmarkEngine(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 4093)
	for i := range delays {
		delays[i] = time.Duration(1+r.Intn(2000)) * time.Millisecond
	}
	e := New(t0)
	e.Reserve(4096)
	left := b.N
	bg := &bgEvent{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 1024; i++ {
		c := &arrivalChain{e: e, b: bg, left: &left, delays: delays, seq: e.ReserveSeqs(64)}
		e.ScheduleRunnerSeq(t0.Add(delays[i]), c.seq, c)
	}
	e.Run()
	b.ReportMetric(float64(e.PeakLen()), "peak-pending")
}
