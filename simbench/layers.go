package main

import (
	"fmt"
	"runtime"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/trace"
)

// span is one recorded interval: a call the benchmark made into a layer.
// Start and End are nanoseconds since the tracer started; Parent is the
// ID of the enclosing span, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// *tracer records nothing, which is how untraced executions run.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// genClock times the trace-synthesis step of a workload's set-up.
type genClock struct {
	ns time.Duration
}

// generate runs f, the set-up's trace synthesis, and times it.
func (g *genClock) generate(f func() error) error {
	t0 := time.Now()
	err := f()
	g.ns += time.Since(t0)
	return err
}

// meter measures one execution of a workload. Every sim.Run* call goes
// through sim, which brackets it with host-time, CPU, allocation and heap
// readings; the layer wrappers add their counts to it.
type meter struct {
	tr     *tracer // nil unless this execution is traced
	parent int
	traced bool

	runNs      time.Duration
	cpuNs      time.Duration
	allocBytes uint64
	peakLive   uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64

	// Source wrapper: self time between yields, and what it yielded.
	genNs    time.Duration
	sessions int
	tasks    int

	// RoutePolicy wrapper: Order calls and their total time.
	routeCalls int
	routeNs    time.Duration
}

// sim runs f, one sim.Run* call, inside the measured region.
func (m *meter) sim(name string, f func() error) error {
	runtime.GC()
	before := readHost()
	hs := startHeapSampler()
	id := m.tr.begin(name, m.parent)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	m.tr.end(id)
	peak := hs.stop()
	after := readHost()
	// A forced collection while the results are still referenced gives the
	// live heap the run ended with; the CPU-class counters only advance at
	// the end of a GC cycle, so they are read after it too.
	runtime.GC()
	final := readHost()

	m.runNs += d
	m.cpuNs += after.cpu - before.cpu
	m.allocBytes += after.allocs - before.allocs
	m.peakLive = max(m.peakLive, peak, after.live, final.live)
	m.gcCycles += after.cycles - before.cycles
	m.gcCPU += final.gcCPU - before.gcCPU
	m.totalCPU += final.cpuTotal - before.cpuTotal
	return err
}

// countedSource wraps a streaming trace.Source. It always counts the
// sessions and tasks it yields — the submitted count a streaming run is
// checked against — and, on a traced execution, also times the inner
// source's work between yields (trace.gen_s).
type countedSource struct {
	trace.Source
	m *meter
}

func (s countedSource) Sessions(yield func(*trace.Session) bool) error {
	m := s.m
	if !m.traced {
		return s.Source.Sessions(func(sess *trace.Session) bool {
			m.sessions++
			m.tasks += len(sess.Tasks)
			return yield(sess)
		})
	}
	resumed := time.Now()
	err := s.Source.Sessions(func(sess *trace.Session) bool {
		m.genNs += time.Since(resumed)
		m.sessions++
		m.tasks += len(sess.Tasks)
		ok := yield(sess)
		resumed = time.Now()
		return ok
	})
	m.genNs += time.Since(resumed)
	return err
}

// timedRoute wraps a federation.RoutePolicy and times every Order call.
// Only traced executions use it; untraced ones hand the simulator the
// policy itself.
type timedRoute struct {
	inner federation.RoutePolicy
	m     *meter
}

func (r timedRoute) Name() string { return r.inner.Name() }

func (r timedRoute) Order(f *federation.Federation, home int, scratch *federation.RouteScratch) []int {
	t0 := time.Now()
	out := r.inner.Order(f, home, scratch)
	r.m.routeNs += time.Since(t0)
	r.m.routeCalls++
	return out
}

// routeFor returns the policy a federated run should use on this
// execution: p itself, or p behind the timing wrapper when traced.
func (m *meter) routeFor(p federation.RoutePolicy) federation.RoutePolicy {
	if !m.traced {
		return p
	}
	return timedRoute{inner: p, m: m}
}

// execStats is everything measured on one execution.
type execStats struct {
	m       *meter
	reduceS float64
	out     *outcome
	failed  bool
}

// execOnce runs r once, reduces its results, and checks them.
func execOnce(r *runner, traced bool, tr *tracer, ck *checker) (*execStats, error) {
	m := &meter{traced: traced}
	if traced {
		m.tr = tr
	}
	es := &execStats{m: m}
	m.parent = m.tr.begin("execution", -1)
	defer m.tr.end(m.parent)
	reduce, err := r.exec(m)
	if err != nil {
		return nil, err
	}
	id := m.tr.begin("metrics.reduce", m.parent)
	t0 := time.Now()
	es.out = reduce()
	es.reduceS = time.Since(t0).Seconds()
	m.tr.end(id)
	ck.execution(es)
	return es, nil
}

// checker collects output-check failures across a process's executions.
type checker struct {
	attempted int
	problems  []string
	seen      map[string]bool
	first     map[string]float64
}

func (c *checker) fail(es *execStats, format string, args ...any) {
	es.failed = true
	msg := fmt.Sprintf(format, args...)
	if c.seen == nil {
		c.seen = map[string]bool{}
	}
	if !c.seen[msg] {
		c.seen[msg] = true
		c.problems = append(c.problems, msg)
	}
}

// execution applies the workload's own checks and the determinism check:
// every execution in a process, traced or not, must reproduce the first
// one's simulated values exactly.
func (c *checker) execution(es *execStats) {
	c.attempted++
	for _, p := range es.out.problems {
		c.fail(es, "%s", p)
	}
	if c.first == nil {
		c.first = es.out.exact
		return
	}
	for k, v := range c.first {
		if got, ok := es.out.exact[k]; !ok || got != v {
			c.fail(es, "execution %d: %s = %v, first execution had %v (traced=%v)", c.attempted, k, got, v, es.m.traced)
		}
	}
}

// reference checks every execution against the exact values of a
// reference run: each key the reference reports must match.
func (c *checker) reference(ref map[string]float64, all []*execStats) {
	for i, es := range all {
		for k, v := range ref {
			if got := es.out.exact[k]; got != v {
				c.fail(es, "execution %d: %s = %v, reference run has %v", i+1, k, got, v)
			}
		}
	}
}

// countFailed counts the executions that failed a check.
func countFailed(all []*execStats) int {
	n := 0
	for _, es := range all {
		if es.failed {
			n++
		}
	}
	return n
}
