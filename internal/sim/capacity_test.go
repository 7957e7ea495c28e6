package sim

import (
	"strings"
	"testing"
	"time"

	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// TestOversizedSessionIsAnError: a session whose request does not fit one
// host can never be placed. Every runner must reject it with an error that
// names the session and the capacity — never panic, never silently drop
// the session or its tasks. Materialized traces are rejected before the
// run; streamed sessions at injection.
func TestOversizedSessionIsAnError(t *testing.T) {
	small := resources.Spec{Millicpus: 16000, MemoryMB: 122 << 10, GPUs: 2, VRAMGB: 32}
	gcfg := trace.AdobeExcerptConfig(42)
	gcfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(gcfg)
	var big *trace.Session
	for _, sess := range tr.Sessions {
		if !sess.Request.Fits(small) {
			big = sess
			break
		}
	}
	if big == nil {
		t.Fatal("excerpt has no session larger than a 2-GPU host")
	}

	type runner struct {
		name string
		run  func() error
	}
	var runners []runner
	for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
		p := p
		cfg := Config{Trace: tr, Policy: p, Hosts: 8, HostCapacity: small, Seed: 42}
		stream := Config{Source: tr.AsSource(), Policy: p, Hosts: 8, HostCapacity: small, Seed: 42}
		runners = append(runners,
			runner{string(p) + "/Run", func() error { _, err := Run(cfg); return err }},
			runner{string(p) + "/Run-stream", func() error { _, err := Run(stream); return err }},
			runner{string(p) + "/RunSharded", func() error { _, err := RunSharded(cfg, 2); return err }},
		)
	}
	lease := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 8, HostCapacity: small, Seed: 42, ShardCapacity: LeasePool}
	streamCfg := Config{Policy: PolicyNotebookOS, Hosts: 8, HostCapacity: small, Seed: 42}
	streamLease := streamCfg
	streamLease.ShardCapacity = LeasePool
	fedSpecs := func() []FedClusterSpec {
		specs := DefaultFedClusters(2, 8)
		for i := range specs {
			specs[i].HostCapacity = small
		}
		return specs
	}
	fed := FedConfig{Trace: tr, Clusters: fedSpecs(), Seed: 42}
	fedStream := FedConfig{Source: tr.AsSource(), Clusters: fedSpecs(), Seed: 42}
	fedLease := FedConfig{Trace: tr, Clusters: fedSpecs(), Seed: 42, ShardCapacity: LeasePool}
	runners = append(runners,
		runner{"lease/RunSharded", func() error { _, err := RunSharded(lease, 2); return err }},
		runner{"RunStreamSharded", func() error { _, err := RunStreamSharded(gcfg, streamCfg, 2); return err }},
		runner{"lease/RunStreamSharded", func() error { _, err := RunStreamSharded(gcfg, streamLease, 2); return err }},
		runner{"RunFederated", func() error { _, err := RunFederated(fed); return err }},
		runner{"RunFederated-stream", func() error { _, err := RunFederated(fedStream); return err }},
		runner{"RunFederatedSharded", func() error { _, err := RunFederatedSharded(fed, 2); return err }},
		runner{"lease/RunFederatedSharded", func() error { _, err := RunFederatedSharded(fedLease, 2); return err }},
	)
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			err := r.run()
			if err == nil {
				t.Fatal("oversized session accepted")
			}
			msg := err.Error()
			if !strings.Contains(msg, "sim: session ") || !strings.Contains(msg, small.String()) {
				t.Fatalf("error %q does not name the session and the host capacity", msg)
			}
		})
	}

	// A federation with mixed host sizes places a session too large for
	// its home member's hosts on a member whose hosts fit it, so the check
	// must not reject such a session up front: the excerpt asks for 8 GPUs
	// in some sessions, more than the 4-GPU member's hosts.
	mixed := []FedClusterSpec{
		{Name: "large", Hosts: 16},
		{Name: "mid", Hosts: 8},
		{Name: "small-4gpu", Hosts: 12, HostCapacity: resources.P316xlarge().Scale(0.5)},
	}
	halfHost := resources.P316xlarge().Scale(0.5)
	oversizedHome := 0
	for i, sess := range tr.Sessions {
		if i%len(mixed) == 2 && !sess.Request.Fits(halfHost) {
			oversizedHome++
		}
	}
	if oversizedHome == 0 {
		t.Fatal("no excerpt session is too large for its 4-GPU home member")
	}
	mixedFed := FedConfig{Trace: tr, Clusters: mixed, Seed: 42}
	mixedStream := FedConfig{Source: tr.AsSource(), Clusters: mixed, Seed: 42}
	mixedLease := FedConfig{Trace: tr, Clusters: mixed, Seed: 42, ShardCapacity: LeasePool}
	for _, r := range []runner{
		{"mixed/RunFederated", func() error { _, err := RunFederated(mixedFed); return err }},
		{"mixed/RunFederated-stream", func() error { _, err := RunFederated(mixedStream); return err }},
		{"mixed/RunFederatedSharded", func() error { _, err := RunFederatedSharded(mixedFed, 2); return err }},
		{"mixed/lease/RunFederatedSharded", func() error { _, err := RunFederatedSharded(mixedLease, 2); return err }},
	} {
		t.Run(r.name, func(t *testing.T) {
			if err := r.run(); err != nil {
				t.Fatalf("session that fits another member rejected: %v", err)
			}
		})
	}
	if res, err := RunFederated(mixedFed); err != nil || res.Tasks != tr.NumTasks() {
		t.Fatalf("mixed federation: err %v, want every one of %d tasks run", err, tr.NumTasks())
	}

	// A session that fits only another member's hosts, when that member
	// cannot take it, is an error too. The home member (index 0) has 2-GPU
	// hosts; the other has 8-GPU hosts but only two, fewer than the three
	// replicas a kernel needs, and only the home member scales out.
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	lone := &trace.Trace{
		Name: "lone", Start: t0, End: t0.Add(2 * time.Hour), Granularity: time.Minute,
		Sessions: []*trace.Session{{
			ID: "lone-0", Start: t0.Add(time.Minute), End: t0.Add(time.Hour),
			Request: resources.Spec{Millicpus: 4000, MemoryMB: 16 << 10, GPUs: 4, VRAMGB: 16},
			Tasks:   []trace.Task{{Submit: t0.Add(2 * time.Minute), Duration: time.Minute, GPUs: 4}},
		}},
	}
	stranded := []FedClusterSpec{
		{Name: "home-2gpu", Hosts: 4, HostCapacity: small},
		{Name: "two-large", Hosts: 2},
	}
	for _, cfg := range []FedConfig{
		{Trace: lone, Clusters: stranded, Seed: 42},
		{Source: lone.AsSource(), Clusters: stranded, Seed: 42},
	} {
		_, err := RunFederated(cfg)
		if err == nil || !strings.Contains(err.Error(), "session lone-0 ") ||
			!strings.Contains(err.Error(), small.String()) {
			t.Fatalf("stranded session: error %v, want one naming lone-0 and %v", err, small)
		}
	}

	// The first oversized session of the materialized trace is the one
	// named by the up-front check.
	if _, err := Run(Config{Trace: tr, Policy: PolicyBatch, HostCapacity: small}); err == nil ||
		!strings.Contains(err.Error(), "session "+big.ID+" ") {
		t.Fatalf("Run error %v does not name session %s", err, big.ID)
	}
}

// TestMalformedSessionIsAnError: each session's task arrivals are chained
// one at a time, which needs its tasks sorted by Submit within the
// session's lifetime. Admission checks that (trace.Session.Validate), so
// every runner rejects a malformed session with an error naming it rather
// than replaying its tasks at the wrong instant.
func TestMalformedSessionIsAnError(t *testing.T) {
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	req := resources.Spec{Millicpus: 4000, MemoryMB: 16 << 10, GPUs: 2, VRAMGB: 16}
	session := func(id string, submits ...time.Duration) *trace.Session {
		s := &trace.Session{ID: id, Start: t0.Add(10 * time.Minute), End: t0.Add(2 * time.Hour), Request: req}
		for _, d := range submits {
			s.Tasks = append(s.Tasks, trace.Task{Submit: t0.Add(d), Duration: time.Minute, GPUs: 1})
		}
		return s
	}
	cases := []struct {
		name string
		bad  *trace.Session
		want string
	}{
		{"out-of-order", session("bad-0", 20*time.Minute, 40*time.Minute, 30*time.Minute), "session bad-0 tasks out of order"},
		{"before-start", session("bad-0", 5*time.Minute, 40*time.Minute), "session bad-0 task 0 submitted outside session"},
	}
	for _, tc := range cases {
		tr := &trace.Trace{
			Name: tc.name, Start: t0, End: t0.Add(3 * time.Hour), Granularity: time.Minute,
			Sessions: []*trace.Session{
				session("ok-0", 15*time.Minute, 50*time.Minute),
				tc.bad,
				session("ok-1", 20*time.Minute),
			},
		}
		cfg := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 8, Seed: 42}
		stream := cfg
		stream.Trace, stream.Source = nil, tr.AsSource()
		fed := FedConfig{Trace: tr, Clusters: DefaultFedClusters(2, 8), Seed: 42}
		fedStream := fed
		fedStream.Trace, fedStream.Source = nil, tr.AsSource()
		for _, r := range []struct {
			name string
			run  func() error
		}{
			{"Run", func() error { _, err := Run(cfg); return err }},
			{"Run-stream", func() error { _, err := Run(stream); return err }},
			{"RunSharded", func() error { _, err := RunSharded(cfg, 2); return err }},
			{"RunFederated", func() error { _, err := RunFederated(fed); return err }},
			{"RunFederated-stream", func() error { _, err := RunFederated(fedStream); return err }},
			{"RunFederatedSharded", func() error { _, err := RunFederatedSharded(fed, 2); return err }},
		} {
			t.Run(tc.name+"/"+r.name, func(t *testing.T) {
				if err := r.run(); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %v, want one containing %q", err, tc.want)
				}
			})
		}
	}
}

// TestSessionBeforeWindowIsAnError: a session that starts before the
// simulated window is an input error naming it, on the materialized path
// and on the Source path alike, rather than a start clamped to the window
// start.
func TestSessionBeforeWindowIsAnError(t *testing.T) {
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	req := resources.Spec{Millicpus: 4000, MemoryMB: 16 << 10, GPUs: 2, VRAMGB: 16}
	session := func(id string, start time.Duration) *trace.Session {
		return &trace.Session{ID: id, Start: t0.Add(start), End: t0.Add(2 * time.Hour), Request: req,
			Tasks: []trace.Task{{Submit: t0.Add(30 * time.Minute), Duration: time.Minute, GPUs: 1}}}
	}
	tr := &trace.Trace{
		Name: "early", Start: t0, End: t0.Add(3 * time.Hour), Granularity: time.Minute,
		Sessions: []*trace.Session{session("early-0", -5*time.Minute), session("ok-0", 10*time.Minute)},
	}
	const want = "session early-0 starts at 2023-12-31T23:55:00Z, before the window start"
	materialized := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 8, Seed: 42}
	source := materialized
	source.Trace, source.Source = nil, tr.AsSource()
	for _, r := range []struct {
		name string
		cfg  Config
	}{{"materialized", materialized}, {"source", source}} {
		t.Run(r.name, func(t *testing.T) {
			if _, err := Run(r.cfg); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("error %v, want one containing %q", err, want)
			}
		})
	}
}
