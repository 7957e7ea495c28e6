package cluster_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"notebookos/internal/cluster"
	"notebookos/internal/resources"
	"notebookos/internal/scheduler"
)

// recount recomputes the cluster aggregates from scratch by scanning every
// member host — the ground truth the incremental counters must track.
func recount(c *cluster.Cluster) (total, subscribed, committed int) {
	for _, h := range c.Hosts() {
		total += h.Capacity.GPUs
		subscribed += h.Subscribed().GPUs
		committed += h.Committed().GPUs
	}
	return
}

// recountEmpty counts member hosts with no replicas and nothing committed,
// reading each host's locked replica count and its commitment pool.
func recountEmpty(c *cluster.Cluster) int {
	n := 0
	for _, h := range c.Hosts() {
		if h.NumReplicas() == 0 && h.Committed().IsZero() {
			n++
		}
	}
	return n
}

func checkAggregates(t *testing.T, c *cluster.Cluster, step string) {
	t.Helper()
	total, subscribed, committed := recount(c)
	if got := c.TotalGPUs(); got != total {
		t.Fatalf("%s: TotalGPUs = %d, recount = %d", step, got, total)
	}
	if got := c.SubscribedGPUs(); got != subscribed {
		t.Fatalf("%s: SubscribedGPUs = %d, recount = %d", step, got, subscribed)
	}
	if got := c.CommittedGPUs(); got != committed {
		t.Fatalf("%s: CommittedGPUs = %d, recount = %d", step, got, committed)
	}
	if got, want := c.EmptyHosts(), recountEmpty(c); got != want {
		t.Fatalf("%s: EmptyHosts = %d, recount = %d", step, got, want)
	}
}

// refScored is one candidate of the reference least-loaded scan.
type refScored struct {
	h      *cluster.Host
	postSR float64
	idle   int
}

// better is least-loaded order: most idle GPUs first, then lowest
// post-placement SR, then host ID.
func (a refScored) better(b refScored) bool {
	if a.idle != b.idle {
		return a.idle > b.idle
	}
	if a.postSR != b.postSR {
		return a.postSR < b.postSR
	}
	return a.h.ID < b.h.ID
}

// refTopN keeps the n best candidates in selection order.
type refTopN struct {
	buf []refScored
	cap int
}

func (t *refTopN) insert(s refScored) {
	if len(t.buf) == t.cap && t.buf[len(t.buf)-1].better(s) {
		return
	}
	i := len(t.buf)
	if i < t.cap {
		t.buf = append(t.buf, s)
	} else {
		i--
	}
	for i > 0 && s.better(t.buf[i-1]) {
		t.buf[i] = t.buf[i-1]
		i--
	}
	t.buf[i] = s
}

// refSelectHosts is the reference least-loaded placement: a full scan of
// every member host, reading each host's locked subscription and its
// commitment pool rather than the load index or the lock-free mirrors.
func refSelectHosts(c *cluster.Cluster, watermark float64, req resources.Spec, n int) ([]*cluster.Host, error) {
	r := c.ReplicasPerKernel()
	limit := c.SRLimit()
	balanced := refTopN{cap: n}
	viable := refTopN{cap: n}
	balancedCount := 0
	for _, h := range c.Hosts() {
		if !req.Fits(h.Capacity) {
			continue
		}
		postSR := 0.0
		if h.Capacity.GPUs > 0 && r > 0 {
			postSR = float64(h.Subscribed().GPUs+req.GPUs) / float64(h.Capacity.GPUs*r)
		}
		if postSR > watermark {
			continue
		}
		s := refScored{h: h, postSR: postSR, idle: h.Capacity.GPUs - h.Committed().GPUs}
		viable.insert(s)
		if limit == 0 || postSR <= limit {
			balancedCount++
			balanced.insert(s)
		}
	}
	sel := balanced.buf
	if balancedCount < n {
		sel = viable.buf
	}
	if len(sel) < n {
		return nil, fmt.Errorf("%w: need %d, found %d viable (req %v)",
			scheduler.ErrInsufficientHosts, n, len(sel), req)
	}
	out := make([]*cluster.Host, n)
	for i := range out {
		out[i] = sel[i].h
	}
	return out, nil
}

// checkPlacement asserts that the indexed LeastLoaded placement returns
// exactly the reference scan's hosts, in order, and the same error, for
// every replica count and a spread of request sizes — under the default
// SR watermark and under a low one that the random loads exceed.
func checkPlacement(t *testing.T, c *cluster.Cluster, step string) {
	t.Helper()
	for _, watermark := range []float64{scheduler.DefaultSRHighWatermark, 0.5} {
		p := scheduler.LeastLoaded{SRHighWatermark: watermark}
		for _, g := range []int{0, 1, 2, 4, 8} {
			req := resources.Spec{Millicpus: 2000, MemoryMB: 8 << 10, GPUs: g, VRAMGB: float64(g) * 16}
			for _, n := range []int{1, 3, 5} {
				got, gerr := p.SelectHosts(c, req, n)
				want, werr := refSelectHosts(c, watermark, req, n)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("%s: watermark %g g=%d n=%d: error %v, reference %v", step, watermark, g, n, gerr, werr)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: watermark %g g=%d n=%d: %d hosts, reference %d", step, watermark, g, n, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: watermark %g g=%d n=%d: host %d = %s, reference %s",
							step, watermark, g, n, i, got[i].ID, want[i].ID)
					}
				}
			}
		}
	}
}

// TestAggregatesMatchRecountProperty drives a random operation sequence
// and asserts after every step that the O(1) incremental counters and the
// empty-host count equal a from-scratch recount, and that the indexed
// LeastLoaded placement equals a full reference scan. The operations: add,
// remove and crash hosts, place and remove replicas, commit and release —
// including on hosts detached by a crash — and removals through stale,
// repeated and zero replica handles, which must fail and change nothing.
// A model of the live handles pins each host's NumReplicas, Empty and
// subscription, and freed slots are reused under fresh handles that must
// never collide with a live one. Hosts come in mixed capacity
// classes (two 8-GPU shapes, 4 GPUs, none). Their IDs run past
// sim-h9999, where string order stops matching numeric order, and some
// use a second, longer naming scheme (sim-cluster-east-h<n>) interleaved
// with the first, so hosts join out of ID order and the index's ranks
// must follow string order, not arrival or numeric order.
func TestAggregatesMatchRecountProperty(t *testing.T) {
	caps := []resources.Spec{
		resources.P316xlarge(),
		{Millicpus: 64000, MemoryMB: 488 << 10, GPUs: 8, VRAMGB: 256},
		{Millicpus: 32000, MemoryMB: 244 << 10, GPUs: 4, VRAMGB: 64},
		{Millicpus: 16000, MemoryMB: 64 << 10},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := cluster.New(3)
		var hosts, crashed []*cluster.Host
		type placement struct {
			h   *cluster.Host
			key string
		}
		type replica struct {
			h   *cluster.Host
			rh  cluster.ReplicaHandle
			req resources.Spec
		}
		var commits []placement
		// replicas are the live subscriptions, stale the removed ones
		// (their handles must stay dead after their slots are reused).
		var replicas, stale []replica
		place := func(h *cluster.Host, req resources.Spec) bool {
			rh, err := h.PlaceReplica(req)
			if err != nil {
				t.Error(err)
				return false
			}
			for _, p := range replicas {
				if p.h == h && p.rh == rh {
					t.Errorf("%s: handle %v issued twice", h.ID, rh)
					return false
				}
			}
			replicas = append(replicas, replica{h, rh, req})
			return true
		}
		nextID := 9990
		randReq := func() resources.Spec {
			g := r.Intn(5)
			return resources.Spec{Millicpus: 2000, MemoryMB: 8 << 10, GPUs: g, VRAMGB: float64(g) * 16}
		}
		// pick returns a random live host, or now and then a crashed one.
		pick := func() *cluster.Host {
			if len(crashed) > 0 && r.Intn(8) == 0 {
				return crashed[r.Intn(len(crashed))]
			}
			if len(hosts) == 0 {
				return nil
			}
			return hosts[r.Intn(len(hosts))]
		}

		for step := 0; step < 300; step++ {
			switch op := r.Intn(10); op {
			case 0, 1: // add host
				nextID++
				id := fmt.Sprintf("sim-h%04d", nextID)
				if r.Intn(3) == 0 {
					id = fmt.Sprintf("sim-cluster-east-h%d", nextID)
				}
				h := cluster.NewHost(id, caps[r.Intn(len(caps))])
				if err := c.AddHost(h); err != nil {
					t.Error(err)
					return false
				}
				hosts = append(hosts, h)
			case 2: // remove a replica-free host
				for i, h := range hosts {
					if h.NumReplicas() == 0 {
						if err := c.RemoveHost(h.ID); err != nil {
							t.Error(err)
							return false
						}
						hosts = append(hosts[:i], hosts[i+1:]...)
						break
					}
				}
			case 3: // crash a host, replicas and commitments included
				if len(hosts) > 0 && r.Intn(3) == 0 {
					i := r.Intn(len(hosts))
					h := hosts[i]
					if err := c.CrashHost(h.ID); err != nil {
						t.Error(err)
						return false
					}
					hosts = append(hosts[:i], hosts[i+1:]...)
					crashed = append(crashed, h)
				}
			case 4: // place replica
				if h := pick(); h != nil && !place(h, randReq()) {
					return false
				}
			case 5: // place a kernel's replicas where LeastLoaded says
				n := 1 + 2*r.Intn(3)
				req := randReq()
				sel, err := scheduler.LeastLoaded{}.SelectHosts(c, req, n)
				if err == nil {
					for _, h := range sel {
						if !place(h, req) {
							return false
						}
					}
				}
			case 6: // remove replica, from a member or a crashed host
				if len(replicas) > 0 {
					i := r.Intn(len(replicas))
					p := replicas[i]
					if err := p.h.RemoveReplica(p.rh); err != nil {
						t.Error(err)
						return false
					}
					replicas = append(replicas[:i], replicas[i+1:]...)
					stale = append(stale, p)
				}
			case 7: // commit
				if h := pick(); h != nil {
					key := fmt.Sprintf("c%d", step)
					if h.Commit(key, randReq()) == nil {
						commits = append(commits, placement{h, key})
					}
				}
			case 8: // release
				if len(commits) > 0 {
					i := r.Intn(len(commits))
					p := commits[i]
					if err := p.h.Release(p.key); err != nil {
						t.Error(err)
						return false
					}
					commits = append(commits[:i], commits[i+1:]...)
				}
			case 9: // remove through a stale, repeated or zero handle
				h, rh := pick(), cluster.ReplicaHandle{}
				if len(stale) > 0 && r.Intn(4) != 0 {
					p := stale[r.Intn(len(stale))]
					h, rh = p.h, p.rh
				}
				if h == nil {
					break
				}
				sub, n, total := h.Subscribed(), h.NumReplicas(), c.SubscribedGPUs()
				if err := h.RemoveReplica(rh); err == nil {
					t.Errorf("%s: removal through dead handle %v succeeded", h.ID, rh)
					return false
				}
				if h.Subscribed() != sub || h.NumReplicas() != n || c.SubscribedGPUs() != total {
					t.Errorf("%s: failed removal through %v changed the counters", h.ID, rh)
					return false
				}
			}
			name := fmt.Sprintf("seed %d step %d", seed, step)
			checkAggregates(t, c, name)
			checkPlacement(t, c, name)
			live := map[*cluster.Host]int{}
			subs := map[*cluster.Host]resources.Spec{}
			for _, p := range replicas {
				live[p.h]++
				subs[p.h] = subs[p.h].Add(p.req)
			}
			for _, h := range append(hosts, crashed...) {
				if got, want := h.NumReplicas(), live[h]; got != want {
					t.Fatalf("%s: %s NumReplicas() = %d, live handles %d", name, h.ID, got, want)
				}
				if got, want := h.Subscribed(), subs[h]; got != want {
					t.Fatalf("%s: %s Subscribed() = %v, live handles sum to %v", name, h.ID, got, want)
				}
				if got, want := h.Empty(), live[h] == 0 && h.Committed().IsZero(); got != want {
					t.Fatalf("%s: %s Empty() = %v, recount %v", name, h.ID, got, want)
				}
				if got, want := h.IdleGPUs(), h.Capacity.GPUs-h.Committed().GPUs; got != want {
					t.Fatalf("%s: %s IdleGPUs() = %d, pool says %d", name, h.ID, got, want)
				}
				if got, want := h.SubscribedGPUs(), h.Subscribed().GPUs; got != want {
					t.Fatalf("%s: %s SubscribedGPUs() = %d, locked read %d", name, h.ID, got, want)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestAggregatesAttachDetach: a host that already carries subscriptions
// and commitments contributes them on AddHost and withdraws them on
// RemoveHost.
func TestAggregatesAttachDetach(t *testing.T) {
	cap8 := resources.Spec{Millicpus: 64000, MemoryMB: 488 << 10, GPUs: 8, VRAMGB: 128}
	req := resources.Spec{Millicpus: 4000, MemoryMB: 16 << 10, GPUs: 2, VRAMGB: 32}
	h := cluster.NewHost("pre", cap8)
	if err := h.Commit("warm", req); err != nil {
		t.Fatal(err)
	}
	c := cluster.New(3)
	checkAggregates(t, c, "empty")
	if err := c.AddHost(h); err != nil {
		t.Fatal(err)
	}
	checkAggregates(t, c, "after add")
	if got := c.CommittedGPUs(); got != 2 {
		t.Fatalf("CommittedGPUs = %d, want 2 (pre-existing commitment)", got)
	}
	if err := c.RemoveHost("pre"); err != nil {
		t.Fatal(err)
	}
	checkAggregates(t, c, "after remove")
	if got := c.TotalGPUs(); got != 0 {
		t.Fatalf("TotalGPUs = %d, want 0", got)
	}
	// Mutations after detach must not corrupt the (now empty) cluster.
	if err := h.Release("warm"); err != nil {
		t.Fatal(err)
	}
	checkAggregates(t, c, "after detached release")
}

// TestCapacityNotifierFires: AddHost and member Release fire the
// notifier; a detached host's Release does not.
func TestCapacityNotifierFires(t *testing.T) {
	cap8 := resources.Spec{Millicpus: 64000, MemoryMB: 488 << 10, GPUs: 8, VRAMGB: 128}
	req := resources.Spec{Millicpus: 4000, MemoryMB: 16 << 10, GPUs: 1, VRAMGB: 16}
	c := cluster.New(3)
	fired := 0
	c.SetCapacityNotifier(func() { fired++ })

	h := cluster.NewHost("n1", cap8)
	if err := c.AddHost(h); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("AddHost fired %d notifications, want 1", fired)
	}
	if err := h.Commit("x", req); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("Commit should not notify (fired=%d)", fired)
	}
	if err := h.Release("x"); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("Release fired %d notifications, want 2", fired)
	}
	if err := c.RemoveHost("n1"); err != nil {
		t.Fatal(err)
	}
	if err := h.Commit("y", req); err != nil {
		t.Fatal(err)
	}
	if err := h.Release("y"); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("detached Release fired notification (fired=%d)", fired)
	}
}

// TestAggregatesConcurrentMembershipAndCommits hammers commit/release on
// one goroutine while the host joins and leaves the cluster on another
// (the live control plane's autoscaler pattern). At quiescence the
// incremental counters must match a recount exactly — the commit/release
// deltas and the attach/detach snapshots serialize on the host lock.
func TestAggregatesConcurrentMembershipAndCommits(t *testing.T) {
	cap8 := resources.Spec{Millicpus: 64000, MemoryMB: 488 << 10, GPUs: 8, VRAMGB: 128}
	req := resources.Spec{Millicpus: 1000, MemoryMB: 4 << 10, GPUs: 1, VRAMGB: 16}
	c := cluster.New(3)
	h := cluster.NewHost("contended", cap8)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("c%d", i)
			if h.Commit(key, req) == nil {
				_ = h.Release(key)
			}
		}
	}()
	for i := 0; i < 500; i++ {
		if err := c.AddHost(h); err != nil {
			t.Fatal(err)
		}
		if err := c.RemoveHost(h.ID); err != nil {
			t.Fatal(err)
		}
	}
	<-done

	// Quiescent and detached: everything released, nothing attached.
	checkAggregates(t, c, "after contention")
	if got := c.CommittedGPUs(); got != 0 {
		t.Fatalf("CommittedGPUs = %d, want 0 (counter drifted)", got)
	}
	// Re-attach: the host's ledger must still be exact.
	if err := c.AddHost(h); err != nil {
		t.Fatal(err)
	}
	checkAggregates(t, c, "after re-add")
}

// TestLockFreeReadsUnderConcurrentMutation is the live platform's
// concurrency contract for the lock-free reads: writer goroutines place,
// remove, commit and release on a shared cluster (and churn one host's
// membership) while reader goroutines call SelectHosts — the first of
// which builds the load index mid-mutation — SubscribedGPUs and IdleGPUs.
// Run under -race it checks the locking; at quiescence the index, the
// empty-host count and the aggregates must equal a recount.
func TestLockFreeReadsUnderConcurrentMutation(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	c := cluster.New(3)
	var hosts []*cluster.Host
	for i := 0; i < 12; i++ {
		caps := resources.P316xlarge()
		if i%3 == 0 {
			caps = resources.Spec{Millicpus: 32000, MemoryMB: 244 << 10, GPUs: 4, VRAMGB: 64}
		}
		h := cluster.NewHost(fmt.Sprintf("h%02d", i), caps)
		if err := c.AddHost(h); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	churn := cluster.NewHost("churn", resources.P316xlarge())
	req := resources.Spec{Millicpus: 1000, MemoryMB: 4 << 10, GPUs: 1, VRAMGB: 16}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				h := hosts[r.Intn(len(hosts))]
				key := fmt.Sprintf("w%d-%d", w, i)
				if rh, err := h.PlaceReplica(req); err == nil && r.Intn(2) == 0 {
					_ = h.RemoveReplica(rh)
				}
				if h.Commit(key, req) == nil {
					_ = h.Release(key)
				}
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < iters/10; i++ {
			if err := c.AddHost(churn); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				_ = c.RemoveHost(churn.ID)
			} else {
				_ = c.CrashHost(churn.ID)
			}
		}
	}()
	for rd := 0; rd < 2; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var p scheduler.LeastLoaded
			for {
				select {
				case <-stop:
					return
				default:
				}
				if sel, err := p.SelectHosts(c, req, 3); err == nil && len(sel) != 3 {
					t.Errorf("SelectHosts returned %d hosts", len(sel))
				}
				for _, h := range hosts {
					if s := h.SubscribedGPUs(); s < 0 {
						t.Errorf("%s: SubscribedGPUs = %d", h.ID, s)
					}
					if idle := h.IdleGPUs(); idle < 0 || idle > h.Capacity.GPUs {
						t.Errorf("%s: IdleGPUs = %d", h.ID, idle)
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	checkAggregates(t, c, "quiescent")
	checkPlacement(t, c, "quiescent")
}
