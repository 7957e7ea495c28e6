package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"notebookos/internal/gpu"
	"notebookos/internal/resources"
)

// DefaultReplicasPerKernel is R in the SR formula: each distributed kernel
// has three replicas (§3.1; R=5 costs too much, R=2 is unsupported by Raft).
const DefaultReplicasPerKernel = 3

// aggregates holds the cluster-wide incremental counters. Mutations
// happen under the owning host's lock (see Host.ledger); atomics make the
// reads lock-free without taking host or cluster locks.
type aggregates struct {
	totalGPUs      atomic.Int64
	subscribedGPUs atomic.Int64
	committedGPUs  atomic.Int64
	// emptyHosts counts member hosts with no replicas and nothing
	// committed — the hosts a scale-in may retire.
	emptyHosts atomic.Int64
	// placeCalls and placeVisits count SelectLeastLoaded calls and the
	// hosts they read (see PlacementWork).
	placeCalls  atomic.Int64
	placeVisits atomic.Int64
}

// ReplicaHandle names one replica subscription on the host whose
// PlaceReplica issued it; it means nothing to any other host. The zero
// handle names no replica.
type ReplicaHandle struct {
	slot int32
	gen  uint32
}

// replicaSlot is one entry of a host's replica table. gen counts the
// slot's placements and removals, so it is odd exactly while the slot is
// occupied; a handle carries the gen of its placement, which makes a
// stale or repeated removal (and the zero handle, gen 0) a mismatch
// rather than the removal of whichever replica reused the slot.
type replicaSlot struct {
	req resources.Spec
	gen uint32
}

// Host is one GPU server.
type Host struct {
	ID       string
	Capacity resources.Spec

	// Committed tracks exclusive bindings during cell execution.
	committed *resources.Pool
	// devices tracks per-device GPU allocation, built lazily: the
	// simulator creates tens of thousands of hosts per benchmark run and
	// never touches device identity, while the live Local Scheduler does.
	devicesOnce sync.Once
	devices     *gpu.Pool

	mu         sync.Mutex
	subscribed resources.Spec
	// slots is the host's dense replica table, indexed by ReplicaHandle;
	// free stacks the indices of vacated slots for reuse, and live counts
	// the occupied ones. A slot never moves, so a handle stays valid until
	// its own removal.
	slots []replicaSlot
	free  []int32
	live  int
	// ledger is the host's own record of committed resources, updated
	// under mu by the pool observers in commit/release order. attach and
	// detach read it (also under mu) instead of snapshotting the pool, so
	// a commit/release delta and a membership change can never interleave
	// in a way that makes the cluster counters drift: every delta lands in
	// the ledger exactly once, and in the aggregates exactly when the host
	// is attached.
	ledger resources.Spec
	// Lock-free mirrors of the load, written under mu together with the
	// fields they mirror and read without any lock (SubscribedGPUs,
	// IdleGPUs, Empty).
	subGPUs atomic.Int64
	comGPUs atomic.Int64
	empty   atomic.Bool
	// c is the owning cluster while the host is a member; nil otherwise.
	c *Cluster
	// slot is the host's entry in the owning cluster's load index plus
	// one; 0 while unindexed. Written with both mu and the cluster's idxMu
	// held.
	slot int32
	// stale is set when the host's load changed after its index entry was
	// last filed, so the entry is queued for refiling exactly once until
	// the next walk refiles it (loadindex.go).
	stale atomic.Bool
	// released is invoked (without locks held) after every successful
	// Release while the host is a cluster member; the cluster forwards it
	// to capacity wait-queues.
	released func()
}

// NewHost returns a host with the given capacity.
func NewHost(id string, capacity resources.Spec) *Host {
	h := &Host{
		ID:        id,
		Capacity:  capacity,
		committed: resources.NewPool(capacity),
	}
	h.empty.Store(true)
	h.committed.Observe(h.onCommitted, h.onReleased)
	return h
}

// Devices returns the host's per-device GPU allocation pool, creating it
// on first use.
func (h *Host) Devices() *gpu.Pool {
	h.devicesOnce.Do(func() {
		h.devices = gpu.NewPool(h.ID, h.Capacity.GPUs)
	})
	return h.devices
}

func (h *Host) onCommitted(req resources.Spec) {
	h.mu.Lock()
	h.ledger = h.ledger.Add(req)
	h.comGPUs.Store(int64(h.ledger.GPUs))
	if h.c != nil {
		h.c.agg.committedGPUs.Add(int64(req.GPUs))
	}
	h.loadChanged()
	h.mu.Unlock()
}

func (h *Host) onReleased(req resources.Spec) {
	h.mu.Lock()
	h.ledger = h.ledger.Sub(req)
	h.comGPUs.Store(int64(h.ledger.GPUs))
	if h.c != nil {
		h.c.agg.committedGPUs.Add(-int64(req.GPUs))
	}
	h.loadChanged()
	released := h.released
	h.mu.Unlock()
	if released != nil {
		released()
	}
}

// loadChanged propagates a change of the host's subscription or ledger
// to its emptiness flag, the owning cluster's empty-host count and the
// cluster's load index. Called with h.mu held, after the change.
func (h *Host) loadChanged() {
	empty := h.live == 0 && h.ledger.IsZero()
	if empty != h.empty.Load() {
		h.empty.Store(empty)
		if h.c != nil {
			if empty {
				h.c.agg.emptyHosts.Add(1)
			} else {
				h.c.agg.emptyHosts.Add(-1)
			}
		}
	}
	if h.slot != 0 && !h.stale.Swap(true) {
		h.c.queueRefile(h.slot - 1)
	}
}

// attach makes the host contribute to c's aggregate counters (and its
// load index, once built) and wires its release notifier. Called by
// Cluster.AddHost.
func (h *Host) attach(c *Cluster) {
	h.mu.Lock()
	h.c = c
	h.released = c.capacityFreed
	c.agg.totalGPUs.Add(int64(h.Capacity.GPUs))
	c.agg.subscribedGPUs.Add(int64(h.subscribed.GPUs))
	c.agg.committedGPUs.Add(int64(h.ledger.GPUs))
	if h.empty.Load() {
		c.agg.emptyHosts.Add(1)
	}
	c.indexHost(h)
	h.mu.Unlock()
}

// detach reverses attach. Called by Cluster.RemoveHost and CrashHost.
func (h *Host) detach() {
	h.mu.Lock()
	if c := h.c; c != nil {
		c.agg.totalGPUs.Add(-int64(h.Capacity.GPUs))
		c.agg.subscribedGPUs.Add(-int64(h.subscribed.GPUs))
		c.agg.committedGPUs.Add(-int64(h.ledger.GPUs))
		if h.empty.Load() {
			c.agg.emptyHosts.Add(-1)
		}
		c.unindexHost(h)
	}
	h.c = nil
	h.released = nil
	h.mu.Unlock()
}

// PlaceReplica subscribes a kernel replica's resource request on the host
// and returns the handle that later unsubscribes it. Subscription does not
// commit resources (paper §3.2.1: "resources are not exclusively
// committed... the kernel replicas subscribe to the requested resources").
func (h *Host) PlaceReplica(req resources.Spec) (ReplicaHandle, error) {
	if err := req.Validate(); err != nil {
		return ReplicaHandle{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var i int32
	if n := len(h.free); n > 0 {
		i = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		i = int32(len(h.slots))
		h.slots = append(h.slots, replicaSlot{})
	}
	slot := &h.slots[i]
	slot.gen++
	slot.req = req
	h.live++
	h.subscribed = h.subscribed.Add(req)
	h.subGPUs.Store(int64(h.subscribed.GPUs))
	if h.c != nil {
		h.c.agg.subscribedGPUs.Add(int64(req.GPUs))
	}
	h.loadChanged()
	return ReplicaHandle{slot: i, gen: slot.gen}, nil
}

// RemoveReplica unsubscribes the replica rh names (kernel shutdown or
// migration). A handle that is stale, already removed or zero is an
// error, and changes nothing.
func (h *Host) RemoveReplica(rh ReplicaHandle) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if uint32(rh.slot) >= uint32(len(h.slots)) || rh.gen&1 == 0 || h.slots[rh.slot].gen != rh.gen {
		return fmt.Errorf("cluster: no replica under handle %d.%d on host %s", rh.slot, rh.gen, h.ID)
	}
	slot := &h.slots[rh.slot]
	slot.gen++
	req := slot.req
	h.free = append(h.free, rh.slot)
	h.live--
	h.subscribed = h.subscribed.Sub(req)
	h.subGPUs.Store(int64(h.subscribed.GPUs))
	if h.c != nil {
		h.c.agg.subscribedGPUs.Add(-int64(req.GPUs))
	}
	h.loadChanged()
	return nil
}

// NumReplicas returns the number of subscribed replicas.
func (h *Host) NumReplicas() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.live
}

// Subscribed returns the sum of subscribed resource requests.
func (h *Host) Subscribed() resources.Spec {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.subscribed
}

// SubscribedGPUs returns the host's subscribed GPU count. Lock-free.
func (h *Host) SubscribedGPUs() int {
	return int(h.subGPUs.Load())
}

// SubscriptionRatio returns S/(G*R) for this host (paper §3.4.1), where S
// is subscribed GPUs, G the host's GPU count, and R replicas per kernel.
func (h *Host) SubscriptionRatio(replicasPerKernel int) float64 {
	s := h.SubscribedGPUs()
	g := h.Capacity.GPUs
	if g == 0 || replicasPerKernel == 0 {
		return 0
	}
	return float64(s) / float64(g*replicasPerKernel)
}

// Commit exclusively binds req to holder for the duration of a cell
// execution (dynamic GPU binding, §3.3).
func (h *Host) Commit(holder string, req resources.Spec) error {
	return h.committed.Commit(holder, req)
}

// Release returns holder's committed resources. While the host is a
// cluster member, a successful release also fires the cluster's capacity
// notifier so wait-queues can hand the freed capacity to queued work.
func (h *Host) Release(holder string) error {
	return h.committed.Release(holder)
}

// CanCommit reports whether req fits the host's currently idle capacity.
func (h *Host) CanCommit(req resources.Spec) bool {
	return h.committed.CanCommit(req)
}

// Committed returns the resources currently exclusively bound.
func (h *Host) Committed() resources.Spec {
	return h.committed.Committed()
}

// IdleGPUs returns GPUs not exclusively committed right now, read
// lock-free from the host's own ledger.
func (h *Host) IdleGPUs() int {
	return h.Capacity.GPUs - int(h.comGPUs.Load())
}

// Empty reports whether the host holds no replicas and nothing committed
// (the hosts a scale-in may retire). Lock-free.
func (h *Host) Empty() bool {
	return h.empty.Load()
}

// Cluster is the set of hosts plus cluster-wide SR accounting.
type Cluster struct {
	mu    sync.Mutex
	hosts map[string]*Host
	// list holds the member hosts in insertion order. It is an immutable
	// snapshot, rebuilt on every membership change, so iteration never
	// holds the cluster lock.
	list              []*Host
	replicasPerKernel int
	agg               aggregates
	// notifier is invoked after every capacity-freeing transition
	// (AddHost, or any member host's Release).
	notifier func()

	// The load index (loadindex.go) is built on the first
	// SelectLeastLoaded; idxMu guards it and is only ever taken after a
	// host's mu, never before.
	indexOnce sync.Once
	idxMu     sync.Mutex
	idx       *loadIndex
}

// New returns an empty cluster with the given replication factor R.
func New(replicasPerKernel int) *Cluster {
	if replicasPerKernel <= 0 {
		replicasPerKernel = DefaultReplicasPerKernel
	}
	return &Cluster{
		hosts:             map[string]*Host{},
		replicasPerKernel: replicasPerKernel,
	}
}

// ReplicasPerKernel returns R.
func (c *Cluster) ReplicasPerKernel() int { return c.replicasPerKernel }

// SetCapacityNotifier registers fn to run after every capacity-freeing
// transition: a host joining the cluster or a member host releasing a
// commitment. The simulator points this at its capacity wait-queue so a
// saturated cluster costs O(waiters) wakeup events instead of polling.
// Must be set before the cluster is shared between goroutines.
func (c *Cluster) SetCapacityNotifier(fn func()) {
	c.mu.Lock()
	c.notifier = fn
	c.mu.Unlock()
}

func (c *Cluster) capacityFreed() {
	c.mu.Lock()
	fn := c.notifier
	c.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// AddHost adds a host; the ID must be unique.
func (c *Cluster) AddHost(h *Host) error {
	c.mu.Lock()
	if _, ok := c.hosts[h.ID]; ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: host %s already present", h.ID)
	}
	c.hosts[h.ID] = h
	c.list = append(append(make([]*Host, 0, len(c.list)+1), c.list...), h)
	c.mu.Unlock()
	h.attach(c)
	c.capacityFreed()
	return nil
}

// RemoveHost removes a host; it must have no subscribed replicas.
func (c *Cluster) RemoveHost(id string) error {
	c.mu.Lock()
	h, ok := c.hosts[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: host %s not present", id)
	}
	if n := h.NumReplicas(); n > 0 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: host %s still has %d replicas", id, n)
	}
	delete(c.hosts, id)
	list := make([]*Host, 0, len(c.list)-1)
	for _, lh := range c.list {
		if lh != h {
			list = append(list, lh)
		}
	}
	c.list = list
	c.mu.Unlock()
	h.detach()
	return nil
}

// CrashHost forcibly removes a host, replicas and commitments included —
// the fault-injection path (hardware failure, outage window). detach
// subtracts the host's subscribed and committed contributions from the
// cluster aggregates in one step, so the counters stay consistent even
// though the dead host still carries replica subscriptions; a later
// RemoveReplica or Release against the detached host is harmless (its
// aggregate hooks are membership-gated). No capacity notification fires:
// a crash only removes capacity.
func (c *Cluster) CrashHost(id string) error {
	c.mu.Lock()
	h, ok := c.hosts[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: host %s not present", id)
	}
	delete(c.hosts, id)
	list := make([]*Host, 0, len(c.list)-1)
	for _, lh := range c.list {
		if lh != h {
			list = append(list, lh)
		}
	}
	c.list = list
	c.mu.Unlock()
	h.detach()
	return nil
}

// Host returns a host by ID.
func (c *Cluster) Host(id string) (*Host, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hosts[id]
	return h, ok
}

// Hosts returns a copy of all hosts in insertion order. Prefer ForEachHost
// in hot paths: it does not allocate.
func (c *Cluster) Hosts() []*Host {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Host, len(c.list))
	copy(out, c.list)
	return out
}

// ForEachHost calls fn for every host in insertion order until fn returns
// false. It iterates a membership snapshot without allocating, so fn may
// add or remove hosts (the iteration still sees the snapshot).
func (c *Cluster) ForEachHost(fn func(*Host) bool) {
	c.mu.Lock()
	list := c.list
	c.mu.Unlock()
	for _, h := range list {
		if !fn(h) {
			return
		}
	}
}

// EmptyHosts returns the number of member hosts with no replicas and
// nothing committed. O(1): maintained incrementally on every place,
// remove, commit, release and membership change.
func (c *Cluster) EmptyHosts() int {
	return int(c.agg.emptyHosts.Load())
}

// NumHosts returns the number of hosts.
func (c *Cluster) NumHosts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.hosts)
}

// TotalGPUs returns the cluster GPU capacity (sum of G). O(1): maintained
// incrementally on AddHost/RemoveHost.
func (c *Cluster) TotalGPUs() int {
	return int(c.agg.totalGPUs.Load())
}

// SubscribedGPUs returns the cluster-wide subscribed GPU count (sum of S).
// O(1): maintained incrementally on PlaceReplica/RemoveReplica.
func (c *Cluster) SubscribedGPUs() int {
	return int(c.agg.subscribedGPUs.Load())
}

// CommittedGPUs returns the GPUs actively committed to executing replicas
// across the cluster (sum of C in the auto-scaler formula, §3.4.2). O(1):
// maintained incrementally on Commit/Release.
func (c *Cluster) CommittedGPUs() int {
	return int(c.agg.committedGPUs.Load())
}

// SRLimit returns the dynamic cluster-wide subscription-ratio limit
// (paper §3.4.1): sum(S) / (sum(G) * R). A host whose SR would exceed this
// limit after a placement is rejected.
func (c *Cluster) SRLimit() float64 {
	g := c.TotalGPUs()
	if g == 0 {
		return 0
	}
	return float64(c.SubscribedGPUs()) / float64(g*c.replicasPerKernel)
}

// ClusterSR returns the current cluster-wide subscription ratio, which by
// construction equals SRLimit (the limit tracks the live ratio).
func (c *Cluster) ClusterSR() float64 { return c.SRLimit() }
