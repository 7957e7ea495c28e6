package cluster

import (
	"math"
	"math/bits"
	"sort"

	"notebookos/internal/resources"
)

// loadIndex orders the member hosts for least-loaded placement
// (scheduler.LeastLoaded). Hosts are grouped into capacity classes (one
// per distinct Capacity); each class keeps one level per committed-GPU
// count, and each level one bucket per subscribed-GPU count. All hosts of
// a class share G, so for any request of g GPUs, levels in ascending
// order, buckets in ascending order and each bucket's hosts in ID order
// is exactly the least-loaded order within the class: idle GPUs (G minus
// committed) descending, post-placement SR ((S+g)/(G·R)) ascending, host
// ID ascending. Post-placement SRs of
// different classes compare differently for different g, so
// SelectLeastLoaded merges the classes per request instead of keeping one
// global order.
//
// The index is built on the first SelectLeastLoaded, so clusters that
// never place least-loaded pay nothing. Membership changes (AddHost,
// RemoveHost, CrashHost) file and unfile hosts at once. A change of a
// member host's load (PlaceReplica, RemoveReplica, Commit, Release) only
// queues the host for refiling, once, and the next walk refiles every
// queued host from its lock-free load mirrors before it reads the order:
// the many commits and releases between two placements cost one refile
// per host, not one per change. A refile moves a host between two
// unordered buckets in O(1). The index is guarded by Cluster.idxMu,
// always taken after the host's mu.
//
// Buckets are kept unordered. A walk that enters a bucket picks, in one
// pass, its hosts with the n lowest integer ranks (ranks follow ID order;
// see rankEntry) and takes them in rank order; it never takes more than n
// from one bucket (see SelectLeastLoaded). A walk thus reads every host
// of each bucket it enters, which costs less than keeping every bucket
// sorted through the far more frequent refiles: profiling simbench's
// stream-65k-128h workload on a 2-CPU Xeon, sorted buckets spent 10% of
// the run refiling, against 3% for unordered ones. Each bucket keeps its hosts' ranks next
// to their int32 slots in the entry arena, so the pass scans a compact
// integer array. PlacementWork counts every host read, so a fleet whose
// hosts pile into one bucket shows in the count.
type loadIndex struct {
	classes []*loadClass // first-seen order
	entries []loadEntry
	// rank[e] orders entry e's host ID among all filed hosts; byID lists
	// the filed entries in ID (and so rank) order.
	rank []uint64
	byID []int32
	free []int32
	// queued lists entries whose host's load changed since they were
	// filed (see Host.stale); a slot freed or reused meanwhile is
	// harmless, since refiling is idempotent.
	queued []int32
	// picks backs the walk cursors' picks, n per class.
	picks []int32
}

// loadClass is one capacity class of the index; levels[k] holds its
// hosts with k committed GPUs.
type loadClass struct {
	cap    resources.Spec
	levels []loadLevel
	n      int
}

// loadLevel is one committed-GPU level of a class.
type loadLevel struct {
	// buckets[s] holds the level's hosts with s subscribed GPUs; bit s of
	// occupied is set iff it is non-empty.
	buckets  []loadBucket
	occupied []uint64
}

// loadBucket is one subscribed-GPU bucket: its hosts' ranks and their
// entry slots, position for position, in no particular order.
type loadBucket struct {
	ranks []uint64
	slots []int32
}

// pick returns, in rank order, the positions of the bucket's cap(buf)
// lowest-ranked hosts (all of them if fewer), reusing buf.
func (bk *loadBucket) pick(buf []int32) []int32 {
	buf = buf[:0]
	for k, r := range bk.ranks {
		i := len(buf)
		if i == cap(buf) {
			if i == 0 || r > bk.ranks[buf[i-1]] {
				continue
			}
			i--
		} else {
			buf = buf[:i+1]
		}
		for ; i > 0 && bk.ranks[buf[i-1]] > r; i-- {
			buf[i] = buf[i-1]
		}
		buf[i] = int32(k)
	}
	return buf
}

// nextOccupied returns the first non-empty bucket at or after s, or -1.
func (l *loadLevel) nextOccupied(s int) int {
	for w := s >> 6; w < len(l.occupied); w++ {
		word := l.occupied[w]
		if w == s>>6 {
			word &= ^uint64(0) << (uint(s) & 63)
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// loadEntry is one host's slot in the index.
type loadEntry struct {
	h   *Host
	cls *loadClass
	// The index keys as last filed: committed GPUs, and subscribed GPUs
	// (0 in a GPU-less class, where every post-placement SR is 0).
	committed, sub int
	// pos is the entry's position in its bucket.
	pos int
}

// rankStep spaces the ranks of hosts filed in ID order, leaving room to
// rank later hosts between them.
const rankStep = 1 << 32

// rankEntry inserts entry e into byID and gives it a rank between its
// neighbours'. Hosts filed in ID order, as a growing fleet's usually are,
// take rankStep-spaced ranks; when no integer is left between two
// neighbours, every filed host is ranked again, order unchanged, and the
// buckets' copies of the ranks are rewritten.
func (ix *loadIndex) rankEntry(e int32) {
	id := ix.entries[e].h.ID
	p := sort.Search(len(ix.byID), func(i int) bool { return ix.entries[ix.byID[i]].h.ID > id })
	ix.byID = append(ix.byID, 0)
	copy(ix.byID[p+1:], ix.byID[p:])
	ix.byID[p] = e
	var lo uint64
	if p > 0 {
		lo = ix.rank[ix.byID[p-1]]
	}
	if p+1 == len(ix.byID) {
		if lo <= math.MaxUint64-rankStep {
			ix.rank[e] = lo + rankStep
			return
		}
	} else if hi := ix.rank[ix.byID[p+1]]; hi-lo >= 2 {
		ix.rank[e] = lo + (hi-lo)/2
		return
	}
	for i, s := range ix.byID {
		ix.rank[s] = uint64(i+1) * rankStep
	}
	for _, cl := range ix.classes {
		for _, l := range cl.levels {
			for _, bk := range l.buckets {
				for k, s := range bk.slots {
					bk.ranks[k] = ix.rank[s]
				}
			}
		}
	}
}

// unrankEntry removes entry e from byID.
func (ix *loadIndex) unrankEntry(e int32) {
	r := ix.rank[e]
	p := sort.Search(len(ix.byID), func(i int) bool { return ix.rank[ix.byID[i]] >= r })
	copy(ix.byID[p:], ix.byID[p+1:])
	ix.byID = ix.byID[:len(ix.byID)-1]
}

// insert files entry e into its class at its current keys.
func (ix *loadIndex) insert(e int32) {
	ent := &ix.entries[e]
	cl := ent.cls
	for len(cl.levels) <= ent.committed {
		cl.levels = append(cl.levels, loadLevel{})
	}
	l := &cl.levels[ent.committed]
	s := ent.sub
	for len(l.buckets) <= s {
		l.buckets = append(l.buckets, loadBucket{})
	}
	for len(l.occupied) <= s>>6 {
		l.occupied = append(l.occupied, 0)
	}
	bk := &l.buckets[s]
	ent.pos = len(bk.slots)
	bk.ranks = append(bk.ranks, ix.rank[e])
	bk.slots = append(bk.slots, e)
	l.occupied[s>>6] |= 1 << (uint(s) & 63)
	cl.n++
}

// remove unfiles entry e, located by its current keys, moving its
// bucket's last host into its place.
func (ix *loadIndex) remove(e int32) {
	ent := &ix.entries[e]
	cl := ent.cls
	l := &cl.levels[ent.committed]
	s := ent.sub
	bk := &l.buckets[s]
	last := len(bk.slots) - 1
	if i := ent.pos; i != last {
		bk.ranks[i], bk.slots[i] = bk.ranks[last], bk.slots[last]
		ix.entries[bk.slots[i]].pos = i
	}
	bk.ranks, bk.slots = bk.ranks[:last], bk.slots[:last]
	if last == 0 {
		l.occupied[s>>6] &^= 1 << (uint(s) & 63)
	}
	cl.n--
}

// loadKeys returns h's index keys, read from its lock-free load mirrors.
func (h *Host) loadKeys() (committed, sub int) {
	if h.Capacity.GPUs == 0 {
		return int(h.comGPUs.Load()), 0
	}
	return int(h.comGPUs.Load()), int(h.subGPUs.Load())
}

// indexHost gives the member host h its index entry, if the index is
// built and h has none. Called with h.mu held.
func (c *Cluster) indexHost(h *Host) {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	ix := c.idx
	if ix == nil || h.slot != 0 {
		return
	}
	var cls *loadClass
	for _, cl := range ix.classes {
		if cl.cap == h.Capacity {
			cls = cl
			break
		}
	}
	if cls == nil {
		cls = &loadClass{cap: h.Capacity}
		ix.classes = append(ix.classes, cls)
	}
	var e int32
	if n := len(ix.free); n > 0 {
		e = ix.free[n-1]
		ix.free = ix.free[:n-1]
	} else {
		e = int32(len(ix.entries))
		ix.entries = append(ix.entries, loadEntry{})
		ix.rank = append(ix.rank, 0)
	}
	ent := &ix.entries[e]
	*ent = loadEntry{h: h, cls: cls}
	h.stale.Store(false)
	ent.committed, ent.sub = h.loadKeys()
	ix.rankEntry(e)
	ix.insert(e)
	h.slot = e + 1
}

// unindexHost drops h's index entry, if any. Called with h.mu held.
func (c *Cluster) unindexHost(h *Host) {
	if h.slot == 0 {
		return
	}
	c.idxMu.Lock()
	ix := c.idx
	e := h.slot - 1
	ix.remove(e)
	ix.unrankEntry(e)
	ix.entries[e] = loadEntry{}
	ix.free = append(ix.free, e)
	h.slot = 0
	c.idxMu.Unlock()
}

// queueRefile queues entry e for refiling by the next walk. Called with
// its host's mu held, once per Host.stale transition.
func (c *Cluster) queueRefile(e int32) {
	c.idxMu.Lock()
	c.idx.queued = append(c.idx.queued, e)
	c.idxMu.Unlock()
}

// refile moves every queued entry to its host's current keys. Called
// with idxMu held. Each host's stale flag is cleared before its mirrors
// are read, so a load change racing the read queues the host again
// rather than being lost.
func (ix *loadIndex) refile() {
	for _, e := range ix.queued {
		ent := &ix.entries[e]
		if ent.h == nil {
			continue // unfiled since it was queued
		}
		ent.h.stale.Store(false)
		if committed, sub := ent.h.loadKeys(); committed != ent.committed || sub != ent.sub {
			ix.remove(e)
			ent.committed, ent.sub = committed, sub
			ix.insert(e)
		}
	}
	ix.queued = ix.queued[:0]
}

// buildIndex creates the index and indexes every member host. The empty
// index is published first, so a host attached from then on indexes
// itself (attach), and a host attached earlier is already in the
// membership snapshot taken after publication. Each host is read under
// its own mu, so a concurrent load change either lands before the read
// or finds the entry and moves it.
func (c *Cluster) buildIndex() {
	c.idxMu.Lock()
	c.idx = &loadIndex{}
	c.idxMu.Unlock()
	c.ForEachHost(func(h *Host) bool {
		h.mu.Lock()
		if h.c == c {
			c.indexHost(h)
		}
		h.mu.Unlock()
		return true
	})
}

// walkCursor walks one capacity class of the index during a
// SelectLeastLoaded, positioned on entry e with its selection keys.
type walkCursor struct {
	cl         *loadClass
	level, sub int
	// picks holds the positions of the hosts picked from bucket
	// (level, sub), valid once filled; next is the first not yet taken.
	picks  []int32
	next   int
	filled bool
	e      *loadEntry
	rank   uint64
	idle   int
	postSR float64
}

// settle positions the cursor on the next host in least-loaded order —
// the next pick of bucket (level, sub), else the first pick of the next
// non-empty bucket or level — and computes its keys for a g-GPU request;
// false when the class is exhausted. It adds the hosts of each bucket it
// picks from to *visits.
func (cu *walkCursor) settle(ix *loadIndex, g, r int, visits *int) bool {
	levels := cu.cl.levels
	for !cu.filled || cu.next == len(cu.picks) {
		if cu.filled {
			cu.sub, cu.filled = cu.sub+1, false
		}
		if cu.level == len(levels) {
			return false
		}
		l := &levels[cu.level]
		s := l.nextOccupied(cu.sub)
		if s < 0 {
			cu.level, cu.sub = cu.level+1, 0
			continue
		}
		bk := &l.buckets[s]
		*visits += len(bk.ranks)
		cu.sub, cu.picks, cu.next, cu.filled = s, bk.pick(cu.picks), 0, true
	}
	bk := &levels[cu.level].buckets[cu.sub]
	k := cu.picks[cu.next]
	cu.e, cu.rank = &ix.entries[bk.slots[k]], bk.ranks[k]
	gpus := cu.cl.cap.GPUs
	cu.idle = gpus - cu.e.committed
	cu.postSR = 0
	if gpus > 0 && r > 0 {
		cu.postSR = float64(cu.e.sub+g) / float64(gpus*r)
	}
	return true
}

// before is the least-loaded order across classes: most idle GPUs first,
// then lowest post-placement SR, then host ID.
func (cu *walkCursor) before(o *walkCursor) bool {
	if cu.idle != o.idle {
		return cu.idle > o.idle
	}
	if cu.postSR != o.postSR {
		return cu.postSR < o.postSR
	}
	return cu.rank < o.rank
}

// SelectLeastLoaded is least-loaded placement (paper §3.4.1) over the
// load index. It walks the member hosts whose capacity fits req in
// least-loaded order for req — most idle GPUs first, then lowest
// post-placement subscription ratio ((S+req.GPUs)/(G·R)), then host ID —
// and returns the first n whose post-placement SR is within the
// cluster-wide limit SRLimit ("balanced"; every host balances while the
// limit is 0, at bootstrap) and the first n within watermark ("viable",
// the fallback when fewer than n balance).
//
// Post-placement SR only grows along a level, so the walk leaves a level
// at the first host over the watermark, or over the limit once the
// viable list is full, and stops at the n-th balanced host: a call takes
// O(n + levels) hosts, not the whole cluster, reading the buckets it
// takes them from (see loadIndex). All hosts of a bucket share their
// post-placement SR, so every host taken from one bucket joins the same
// list or ends the level: no walk takes more than n hosts from one
// bucket, which is why n picks per bucket suffice. The first call builds
// the index. The walk reads only the index, under its lock, and takes no
// host lock.
func (c *Cluster) SelectLeastLoaded(req resources.Spec, n int, watermark float64) (balanced, viable []*Host) {
	if n <= 0 {
		return nil, nil
	}
	c.indexOnce.Do(c.buildIndex)
	r := c.replicasPerKernel
	limit := c.SRLimit()
	// One backing array serves both lists.
	buf := make([]*Host, 2*n)
	balanced, viable = buf[:0:n], buf[n:n:2*n]

	visits := 0
	c.idxMu.Lock()
	defer func() {
		c.idxMu.Unlock()
		c.agg.placeCalls.Add(1)
		c.agg.placeVisits.Add(int64(visits))
	}()
	ix := c.idx
	ix.refile()
	if len(ix.picks) < len(ix.classes)*n {
		ix.picks = make([]int32, len(ix.classes)*n)
	}
	var curs [4]walkCursor
	live := curs[:0]
	for i, cl := range ix.classes {
		if cl.n == 0 || !req.Fits(cl.cap) {
			continue
		}
		cu := walkCursor{cl: cl, picks: ix.picks[i*n : i*n : (i+1)*n]}
		if cu.settle(ix, req.GPUs, r, &visits) {
			live = append(live, cu)
		}
	}
	for len(live) > 0 && len(balanced) < n {
		b := 0
		for i := 1; i < len(live); i++ {
			if live[i].before(&live[b]) {
				b = i
			}
		}
		cu := &live[b]
		skipLevel := false
		switch postSR := cu.postSR; {
		case postSR > watermark:
			skipLevel = true
		case limit == 0 || postSR <= limit:
			balanced = append(balanced, cu.e.h)
			if len(viable) < n {
				viable = append(viable, cu.e.h)
			}
		default:
			if len(viable) < n {
				viable = append(viable, cu.e.h)
			}
			skipLevel = len(viable) == n
		}
		if len(balanced) == n {
			break
		}
		if skipLevel {
			cu.level, cu.sub, cu.filled = cu.level+1, 0, false
		} else {
			cu.next++
		}
		if !cu.settle(ix, req.GPUs, r, &visits) {
			live[b] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return balanced, viable
}

// PlacementWork returns the number of SelectLeastLoaded calls on c and
// the hosts they read: deterministic for a deterministic call sequence,
// whatever the machine's speed.
func (c *Cluster) PlacementWork() (calls, visits int64) {
	return c.agg.placeCalls.Load(), c.agg.placeVisits.Load()
}
