package scheduler

import (
	"errors"
	"fmt"
	"sort"

	"notebookos/internal/cluster"
	"notebookos/internal/resources"
)

// ErrInsufficientHosts is returned when placement cannot find enough
// viable candidate servers; the Global Scheduler reacts by scaling out
// (paper §3.4.2).
var ErrInsufficientHosts = errors.New("scheduler: insufficient candidate hosts")

// DefaultSRHighWatermark caps any single host's subscription ratio
// regardless of the dynamic cluster-wide limit (§3.2.1's "configurable
// high watermark that prevents excessive over-subscription").
const DefaultSRHighWatermark = 3.0

// PlacementPolicy selects hosts for kernel replicas. Implementations must
// return n distinct hosts or ErrInsufficientHosts.
type PlacementPolicy interface {
	// Name identifies the policy in logs and experiment output.
	Name() string
	// SelectHosts picks n distinct hosts able to host a replica with the
	// given resource request.
	SelectHosts(c *cluster.Cluster, req resources.Spec, n int) ([]*cluster.Host, error)
}

// LeastLoaded is NotebookOS's default placement policy (§3.4.1): it
// prefers hosts with the most idle GPUs, subject to (1) physical
// capacity, (2) the per-host SR high watermark, and (3) the dynamic
// cluster-wide SR limit — hosts whose post-placement SR would exceed the
// cluster-wide limit are rejected in favor of others when possible.
type LeastLoaded struct {
	// SRHighWatermark overrides DefaultSRHighWatermark when > 0.
	SRHighWatermark float64
}

// Name implements PlacementPolicy.
func (LeastLoaded) Name() string { return "least-loaded" }

// SelectHosts implements PlacementPolicy through the cluster's load
// index (cluster.SelectLeastLoaded), which takes O(n) hosts per call
// instead of scanning the whole cluster.
func (p LeastLoaded) SelectHosts(c *cluster.Cluster, req resources.Spec, n int) ([]*cluster.Host, error) {
	if n <= 0 {
		return []*cluster.Host{}, nil
	}
	watermark := p.SRHighWatermark
	if watermark <= 0 {
		watermark = DefaultSRHighWatermark
	}
	balanced, viable := c.SelectLeastLoaded(req, n, watermark)
	// Prefer balanced hosts; fall back to all viable ones if the balance
	// rule leaves too few candidates.
	sel := balanced
	if len(balanced) < n {
		sel = viable
	}
	if len(sel) < n {
		return nil, fmt.Errorf("%w: need %d, found %d viable (req %v)",
			ErrInsufficientHosts, n, len(sel), req)
	}
	return sel, nil
}

// Random places replicas on uniformly random viable hosts; a baseline for
// the placement ablation.
type Random struct {
	// Seed drives the deterministic shuffle sequence.
	Seed int64
	used int64
}

// Name implements PlacementPolicy.
func (*Random) Name() string { return "random" }

// SelectHosts implements PlacementPolicy.
func (p *Random) SelectHosts(c *cluster.Cluster, req resources.Spec, n int) ([]*cluster.Host, error) {
	var viable []*cluster.Host
	c.ForEachHost(func(h *cluster.Host) bool {
		if req.Fits(h.Capacity) {
			viable = append(viable, h)
		}
		return true
	})
	if len(viable) < n {
		return nil, fmt.Errorf("%w: need %d, found %d viable", ErrInsufficientHosts, n, len(viable))
	}
	// xorshift-style deterministic shuffle seeded per call.
	s := uint64(p.Seed) + uint64(p.used)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	p.used++
	for i := len(viable) - 1; i > 0; i-- {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		j := int(s % uint64(i+1))
		viable[i], viable[j] = viable[j], viable[i]
	}
	return viable[:n], nil
}

// Packed prefers the most-loaded viable hosts (bin-packing); used by the
// placement ablation to show why least-loaded preserves interactivity.
type Packed struct {
	SRHighWatermark float64
}

// Name implements PlacementPolicy.
func (Packed) Name() string { return "packed" }

// SelectHosts implements PlacementPolicy.
func (p Packed) SelectHosts(c *cluster.Cluster, req resources.Spec, n int) ([]*cluster.Host, error) {
	watermark := p.SRHighWatermark
	if watermark <= 0 {
		watermark = DefaultSRHighWatermark
	}
	r := c.ReplicasPerKernel()
	var viable []*cluster.Host
	c.ForEachHost(func(h *cluster.Host) bool {
		if !req.Fits(h.Capacity) {
			return true
		}
		postSubscribed := h.SubscribedGPUs() + req.GPUs
		postSR := 0.0
		if h.Capacity.GPUs > 0 && r > 0 {
			postSR = float64(postSubscribed) / float64(h.Capacity.GPUs*r)
		}
		if postSR > watermark {
			return true
		}
		viable = append(viable, h)
		return true
	})
	if len(viable) < n {
		return nil, fmt.Errorf("%w: need %d, found %d viable", ErrInsufficientHosts, n, len(viable))
	}
	sort.Slice(viable, func(i, j int) bool {
		// Most loaded first: fewest idle GPUs.
		if viable[i].IdleGPUs() != viable[j].IdleGPUs() {
			return viable[i].IdleGPUs() < viable[j].IdleGPUs()
		}
		return viable[i].ID < viable[j].ID
	})
	return viable[:n], nil
}
