// Package federation models a federation of independent GPU clusters and
// the scheduling tier that routes work between them. The paper evaluates
// NotebookOS against a single cluster, but its core mechanism — replicated
// kernels whose idle-reclaimed GPUs can be re-committed wherever capacity
// exists — extends naturally to several clusters (regions, zones, or
// clouds) fronted by one control plane.
//
// A Federation owns N member cluster.Cluster instances, each with its own
// hosts, sizes, and GPU shapes (heterogeneity is expected). It adds:
//
//   - Federation-wide aggregate accounting. TotalGPUs, SubscribedGPUs, and
//     CommittedGPUs sum the members' O(1) atomic counters, so reads stay
//     O(members) with no host scans — the same invariant internal/cluster
//     maintains per cluster (counters always equal a from-scratch recount).
//   - Capacity-notification fan-in. Every member's capacity notifier
//     (host Release or AddHost) forwards to the federation's single
//     notifier, so a capacity wait-queue parked on a saturated federation
//     is woken when *any* member frees capacity — the property the
//     federated simulator's wait-queue relies on.
//   - Inter-cluster crossing costs. Penalty(i, j) is the one-way latency
//     of a crossing from member i to member j: either one symmetric
//     penalty (the legacy knob) or, when SetLatencyMatrix installs a
//     per-pair LatencyMatrix (UniformMatrix, HubSpokeMatrix,
//     GeoBandedMatrix), the actual pair cost. Penalty is the single choke
//     point every consumer shares: the LatencyAware route policy's cost
//     term, the federated simulator's crossing charges (remote executions
//     pay two crossings per request/reply; cross-cluster migrations pay
//     two crossings for the checkpoint transfer), and
//     Deployment.CrossingCost on the live-platform side.
//
// RoutePolicy implementations rank member clusters for a placement
// originating at a session's home cluster; ranking is deterministic (ties
// break toward the home cluster, then by member index) so federated
// simulations replay bit-for-bit. The closed-form trio (LocalFirst,
// LeastSubscribed, LatencyAware) is joined by the composable scored
// layer: every decision snapshots each member (RoutingSnapshot — O(1)
// cluster counters, SnapshotExtras-supplied queue depth and retirable
// hosts, pair round-trip latency), weighted pluggable Scorers turn
// snapshots into costs, and a ScoredPolicy sums and sorts with the same
// tie-break. Single-scorer configurations (LocalFirstScored,
// LeastSubscribedScored, LatencyAwareScored) reproduce the legacy
// policies bit-for-bit; RoundRobin is the signal-blind null hypothesis
// the policy-tournament experiment measures the others against.
//
// FederatedAutoscaler pools capacity decisions across members: one
// scale-out/scale-in decision per interval for the whole federation,
// computed from every member's O(1) committed/subscribed counters (plus a
// driver-maintained empty-host gauge) and landed on the member a pluggable
// ScalePolicy chooses — most-pressured for scale-out, emptiest-above-floor
// for scale-in, in the default GreedyScalePolicy. It replaces the
// per-member MinHosts floors (which pin a k-member federation at k×R
// hosts) with a single federation-wide floor plus the placement-anchor
// invariant: no scale-in may leave every member below R hosts, so an
// R-replica kernel homed anywhere stays placeable on some member while
// small members drain to near-zero. Decide is a pure function of the
// observed loads — no clock, no randomness — so the simulator drives it
// deterministically; the floor invariant is property-tested from random
// federation states. The MinHosts clamp rule itself lives in
// scheduler.MinHostsFloor.
//
// Deployment is the federated tier above scheduler.GlobalScheduler for the
// live platform half: it owns one Global Scheduler per member, starts each
// kernel on the first cluster its route policy can place it on, routes
// Execute/StopKernel to the owning cluster, and reports each kernel's
// round-trip crossing cost (CrossingCost) from the same Penalty source the
// simulator charges.
package federation
