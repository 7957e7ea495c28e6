// Package sim is the discrete-event simulator of the paper's §5.5: it
// replays IDLT traces (the 17.5-hour excerpt and the 90-day summer trace)
// against the four scheduling policies — Reservation, Batch (FCFS),
// NotebookOS, and NotebookOS (LCP) — using the same cluster model and
// placement code as the live platform, with protocol latencies drawn from
// models calibrated against the live implementation and the paper's
// reported distributions.
//
// One engine: the simulator is a federation of member clusters under one
// policy. RunFederated runs it for the NotebookOS policy against
// independently sized clusters (see internal/federation), routing session
// placement and cross-cluster replica migration under a pluggable
// federation route policy. Run is the same engine with one member, sized
// from Config.Hosts/HostCapacity/MinHosts/ScalingBufferHosts under
// LocalFirst routing, running any of the four policies; Reservation,
// Batch and LCP keep their own task paths over that member's hosts. Each
// runner projects the engine into its result type, and the recorders only
// Result exposes (SR, Fig. 10 events, the per-step breakdown,
// Sync/Read/Write samples, ExecutorReuse) exist only under Run. A
// one-member RunFederated reproduces every output it shares with
// Run(PolicyNotebookOS) exactly (TestRunIsOneMemberFederation).
//
// RunSharded (and RunFederatedSharded) splits a long trace into
// session-partitioned shards via trace.Split, replays one worker
// simulation per shard on parallel goroutines with ShardSeed-derived seeds, and merges the
// results deterministically with MergeResults/MergeFedResults —
// timelines through metrics.MergeTimelines, samples through
// metrics.MergeSamples (k-way merges of the shards' sorted runs, so
// merged quantiles are bit-identical to concatenation), events by a
// pre-sized k-way merge on their int64 timestamps, counters by
// summation, always in shard-index order so output never
// depends on worker completion order. The workers never share capacity
// after the initial proportional grant, so the saved-GPU-hour drift
// bound documented on RunSharded applies (pinned by
// TestShardedSavingsDriftBound); latency distributions are shard-local —
// unbiased but not sample-identical. A caller that needs exact metrics
// sets Config.ShardCapacity to LeasePool, and every sharded runner then
// returns the unsharded run itself (pinned by TestLeasePoolCapacityExact;
// docs/SHARDING.md).
//
// Crossing-cost accounting in RunFederated: every federation boundary
// crossing is charged from federation.Federation.Penalty — either the
// symmetric FedConfig.InterClusterPenalty or, when FedConfig.Latency
// installs a per-pair latency matrix, the actual (home, remote) pair
// cost. A task served by a replica outside its session's home cluster
// pays two crossings (request and reply); a migration that moves a
// replica between clusters pays two crossings for the checkpoint
// transfer (persist + restore through the data store).
//
// Autoscaling in RunFederated runs in one of two modes. Per-member (the
// default): each member scales on its own committed load, floored at its
// own FedClusterSpec.MinHosts — which is clamped to at least R, because a
// member that places R-replica kernels locally becomes permanently
// unplaceable below R hosts. Pooled (FedConfig.PooledAutoscale): one
// federation.FederatedAutoscaler decision per interval, observed over the
// members' O(1) counters, with the per-member floors replaced by a single
// federation-wide floor (FedConfig.FedMinHosts, default a quarter of the
// initial fleet, clamped to R) plus the placement anchor — scale-in never
// leaves every member below R hosts, so kernels homed at drained members
// still place somewhere via routing. The clamp rule lives in
// scheduler.MinHostsFloor.
//
// Invariants:
//
//   - Determinism: a fixed Config (including Seed) replays bit-for-bit,
//     regardless of goroutine scheduling in the surrounding experiment
//     harness. All randomness comes from rand.Rand instances seeded only
//     by the config: Seed+1 drives scheduling, Seed+2 workload
//     assignment, Seed+3 the fault path (faults enabled only), Seed+4 the
//     record-only Fig. 11 Sync/Put draws (Run only, so recording never
//     perturbs scheduling), and Seed+1001 onward the lean-metrics
//     reservoirs, created in a fixed order; tasks blocked on capacity park on a FIFO wait-queue
//     drained as a single DES event (see capacityWaitQueue), never on
//     polling timers; nothing iterates Go maps on result-affecting paths;
//     and pooled autoscaling decisions are pure functions of the observed
//     loads. Double-run equality is enforced by determinism tests for
//     Run, RunFederated, and the pooled/matrix federated path.
//   - SLO-aware scheduling is opt-in: FedConfig.SLOAware switches the
//     wait-queue to class-weighted priority order (rank = waited×weight,
//     FIFO within a class, waiters past FedConfig.SLOAgingBound promoted
//     ahead of everything so best-effort cannot starve) and records
//     per-class queue delays in FedResult.ClassDelay; the default FIFO
//     path is untouched and replays every existing workload
//     byte-identically. The priority drain's comparator is a total order
//     (arrival sequences are unique), so SLO-aware runs replay
//     bit-for-bit too.
//   - Saturation costs O(waiters) events: the cluster's capacity notifier
//     (Release/AddHost) wakes the wait-queue; there are no retry polls.
//   - Fault injection is opt-in and identity-preserving: Config.Faults
//     (and FedConfig.Faults) replays a deterministic fault schedule —
//     exponential host crash/recover churn, correlated outage windows,
//     degraded-network episodes — as first-class DES events (faults.go;
//     docs/FAULTS.md). The stream derives from (FaultSpec, Seed) alone
//     and its RNGs are disjoint from every workload stream, so a nil or
//     empty spec is byte-identical to the fault layer not existing
//     (TestZeroFaultSpecIsIdentity), and a fixed config replays the
//     identical crash sequence (TestFaultRunsDoubleRunByteIdentical).
//     Quorum-preserving replica loss fails over without interrupting the
//     running task; executor death or quorum loss aborts into
//     checkpoint-restore resubmission under SLO-class retry budgets.
//   - Traces are read-only: a *trace.Trace may be shared by any number of
//     concurrent simulations.
package sim
