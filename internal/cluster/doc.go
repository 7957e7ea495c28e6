// Package cluster models the GPU server cluster NotebookOS schedules over:
// hosts with fixed capacities, the replicas subscribed to each host, the
// resources exclusively committed during cell execution, and the
// subscription-ratio (SR) arithmetic of paper §3.4.1. Both the live
// schedulers (internal/scheduler) and the discrete-event simulator
// (internal/sim) operate on this state, so placement decisions cannot
// drift between the two.
//
// Replicas subscribe through integer handles: Host.PlaceReplica returns a
// ReplicaHandle and Host.RemoveReplica takes it back. A host keeps its
// replicas in a dense slot slice with a free list, so a handle stays
// valid until its own removal. Each handle carries its slot's generation,
// which makes a stale, repeated or zero handle an error that changes
// nothing, never the removal of whichever replica reused the slot.
//
// Cluster-wide GPU aggregates (total / subscribed / committed) are
// maintained incrementally: every PlaceReplica, RemoveReplica, Commit,
// Release, AddHost, and RemoveHost updates atomic counters, so TotalGPUs,
// SubscribedGPUs, CommittedGPUs, and SRLimit are O(1) instead of O(hosts)
// scans. The invariant — counters always equal a from-scratch recount over
// the member hosts — is enforced by a property test. EmptyHosts, the count
// of member hosts with no replicas and nothing committed, is kept the same
// way, so the autoscalers' scale-in paths skip their scans when it is zero.
//
// Least-loaded placement walks a load index instead of scanning the hosts
// (loadindex.go). The index orders hosts exactly as scheduler.LeastLoaded
// ranks them: idle GPUs descending, then post-placement subscription ratio
// ascending, then host ID ascending. It keeps one class per host capacity,
// one level per committed-GPU count and one unordered bucket per
// subscribed-GPU count; a walk takes a bucket's hosts in ID order through
// integer ranks that follow ID order, and SelectLeastLoaded merges the
// classes per request. The index is built lazily on the first
// SelectLeastLoaded, so clusters that never place least-loaded pay
// nothing. AddHost, RemoveHost and CrashHost then file and unfile hosts at
// once; PlaceReplica, RemoveReplica, Commit and Release only queue their
// host, and the next walk refiles every queued host from its load mirrors.
// PlacementWork counts the walks and the hosts they read.
//
// Locking contract: writers mutate a host under its mu and, still under
// it, update the host's atomic load mirrors, the cluster aggregates, the
// empty-host count and the index. Readers are lock-free:
// Host.SubscribedGPUs, Host.IdleGPUs (from the host's own commitment
// ledger) and Host.Empty read the atomics. The index lock is always taken
// after a host's mu, never before, and a walk holds only the index lock,
// so the lock order is cluster mu, then host mu, then index lock.
package cluster
