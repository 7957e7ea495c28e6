package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/trace"
)

func fedQuickTrace(seed int64) *trace.Trace {
	cfg := trace.AdobeExcerptConfig(seed)
	cfg.Duration = 4 * time.Hour
	return trace.MustGenerate(cfg)
}

func runFed(t *testing.T, tr *trace.Trace, k int, route federation.RoutePolicy) *FedResult {
	t.Helper()
	res, err := RunFederated(FedConfig{
		Trace:    tr,
		Clusters: DefaultFedClusters(k, 30),
		Route:    route,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFederatedMergedIntegralEqualsSum pins the metrics-merging invariant:
// the federation-wide committed/provisioned series must integrate to the
// sum of the per-cluster integrals.
func TestFederatedMergedIntegralEqualsSum(t *testing.T) {
	tr := fedQuickTrace(42)
	for _, k := range []int{2, 3, 4} {
		res := runFed(t, tr, k, federation.LeastSubscribed{})
		var comm, prov float64
		for _, c := range res.Clusters {
			comm += c.CommittedGPUs.Integral(tr.Start, tr.End)
			prov += c.ProvisionedGPUs.Integral(tr.Start, tr.End)
		}
		if got := res.CommittedGPUs.Integral(tr.Start, tr.End); !closeRel(got, comm) {
			t.Errorf("k=%d: merged committed integral %.6f != per-cluster sum %.6f", k, got, comm)
		}
		if got := res.ProvisionedGPUs.Integral(tr.Start, tr.End); !closeRel(got, prov) {
			t.Errorf("k=%d: merged provisioned integral %.6f != per-cluster sum %.6f", k, got, prov)
		}
		if res.Tasks == 0 {
			t.Errorf("k=%d: no tasks simulated", k)
		}
	}
}

func closeRel(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

// fedFingerprint collapses a FedResult into comparable values.
type fedFingerprint struct {
	tasks, immediate          int
	localPl, remotePl         int
	remoteExec                int
	migrations, cross         int
	scaleOuts, scaleIns       int
	coldStarts, warmStarts    int
	delayP50, delayP99        float64
	tctP50, tctP99            float64
	activeGPUHours, provHours float64
	reservedHours             float64
	sessIntegral              float64
	perClusterCommitted       [8]float64
}

func fedFingerprintOf(tr *trace.Trace, r *FedResult) fedFingerprint {
	fp := fedFingerprint{
		tasks: r.Tasks, immediate: r.ImmediateCommits,
		localPl: r.LocalPlacements, remotePl: r.RemotePlacements,
		remoteExec: r.RemoteExecutions,
		migrations: r.Migrations, cross: r.CrossMigrations,
		scaleOuts: r.ScaleOuts, scaleIns: r.ScaleIns,
		coldStarts: r.ColdStarts, warmStarts: r.WarmStarts,
		delayP50:       r.Interactivity.Percentile(50),
		delayP99:       r.Interactivity.Percentile(99),
		tctP50:         r.TCT.Percentile(50),
		tctP99:         r.TCT.Percentile(99),
		activeGPUHours: r.ActiveGPUHours,
		provHours:      r.ProvisionedGPUHours,
		reservedHours:  r.ReservedGPUHours,
		sessIntegral:   r.ActiveSessions.Integral(tr.Start, tr.End),
	}
	for i, c := range r.Clusters {
		if i < len(fp.perClusterCommitted) {
			fp.perClusterCommitted[i] = c.CommittedGPUs.Integral(tr.Start, tr.End)
		}
	}
	return fp
}

// TestFederatedSameSeedBitForBit double-runs federated simulations with a
// fixed seed across every route policy and asserts identical results —
// the determinism guarantee the federated wait-queue and route policies
// must preserve.
func TestFederatedSameSeedBitForBit(t *testing.T) {
	tr := fedQuickTrace(33)
	for _, route := range []federation.RoutePolicy{
		federation.LocalFirst{},
		federation.LeastSubscribed{},
		federation.LatencyAware{},
	} {
		a := runFed(t, tr, 4, route)
		b := runFed(t, tr, 4, route)
		fa, fb := fedFingerprintOf(tr, a), fedFingerprintOf(tr, b)
		if fa != fb {
			t.Errorf("%s: same seed diverged:\n  run1: %+v\n  run2: %+v", route.Name(), fa, fb)
		}
	}
}

// TestFederatedSpillsAcrossClusters checks the federation actually routes:
// with more than one cluster and a balancing policy, some sessions or
// executions must cross the home-cluster boundary.
func TestFederatedSpillsAcrossClusters(t *testing.T) {
	tr := fedQuickTrace(42)
	res := runFed(t, tr, 4, federation.LeastSubscribed{})
	if res.RemotePlacements == 0 && res.RemoteExecutions == 0 && res.CrossMigrations == 0 {
		t.Error("4-cluster least-subscribed run never crossed a cluster boundary")
	}
	if res.LocalPlacements+res.RemotePlacements == 0 {
		t.Error("no sessions placed")
	}
}

// TestDefaultFedClustersConserveHosts pins the sweep-fairness property:
// every cluster count splits exactly the same host budget (raised to one
// host per cluster when the budget is smaller than the cluster count).
func TestDefaultFedClustersConserveHosts(t *testing.T) {
	for _, budget := range []int{4, 8, 10, 30} {
		for k := 1; k <= 8; k++ {
			specs := DefaultFedClusters(k, budget)
			want := budget
			if want < k {
				want = k
			}
			total := 0
			for _, s := range specs {
				if s.Hosts < 1 {
					t.Errorf("budget=%d k=%d: cluster %s has %d hosts", budget, k, s.Name, s.Hosts)
				}
				total += s.Hosts
			}
			if total != want {
				t.Errorf("budget=%d k=%d: %d total hosts, want %d", budget, k, total, want)
			}
			if k > 1 && specs[0].Hosts < specs[k-1].Hosts {
				t.Errorf("budget=%d k=%d: sizes not descending: %d..%d",
					budget, k, specs[0].Hosts, specs[k-1].Hosts)
			}
		}
	}
	// The canonical 30-host sweep must stay strictly heterogeneous.
	for k := 2; k <= 8; k++ {
		specs := DefaultFedClusters(k, 30)
		if specs[0].Hosts <= specs[k-1].Hosts {
			t.Errorf("k=%d: expected heterogeneous sizes, got %d..%d",
				k, specs[0].Hosts, specs[k-1].Hosts)
		}
	}
}

// TestRunIsOneMemberFederation pins the single-cluster run to the
// federated engine: Run(PolicyNotebookOS) and a one-member RunFederated
// with the same host count, scale-in floor and seed must agree exactly on
// every output the two results share — counters, sample values, and
// timeline points — on a materialized trace and on a streamed lean
// source, each with and without faults.
func TestRunIsOneMemberFederation(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(42)
	gcfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(gcfg)
	heavy := trace.HeavyFaultProfile()
	for _, tc := range []struct {
		name   string
		stream bool
		faults *trace.FaultSpec
	}{
		{"materialized", false, nil},
		{"materialized-heavy", false, &heavy},
		{"stream-lean", true, nil},
		{"stream-lean-heavy", true, &heavy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, MinHosts: 4, Seed: 7, Faults: tc.faults}
			fcfg := FedConfig{Trace: tr, Clusters: []FedClusterSpec{{Hosts: 30, MinHosts: 4}}, Seed: 7, Faults: tc.faults}
			if tc.stream {
				for _, src := range []*trace.Source{&cfg.Source, &fcfg.Source} {
					gen, err := trace.NewStreamGen(gcfg, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					*src = gen
				}
				cfg.Trace, fcfg.Trace = nil, nil
				cfg.LeanMetrics, fcfg.LeanMetrics = true, true
			}
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := RunFederated(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			counters := []struct {
				name     string
				run, fed int
			}{
				{"Tasks", r.Tasks, f.Tasks},
				{"ImmediateCommits", r.ImmediateCommits, f.ImmediateCommits},
				{"Migrations", r.Migrations, f.Migrations},
				{"ScaleOuts", r.ScaleOuts, f.ScaleOuts},
				{"ScaleIns", r.ScaleIns, f.ScaleIns},
				{"ColdStarts", r.ColdStarts, f.ColdStarts},
				{"WarmStarts", r.WarmStarts, f.WarmStarts},
				{"HostCrashes", r.HostCrashes, f.HostCrashes},
				{"HostRecoveries", r.HostRecoveries, f.HostRecoveries},
				{"Failovers", r.Failovers, f.Failovers},
				{"TaskRestarts", r.TaskRestarts, f.TaskRestarts},
				{"Abandonments", r.Abandonments, f.Abandonments},
			}
			for _, c := range counters {
				if c.run != c.fed {
					t.Errorf("%s: Run %d, RunFederated %d", c.name, c.run, c.fed)
				}
			}
			if r.Tasks == 0 || r.Migrations == 0 {
				t.Errorf("fixture too quiet: %d tasks, %d migrations", r.Tasks, r.Migrations)
			}
			if tc.faults != nil && r.HostCrashes == 0 {
				t.Error("fault fixture crashed no host")
			}
			floats := []struct {
				name     string
				run, fed float64
			}{
				{"LostGPUHours", r.LostGPUHours, f.LostGPUHours},
				{"ReservedGPUHours", r.ReservedGPUHours, f.ReservedGPUHours},
				{"ActiveGPUHours", r.ActiveGPUHours, f.ActiveGPUHours},
			}
			for _, c := range floats {
				if c.run != c.fed {
					t.Errorf("%s: Run %v, RunFederated %v", c.name, c.run, c.fed)
				}
			}
			samples := []struct {
				name     string
				run, fed *metrics.Sample
			}{
				{"Interactivity", r.Interactivity, f.Interactivity},
				{"TCT", r.TCT, f.TCT},
				{"RecoveryTime", r.RecoveryTime, f.RecoveryTime},
			}
			for _, c := range samples {
				if (c.run == nil) != (c.fed == nil) {
					t.Errorf("%s: presence differs", c.name)
					continue
				}
				if c.run != nil && !reflect.DeepEqual(c.run.Values(), c.fed.Values()) {
					t.Errorf("%s: sample values differ (N %d vs %d)", c.name, c.run.N(), c.fed.N())
				}
			}
			timelines := []struct {
				name     string
				run, fed *metrics.Timeline
			}{
				// The member's own series: FedResult's federation-wide ones
				// are their merge, which drops the lean coalescing setting.
				{"ProvisionedGPUs", r.ProvisionedGPUs, f.Clusters[0].ProvisionedGPUs},
				{"CommittedGPUs", r.CommittedGPUs, f.Clusters[0].CommittedGPUs},
				{"ActiveSessions", r.ActiveSessions, f.ActiveSessions},
				{"Availability", r.Availability, f.Availability},
			}
			for _, c := range timelines {
				// DeepEqual walks the timelines' point slices, so equality is
				// point for point, not just equal integrals.
				if !reflect.DeepEqual(c.run, c.fed) {
					t.Errorf("%s: timelines differ (%d vs %d points)", c.name, c.run.Len(), c.fed.Len())
				}
			}
		})
	}
}
