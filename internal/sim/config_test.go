package sim

import (
	"strings"
	"testing"
	"time"

	"notebookos/internal/trace"
)

// TestConfigRejectsNegativeValues: every sized or rate field of Config,
// FedClusterSpec and FedConfig reads zero as "use the default" and rejects
// a negative value with an error naming the field, instead of silently
// defaulting it or running with it (a PrewarmPerHost of -1 used to give a
// warm pool of -1).
func TestConfigRejectsNegativeValues(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(3)
	gcfg.Duration = time.Hour
	tr := trace.MustGenerate(gcfg)

	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Hosts", func(c *Config) { c.Hosts = -1 }},
		{"MinHosts", func(c *Config) { c.MinHosts = -1 }},
		{"ScalingBufferHosts", func(c *Config) { c.ScalingBufferHosts = -1 }},
		{"PrewarmPerHost", func(c *Config) { c.PrewarmPerHost = -1 }},
		{"ReplicasPerKernel", func(c *Config) { c.ReplicasPerKernel = -3 }},
		{"LeanSampleCap", func(c *Config) { c.LeanSampleCap = -1 }},
		{"ScaleFactor", func(c *Config) { c.ScaleFactor = -1.05 }},
		{"SRHighWatermark", func(c *Config) { c.SRHighWatermark = -3 }},
		{"SampleEvery", func(c *Config) { c.SampleEvery = -time.Minute }},
		{"AutoscaleInterval", func(c *Config) { c.AutoscaleInterval = -time.Minute }},
	} {
		t.Run("Config."+tc.field, func(t *testing.T) {
			cfg := Config{Trace: tr, Seed: 1}
			tc.set(&cfg)
			for name, run := range map[string]func() error{
				"Run":        func() error { _, err := Run(cfg); return err },
				"RunSharded": func() error { _, err := RunSharded(cfg, 2); return err },
			} {
				if err := run(); err == nil || !strings.Contains(err.Error(), tc.field) {
					t.Errorf("%s: error %v, want one naming %s", name, err, tc.field)
				}
			}
		})
	}

	for _, tc := range []struct {
		field string
		set   func(*FedConfig)
	}{
		{"Hosts", func(c *FedConfig) { c.Clusters[1].Hosts = -1 }},
		{"MinHosts", func(c *FedConfig) { c.Clusters[0].MinHosts = -1 }},
		{"FedMinHosts", func(c *FedConfig) { c.FedMinHosts = -1 }},
		{"PrewarmPerHost", func(c *FedConfig) { c.PrewarmPerHost = -1 }},
		{"SLOAgingBound", func(c *FedConfig) { c.SLOAware, c.SLOAgingBound = true, -time.Minute }},
		{"InterClusterPenalty", func(c *FedConfig) { c.InterClusterPenalty = -5 * time.Millisecond }},
	} {
		t.Run("FedConfig."+tc.field, func(t *testing.T) {
			cfg := FedConfig{Trace: tr, Clusters: DefaultFedClusters(2, 12), Seed: 1}
			tc.set(&cfg)
			for name, run := range map[string]func() error{
				"RunFederated":        func() error { _, err := RunFederated(cfg); return err },
				"RunFederatedSharded": func() error { _, err := RunFederatedSharded(cfg, 2); return err },
			} {
				if err := run(); err == nil || !strings.Contains(err.Error(), tc.field) {
					t.Errorf("%s: error %v, want one naming %s", name, err, tc.field)
				}
			}
		})
	}

	// Zero keeps meaning "default", and the explicit no-penalty sentinel
	// stays legal.
	if _, err := Run(Config{Trace: tr, Seed: 1}); err != nil {
		t.Errorf("zero Config rejected: %v", err)
	}
	if _, err := RunFederated(FedConfig{Trace: tr, Seed: 1, InterClusterPenalty: NoInterClusterPenalty}); err != nil {
		t.Errorf("NoInterClusterPenalty rejected: %v", err)
	}
}

// TestOutageNamingNoMemberIsAnError: a member-scoped outage whose Cluster
// names no member would never fire, so the federated runners reject it;
// single-cluster Run ignores member-scoped outages, as documented.
func TestOutageNamingNoMemberIsAnError(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(5)
	gcfg.Duration = 2 * time.Hour
	tr := trace.MustGenerate(gcfg)
	outage := func(cluster string) *trace.FaultSpec {
		return &trace.FaultSpec{Outages: []trace.OutageSpec{
			{StartHour: 0.5, DurationHours: 0.5, HostFraction: 0.5, Cluster: cluster},
		}}
	}
	clusters := []FedClusterSpec{{Name: "east", Hosts: 8}, {Name: "west", Hosts: 8}}

	bad := FedConfig{Trace: tr, Clusters: clusters, Seed: 1, Faults: outage("north")}
	badStream := bad
	badStream.Trace = nil
	for name, run := range map[string]func() error{
		"RunFederated":        func() error { _, err := RunFederated(bad); return err },
		"RunFederatedSharded": func() error { _, err := RunFederatedSharded(bad, 2); return err },
		"RunFederatedStreamSharded": func() error {
			_, err := RunFederatedStreamSharded(gcfg, badStream, 2)
			return err
		},
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), `"north"`) {
			t.Errorf("%s: error %v, want one naming cluster \"north\"", name, err)
		}
	}

	good := bad
	good.Faults = outage("west")
	res, err := RunFederated(good)
	if err != nil {
		t.Fatalf("outage naming a member rejected: %v", err)
	}
	if res.HostCrashes == 0 {
		t.Error("the scoped outage crashed no host")
	}

	single, err := Run(Config{Trace: tr, Hosts: 16, Seed: 1, Faults: outage("north")})
	if err != nil {
		t.Fatalf("Run must ignore member-scoped outages, got %v", err)
	}
	if single.HostCrashes != 0 {
		t.Errorf("Run applied a member-scoped outage: %d crashes", single.HostCrashes)
	}
}
