package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if workloads[i].name != w.Name || workloads[i].why != w.Why {
			t.Errorf("workload %d is %q (%q), BENCHMARK.json has %q (%q)", i, workloads[i].name, workloads[i].why, w.Name, w.Why)
		}
	}
}

// TestSmoke runs every workload at reduced scale in both modes and checks
// that the result line carries exactly the metrics BENCHMARK.json names,
// with their units, and that every output check passed.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			want  []specMetric
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			t.Run(w.name+"/trace="+mode.trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0", "--trace", mode.trace, "--short", "--out", t.TempDir()}
				if code := realMain(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "stream-65k-128h", "--trace", "2"},
		{"--workload", "stream-65k-128h", "--seconds", "-1"},
		{"--workload", "stream-65k-128h", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code == 0 {
			t.Errorf("%q: exit code 0, want an error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q, want no result", args, stdout.String())
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"notebookos/internal/cluster.(*Host).SubscribedGPUs": "cluster",
		"notebookos/internal/des.eventHeap.siftDown":         "des",
		"notebookos/internal/sim.(*sim).tryTask.func1":       "sim",
		"notebookos/internal/simclock.New":                   "",
		"notebookos/internal/experiments.Run":                "",
		"runtime.mallocgc":                                   "",
		"sync.(*Mutex).Lock":                                 "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
