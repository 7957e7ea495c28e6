package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"notebookos/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/all-quick.golden from the current output")

// goldenPath holds the masked output of `nbos-sim -exp all -quick` at the
// default seed.
var goldenPath = filepath.Join("testdata", "all-quick.golden")

// Wall-clock and peak-heap figures are machine-dependent; every other
// printed byte is seed-deterministic.
var (
	timingRE   = regexp.MustCompile(`completed in [0-9.]+s`)
	peakHeapRE = regexp.MustCompile(`at [0-9]+ MiB peak heap`)
)

func maskMachineDependent(out string) string {
	out = timingRE.ReplaceAllString(out, "completed in Xs")
	return peakHeapRE.ReplaceAllString(out, "at N MiB peak heap")
}

// TestGoldenAllQuick pins every number `-exp all -quick` prints: the
// output, masked of timings and peak heap, must equal the committed file
// both sequentially and with experiments running concurrently, so neither
// a model change nor scheduling order can move a figure unnoticed. A PR
// that moves a number on purpose regenerates the file with
//
//	go test ./cmd/nbos-sim -run TestGoldenAllQuick -update
//
// and the move shows in its diff.
func TestGoldenAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	jobs := runtime.NumCPU()
	if jobs < 2 {
		jobs = 2
	}
	o := experiments.Options{Seed: 42, Quick: true, Shards: 1}
	for _, j := range []int{1, jobs} {
		var buf bytes.Buffer
		if code := run(&buf, o, "all", "", "", false, j); code != 0 {
			t.Fatalf("-jobs %d: exit code %d", j, code)
		}
		got := maskMachineDependent(buf.String())
		if *update && j == 1 {
			if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if got != string(want) {
			t.Fatalf("-jobs %d output differs from %s (regenerate with -update if the move is intended):\n%s",
				j, goldenPath, firstDiff(string(want), got))
		}
	}
}

// firstDiff reports the first differing line of two outputs.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "(no differing line)"
}
