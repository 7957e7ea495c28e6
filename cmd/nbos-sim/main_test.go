package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"notebookos/internal/experiments"
)

// TestRunRejectsBadCounts: a shard or job count below 1 is an input
// error (exit code 2 with a message naming the flag), never a silent
// clamp to 1.
func TestRunRejectsBadCounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		jobs   int
		exp    string
		code   int
		errMsg string
	}{
		{"negative shards", -3, 1, "fig8", 2, "-shards must be at least 1, got -3"},
		{"zero shards", 0, 1, "fig8", 2, "-shards must be at least 1, got 0"},
		{"zero jobs", 1, 0, "all", 2, "-jobs must be at least 1, got 0"},
		{"negative jobs", 2, -1, "all", 2, "-jobs must be at least 1, got -1"},
		{"valid listing", 1, 1, "", 0, ""},
		{"valid sharded listing", 4, 8, "", 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := experiments.Options{Seed: 42, Quick: true, Shards: tc.shards}
			var code int
			stderr := captureStderr(t, func() {
				code = run(os.Stdout, o, tc.exp, "", "", tc.exp == "", tc.jobs)
			})
			if code != tc.code {
				t.Fatalf("exit code %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.errMsg) || (tc.errMsg == "" && stderr != "") {
				t.Fatalf("stderr %q, want %q", stderr, tc.errMsg)
			}
		})
	}
}

// captureStderr runs f with os.Stderr redirected and returns what f wrote
// there; stdout goes to a discarded pipe the same way.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	rOut, wOut, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	rErr, wErr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan string)
	go func() { _, _ = io.Copy(io.Discard, rOut) }()
	go func() {
		b, _ := io.ReadAll(rErr)
		done <- string(b)
	}()
	os.Stdout, os.Stderr = wOut, wErr
	defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
	f()
	wOut.Close()
	wErr.Close()
	return <-done
}
