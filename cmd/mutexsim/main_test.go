package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadInvocations(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"-lambdas", "zz", "fig345"}); err == nil {
		t.Error("malformed -lambdas accepted")
	}
}

// TestReplayRefusesV1Capture: a capture from before the frame format
// (v1 held gob-sealed envelopes) is refused at its header, naming the
// version it has and the version this build reads.
func TestReplayRefusesV1Capture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.jsonl")
	if err := os.WriteFile(path, []byte(`{"v":1,"algo":"core","n":3}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"replay", path})
	if err == nil {
		t.Fatal("replay accepted a v1 capture")
	}
	if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "v3") {
		t.Errorf("error %q does not name both versions", err)
	}
}

// TestReplayRefusesNonCoreCapture: the live runtime runs only core, so a
// capture tagged with any other algorithm is refused by name before
// anything replays.
func TestReplayRefusesNonCoreCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raymond.jsonl")
	if err := os.WriteFile(path, []byte(`{"v":3,"algo":"raymond","n":3}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"replay", path})
	if err == nil {
		t.Fatal("replay accepted a raymond capture")
	}
	if !strings.Contains(err.Error(), `"raymond"`) {
		t.Errorf("error %q does not name the capture's algorithm", err)
	}
}

func TestRunQuickAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation batch")
	}
	err := run([]string{"-quick", "-reps", "2", "-requests", "4000", "analysis"})
	if err != nil {
		t.Fatalf("analysis: %v", err)
	}
}

func TestRunQuickFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation batch")
	}
	err := run([]string{"-requests", "4000", "-reps", "2", "-lambdas", "0.1,0.4", "fairness"})
	if err != nil {
		t.Fatalf("fairness: %v", err)
	}
}

func TestRunQuickFig345WithCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation batch")
	}
	err := run([]string{"-requests", "3000", "-reps", "2", "-csv", "-lambdas", "0.1,0.4", "fig345"})
	if err != nil {
		t.Fatalf("fig345: %v", err)
	}
}

// TestRunQuickWindow drives E16 through run() the way CI's smoke step
// does, -svg included: the Pareto figure must render.
func TestRunQuickWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation batch")
	}
	dir := t.TempDir()
	err := run([]string{"-requests", "3000", "-reps", "2", "-csv", "-svg", dir, "-lambdas", "0.01,0.3", "window"})
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "e16.svg")); err != nil {
		t.Errorf("no Pareto figure written: %v", err)
	}
}
