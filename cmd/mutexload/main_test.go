package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func TestRunValidation(t *testing.T) {
	if err := run([]string{"-nodes", "0"}); err == nil {
		t.Error("zero nodes accepted")
	}
	if err := run([]string{"-transport", "carrier-pigeon", "-duration", "10ms"}); err == nil {
		t.Error("unknown transport accepted")
	}
	// Core is the only live algorithm: there is no -algo to choose
	// another with.
	if err := run([]string{"-algo", "raymond", "-duration", "10ms"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-algo: got %v, want an unknown-flag error", err)
	}
	if err := run([]string{"-loss", "0.1", "-duration", "10ms"}); err == nil || !strings.Contains(err.Error(), "-chaos drop=P") {
		t.Errorf("-loss: got %v, want a flag error naming -chaos drop=P", err)
	}
	if err := run([]string{"-keys", "0", "-duration", "10ms"}); err == nil {
		t.Error("zero keys accepted")
	}
	if err := run([]string{"-workers", "0", "-duration", "10ms"}); err == nil {
		t.Error("zero workers accepted")
	}
	if err := run([]string{"-sessions", "-1", "-duration", "10ms"}); err == nil {
		t.Error("negative sessions accepted")
	}
	if err := run([]string{"-sessions", "10", "-conns", "0", "-duration", "10ms"}); err == nil {
		t.Error("session mode without connections accepted")
	}
	if err := run([]string{"-codec", "gob", "-duration", "10ms"}); err == nil {
		t.Error("the -codec flag is still accepted")
	}
}

// TestRunShortSessionLoad is the session-mode smoke: a small cohort of
// leased sessions against a 3-node mem cluster, checker on.
func TestRunShortSessionLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real cluster")
	}
	err := run([]string{"-sessions", "120", "-conns", "4", "-nodes", "3", "-keys", "2",
		"-duration", "700ms", "-think", "2ms", "-hold", "200us", "-wait", "500ms",
		"-slowest", "0", "-pernode=false"})
	if err != nil {
		t.Fatalf("session load: %v", err)
	}
}

// TestRunTenThousandSessions is the scale acceptance: the driver must
// sustain 10,000 concurrent TTL-leased sessions against a 3-node
// loopback-TCP cluster with admission control engaged (the per-key
// waiter bound refuses the excess and the drivers back off), and the
// cluster-wide exclusion/fencing checker must stay clean. Too heavy for
// the race detector — CI runs it in the chaos-soak job without -race.
func TestRunTenThousandSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("opens 10k sessions against a real TCP cluster")
	}
	err := run([]string{"-transport", "tcp", "-sessions", "10000", "-nodes", "3",
		"-keys", "4", "-duration", "3s", "-think", "200ms", "-hold", "200us",
		"-wait", "1s", "-slowest", "0", "-pernode=false"})
	if err != nil {
		t.Fatalf("10k session load: %v", err)
	}
}

func TestRunShortMemLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real cluster")
	}
	err := run([]string{"-nodes", "3", "-duration", "500ms", "-rate", "100", "-hold", "200us"})
	if err != nil {
		t.Fatalf("mem load: %v", err)
	}
}

func TestRunShortTCPLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real cluster")
	}
	err := run([]string{"-transport", "tcp", "-nodes", "2", "-duration", "500ms", "-rate", "50"})
	if err != nil {
		t.Fatalf("tcp load: %v", err)
	}
}

func TestRunShortMultiKeyLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real cluster")
	}
	err := run([]string{"-nodes", "3", "-keys", "4", "-workers", "4", "-rate", "0",
		"-duration", "500ms", "-hold", "500us"})
	if err != nil {
		t.Fatalf("multi-key mem load: %v", err)
	}
}

// TestRunWithLossAndMonitor is the lossy monitored load, once per
// transport: -chaos must reach the wire on both, so the report's
// injected-drop tally has to be non-zero. (The -loss flag it replaces
// only ever reached the mem transport.)
func TestRunWithLossAndMonitor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real cluster")
	}
	for _, trans := range []string{"mem", "tcp"} {
		t.Run(trans, func(t *testing.T) {
			out, err := captureStdout(t, func() error {
				return run([]string{"-transport", trans, "-nodes", "3", "-duration", "1s", "-rate", "400",
					"-chaos", "drop=0.01,seed=1", "-monitor", "-slowest", "0", "-pernode=false"})
			})
			if err != nil {
				t.Fatalf("lossy monitored load: %v", err)
			}
			if !strings.Contains(out, "chaos: dropped=") || strings.Contains(out, "chaos: dropped=0 ") {
				t.Errorf("-chaos drop=0.01 over %s reported no injected drops:\n%s", trans, out)
			}
		})
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	ferr := f()
	os.Stdout = orig
	w.Close()
	return <-read, ferr
}
