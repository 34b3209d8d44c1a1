package cluster

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tokenarbiter/internal/session"
)

// TB is the part of testing.TB that Start uses.
type TB interface {
	Helper()
	Name() string
	Cleanup(func())
	Failed() bool
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
	Logf(format string, args ...any)
}

// Start builds a cluster for a test and judges it when the test ends.
//
// Every cluster Start builds records a capture, named cfg.Capture or
// after the test, under $FLIGHTREC_DIR when that is set (CI uploads the
// directory when a job fails) and else in a temporary directory removed
// when the test passes. A name already taken there gets a numeric
// suffix, so no run overwrites another's capture.
//
// At cleanup the cluster closes, if the test has not closed it, and each
// violation in its verdict fails the test. A failed test logs the
// capture's path beside the verdict, for `mutexsim replay`.
//
// Session servers get a 1 ms lease floor, since tests step leases in
// tens of milliseconds; cfg.Server may set another.
func Start(t TB, cfg Config) *Cluster {
	t.Helper()
	dir := os.Getenv("FLIGHTREC_DIR")
	var err error
	if dir == "" {
		if dir, err = os.MkdirTemp("", "flightrec-"); err == nil {
			t.Cleanup(func() {
				if !t.Failed() {
					_ = os.RemoveAll(dir)
				}
			})
		}
	} else {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		t.Fatalf("flight recorder dir: %v", err)
	}
	name := cfg.Capture
	if name == "" {
		name = t.Name()
	}
	if cfg.Capture, err = reserve(dir, name); err != nil {
		t.Fatalf("flight recorder capture: %v", err)
	}
	if server := cfg.Server; cfg.Sessions != "" {
		cfg.Server = func(i int, sc *session.Config) {
			sc.MinTTL = time.Millisecond
			if server != nil {
				server(i, sc)
			}
		}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	// Registered after the directory's cleanup, so it runs first.
	t.Cleanup(func() {
		v, err := c.Close()
		if err != nil {
			t.Errorf("judge the cluster's capture: %v", err)
		} else {
			for _, x := range v.Violations {
				t.Errorf("safety: %s", x)
			}
		}
		if t.Failed() {
			t.Logf("flight-recorder capture: %s\nverdict: %s", cfg.Capture, v)
		}
	})
	return c
}

// reserve creates an empty capture file for name in dir and returns its
// path: name.jsonl, or name-2.jsonl and so on when that is taken. The
// name's characters outside [A-Za-z0-9._,=-] become '_'.
func reserve(dir, name string) (string, error) {
	name = strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || strings.ContainsRune("._,=-", r) {
			return r
		}
		return '_'
	}, name)
	for k := 1; ; k++ {
		path := filepath.Join(dir, name+".jsonl")
		if k > 1 {
			path = filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", name, k))
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			return path, f.Close()
		}
		if !errors.Is(err, fs.ErrExist) {
			return "", err
		}
	}
}
