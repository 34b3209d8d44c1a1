package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"tokenarbiter/internal/live"
	"tokenarbiter/internal/session"
)

func TestParseFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the expected error; "" = success
		check   func(*testing.T, *nodeConfig)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, cfg *nodeConfig) {
				if cfg.keys != 1 || cfg.n != 3 || cfg.id != 0 {
					t.Errorf("defaults = keys %d n %d id %d", cfg.keys, cfg.n, cfg.id)
				}
			},
		},
		{
			name: "multi key",
			args: []string{"-keys", "8", "-peers", "a:1,b:2", "-id", "1"},
			check: func(t *testing.T, cfg *nodeConfig) {
				if cfg.keys != 8 || cfg.n != 2 || cfg.id != 1 {
					t.Errorf("cfg = keys %d n %d id %d", cfg.keys, cfg.n, cfg.id)
				}
				if cfg.addrs[0] != "a:1" || cfg.addrs[1] != "b:2" {
					t.Errorf("addrs = %v", cfg.addrs)
				}
			},
		},
		// Core is the only live algorithm: there is no -algo to choose
		// another with.
		{name: "unknown algorithm", args: []string{"-algo", "raymond"}, wantErr: "flag provided but not defined"},
		{name: "id beyond peers", args: []string{"-id", "5"}, wantErr: "outside peer list"},
		{name: "negative id", args: []string{"-id", "-1"}, wantErr: "outside peer list"},
		{name: "zero keys", args: []string{"-keys", "0"}, wantErr: "at least one lock key"},
		{name: "negative keys", args: []string{"-keys", "-3"}, wantErr: "at least one lock key"},
		{name: "unknown flag", args: []string{"-bogus"}, wantErr: "flag provided but not defined"},
		{name: "codec flag is gone", args: []string{"-codec", "gob"}, wantErr: "flag provided but not defined"},
		{
			name: "session service",
			args: []string{"-session", ":7100"},
			check: func(t *testing.T, cfg *nodeConfig) {
				if cfg.session != ":7100" {
					t.Errorf("session = %q, want :7100", cfg.session)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseFlags(tc.args)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("parseFlags(%v) accepted, want error containing %q", tc.args, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseFlags(%v): %v", tc.args, err)
			}
			if tc.check != nil {
				tc.check(t, cfg)
			}
		})
	}
}

func TestRunRejectsBadChaosSpec(t *testing.T) {
	err := run(context.Background(), []string{"-id", "0", "-peers", "127.0.0.1:0", "-chaos", "bogus=1"})
	if err == nil || !strings.Contains(err.Error(), "-chaos") {
		t.Fatalf("bad chaos spec: err = %v, want -chaos parse error", err)
	}
}

// freeAddr reserves a loopback port by binding and releasing it, for the
// flags (-http, -session, -peers) that take an address run() never
// reports back.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck // released for run() to bind
	return ln.Addr().String()
}

// startNode runs run() in the background, the way main does, and returns
// the function that cancels it and waits for it to tear down (also
// registered as a cleanup). A node cancelled mid-acquisition reports the
// cancellation; anything else run() returns fails the test.
func startNode(t *testing.T, args ...string) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, args) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("run %v: %v", args, err)
			}
		})
	}
	t.Cleanup(stop)
	return stop
}

// captureStdout returns what fn printed. fn must have stopped every
// goroutine that prints before it returns.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	defer func() { os.Stdout = old }()
	fn()
	_ = w.Close()
	return <-out
}

// adminGet fetches one admin path, retrying while the node's admin
// listener (started asynchronously by run()) is still coming up.
func adminGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + path)
		if err == nil {
			defer resp.Body.Close() //nolint:errcheck // test read
			body, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: %v", path, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitStatus polls the node's aggregate /statusz until ok accepts it.
func waitStatus(t *testing.T, addr, what string, ok func(live.ManagerStatus) bool) live.ManagerStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := adminGet(t, addr, "/statusz")
		var st live.ManagerStatus
		if code != http.StatusOK {
			t.Fatalf("/statusz = %d", code)
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("/statusz JSON: %v", err)
		}
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("/statusz never showed %s; last document:\n%s", what, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// grantLine matches the one line workload prints per critical section.
var grantLine = regexp.MustCompile(`acquired CS #\d+ key=(\S+) fence=\d+ at `)

// checkGrantLines asserts out holds want grant lines, every one of them
// carrying key=<key> and a fence.
func checkGrantLines(t *testing.T, out, key string, want int) {
	t.Helper()
	got := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "acquired CS") {
			continue
		}
		if m := grantLine.FindStringSubmatch(line); m == nil || m[1] != key {
			t.Errorf("grant line without key=%s fence=N: %q", key, line)
		}
		got++
	}
	if got != want {
		t.Errorf("%d grant lines, want %d:\n%s", got, want, out)
	}
}

// TestAdminHandlerMultiKey drives the admin surface run() serves for
// -keys 2 with -chaos set: the Manager's mux with /debug/faults mounted
// on it, over the registry the node shares with its counting layer.
func TestAdminHandlerMultiKey(t *testing.T) {
	admin := freeAddr(t)
	out := captureStdout(t, func() {
		stop := startNode(t,
			"-id", "0", "-peers", "127.0.0.1:0", "-http", admin,
			"-keys", "2", "-count", "2", "-chaos", "seed=1",
			"-hold", "1ms", "-think", "1ms", "-linger", "1m",
			"-treq", "0.002", "-tfwd", "0.002",
		)
		get := func(path string) (int, string) { return adminGet(t, admin, path) }

		st := waitStatus(t, admin, "one grant on each key", func(st live.ManagerStatus) bool {
			return st.Released == 2
		})
		if st.KeyCount != 2 || st.Granted != 2 {
			t.Errorf("/statusz key_count=%d granted=%d, want 2/2", st.KeyCount, st.Granted)
		}
		if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
			t.Errorf("/healthz = %d %q", code, body)
		}
		code, body := get("/metrics")
		if code != http.StatusOK ||
			!strings.Contains(body, `cs_granted_total{key="lock-0"} 1`) ||
			!strings.Contains(body, `cs_granted_total{key="lock-1"} 1`) {
			t.Errorf("/metrics = %d, missing per-key grant counters:\n%s", code, body)
		}
		// The node's registry holds the merged stream's transport_* families
		// and every key's registry holds its own: the exposition format
		// allows each family one # TYPE line, however many registries
		// contribute samples to it.
		types := map[string]int{}
		for _, line := range strings.Split(body, "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
				types[f[2]]++
			}
		}
		if types["transport_sent_total"] == 0 || types["manager_keys_active"] == 0 {
			t.Errorf("/metrics misses the node-level families:\n%s", body)
		}
		for family, n := range types {
			if n != 1 {
				t.Errorf("/metrics has %d # TYPE lines for %s, want 1", n, family)
			}
		}
		if code, _ := get("/statusz?key=" + keyName(0)); code != http.StatusOK {
			t.Errorf("/statusz?key=%s = %d", keyName(0), code)
		}
		if code, _ := get("/statusz?key=nope"); code != http.StatusNotFound {
			t.Errorf("/statusz?key=nope = %d, want 404", code)
		}
		if code, _ := get("/debug/faults"); code != http.StatusOK {
			t.Errorf("/debug/faults = %d", code)
		}
		if code, _ := get("/sessionz"); code != http.StatusNotFound {
			t.Errorf("/sessionz without -session = %d, want 404", code)
		}
		stop()
	})
	if !strings.Contains(out, "/debug/requests /debug/faults)") {
		t.Errorf("endpoint banner does not end in /debug/faults:\n%s", out)
	}
}

// TestAdminHandlerSingleKey is the run()-path smoke for the default
// -keys 1 without -session: the same Manager shape serving lock-0, so
// every grant line carries the key and its fence, the per-key admin
// routes answer for lock-0, and nothing optional is mounted.
func TestAdminHandlerSingleKey(t *testing.T) {
	admin := freeAddr(t)
	out := captureStdout(t, func() {
		stop := startNode(t,
			"-id", "0", "-peers", "127.0.0.1:0", "-http", admin,
			"-count", "3", "-hold", "1ms", "-think", "1ms", "-linger", "1m",
			"-treq", "0.002", "-tfwd", "0.002",
		)
		st := waitStatus(t, admin, "three grants", func(st live.ManagerStatus) bool {
			return st.Released == 3
		})
		if len(st.Keys) != 1 || st.Keys[0].Key != keyName(0) {
			t.Errorf("/statusz keys = %+v, want exactly %s", st.Keys, keyName(0))
		}
		code, body := adminGet(t, admin, "/statusz?key="+keyName(0))
		if code != http.StatusOK || !strings.Contains(body, `"role": "arbiter"`) {
			t.Errorf("/statusz?key=%s = %d, want the idle single node as arbiter:\n%s", keyName(0), code, body)
		}
		if code, body := adminGet(t, admin, "/debug/trace?key="+keyName(0)); code != http.StatusOK || !strings.Contains(body, `"ev":"dispatched"`) {
			t.Errorf("/debug/trace?key=%s = %d %q", keyName(0), code, body)
		}
		for _, path := range []string{"/debug/faults", "/sessionz"} {
			if code, _ := adminGet(t, admin, path); code != http.StatusNotFound {
				t.Errorf("%s without -chaos/-session = %d, want 404", path, code)
			}
		}
		stop()
	})
	checkGrantLines(t, out, keyName(0), 3)
	if !strings.Contains(out, "/debug/requests)") {
		t.Errorf("endpoint banner lists routes that were not mounted:\n%s", out)
	}
}

// TestAdminHandlerWithSessions drives the -session composition through
// run(): one real client leases, acquires and releases over the session
// port, and the result is read back through /sessionz and /metrics on
// the node's one admin mux.
func TestAdminHandlerWithSessions(t *testing.T) {
	admin, sessAddr := freeAddr(t), freeAddr(t)
	out := captureStdout(t, func() {
		stop := startNode(t,
			"-id", "0", "-peers", "127.0.0.1:0", "-http", admin, "-session", sessAddr,
			"-count", "0", "-treq", "0.002", "-tfwd", "0.002",
		)
		adminGet(t, admin, "/healthz") // the session listener is up before the admin one

		cl, err := session.Dial(sessAddr, session.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close() //nolint:errcheck // test shutdown
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sess, err := cl.Open(ctx, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		fence, err := sess.Acquire(ctx, keyName(0))
		if err != nil {
			t.Fatalf("acquire through session service: %v", err)
		}
		if fence == 0 {
			t.Error("grant carried fence 0")
		}

		_, body := adminGet(t, admin, "/sessionz")
		var doc session.StatusDoc
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/sessionz JSON: %v\n%s", err, body)
		}
		if doc.Sessions != 1 || len(doc.Keys) != 1 || doc.Keys[0].Holder != sess.ID() {
			t.Errorf("/sessionz = %+v, want 1 session holding %s", doc, keyName(0))
		}
		_, body = adminGet(t, admin, "/sessionz?sessions=1")
		var infos []session.SessionInfo
		if err := json.Unmarshal([]byte(body), &infos); err != nil || len(infos) != 1 || infos[0].ID != sess.ID() {
			t.Errorf("/sessionz?sessions=1 = %v (%v), want the one session:\n%s", infos, err, body)
		}
		if err := sess.Release(keyName(0)); err != nil {
			t.Fatal(err)
		}
		if _, body := adminGet(t, admin, "/metrics"); !strings.Contains(body, "session_grants_total 1") {
			t.Errorf("/metrics missing the session grant counter:\n%s", body)
		}
		stop()
	})
	if !strings.Contains(out, "/debug/requests /sessionz)") {
		t.Errorf("endpoint banner does not end in /sessionz:\n%s", out)
	}
}

// TestRunMixedSessionFlags pins that -session changes nothing between
// peers: three -keys 1 nodes, only node 0 serving sessions, are one lock.
// When -session forced a different shape, node 0 ran lock-0 as a private
// lock (no peer traffic, no exclusion) while the peers' key-less frames
// created a second, idle key "" beside it.
func TestRunMixedSessionFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real cluster")
	}
	peers := strings.Join([]string{freeAddr(t), freeAddr(t), freeAddr(t)}, ",")
	admin := freeAddr(t)
	var stops []func()
	node := func(id string, extra ...string) {
		stops = append(stops, startNode(t, append([]string{
			"-id", id, "-peers", peers,
			"-count", "30", "-hold", "1ms", "-think", "5ms", "-linger", "1m",
			"-treq", "0.002", "-tfwd", "0.002",
		}, extra...)...))
	}
	captureStdout(t, func() {
		// The nodes print to the captured stdout until they stop, so they
		// stop before it is restored.
		defer func() {
			for _, stop := range stops {
				stop()
			}
		}()
		node("0", "-http", admin, "-session", freeAddr(t))
		adminGet(t, admin, "/healthz") // node 0 listens before its peers send
		node("1")
		node("2")
		st := waitStatus(t, admin, "peer traffic on lock-0", func(st live.ManagerStatus) bool {
			for _, ks := range st.Keys {
				if ks.Key == keyName(0) && ks.MsgsRecv > 0 {
					return true
				}
			}
			return false
		})
		if len(st.Keys) != 1 {
			t.Errorf("node 0 serves keys %+v, want exactly [%s]", st.Keys, keyName(0))
		}
	})
}

// TestRunSessionService is the run()-path smoke for -session: the node
// must come up with the session listener, run its workload — the same
// one, grant lines and all, that it runs without -session — and tear
// down.
func TestRunSessionService(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real node")
	}
	out := captureStdout(t, func() {
		err := run(context.Background(), []string{
			"-id", "0", "-peers", "127.0.0.1:0",
			"-session", "127.0.0.1:0",
			"-count", "2", "-hold", "1ms", "-think", "1ms", "-linger", "0s",
			"-treq", "0.002", "-tfwd", "0.002",
		})
		if err != nil {
			t.Fatalf("session service run: %v", err)
		}
	})
	checkGrantLines(t, out, keyName(0), 2)
}

// TestRunMultiKeyTCP is the end-to-end smoke: a single-node multi-key
// cluster over a real loopback TCP transport runs the round-robin
// workload to completion.
func TestRunMultiKeyTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real node")
	}
	err := run(context.Background(), []string{
		"-id", "0", "-peers", "127.0.0.1:0",
		"-keys", "3", "-count", "6",
		"-hold", "1ms", "-think", "1ms", "-linger", "0s",
		"-treq", "0.002", "-tfwd", "0.002",
	})
	if err != nil {
		t.Fatalf("multi-key run: %v", err)
	}
}

// Guard against the demo key names drifting between peers: they are the
// implicit wire contract of -keys.
func TestKeyNameStable(t *testing.T) {
	if keyName(0) != "lock-0" || keyName(7) != "lock-7" {
		t.Errorf("keyName drifted: %q %q", keyName(0), keyName(7))
	}
}
