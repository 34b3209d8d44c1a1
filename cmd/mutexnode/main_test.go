package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/transport"
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
				if cfg.algo != registry.Core || cfg.keys != 1 || cfg.n != 3 || cfg.id != 0 {
					t.Errorf("defaults = algo %q keys %d n %d id %d", cfg.algo, cfg.keys, cfg.n, cfg.id)
				}
			},
		},
		{
			name: "multi key baseline",
			args: []string{"-keys", "8", "-algo", "raymond", "-peers", "a:1,b:2", "-id", "1"},
			check: func(t *testing.T, cfg *nodeConfig) {
				if cfg.keys != 8 || cfg.algo != "raymond" || cfg.n != 2 || cfg.id != 1 {
					t.Errorf("cfg = algo %q keys %d n %d id %d", cfg.algo, cfg.keys, cfg.n, cfg.id)
				}
				if cfg.addrs[0] != "a:1" || cfg.addrs[1] != "b:2" {
					t.Errorf("addrs = %v", cfg.addrs)
				}
			},
		},
		{
			name: "algo list short-circuits validation",
			args: []string{"-algo", "list", "-id", "99", "-keys", "0"},
			check: func(t *testing.T, cfg *nodeConfig) {
				if !cfg.listAlgos {
					t.Error("listAlgos not set")
				}
			},
		},
		{name: "unknown algorithm", args: []string{"-algo", "paxos-deluxe"}, wantErr: "unknown algorithm"},
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
	err := run([]string{"-id", "0", "-peers", "127.0.0.1:0", "-chaos", "bogus=1"})
	if err == nil || !strings.Contains(err.Error(), "-chaos") {
		t.Fatalf("bad chaos spec: err = %v, want -chaos parse error", err)
	}
}

// TestAdminHandlerMultiKey drives the composed admin surface — the
// Manager's multi-key handler plus the /debug/faults injector endpoint —
// exactly as run() assembles it for -keys > 1 with -chaos set.
func TestAdminHandlerMultiKey(t *testing.T) {
	net := transport.NewMemNetwork(1, transport.MemOptions{})
	defer net.Close()
	mgr, err := live.NewManager(live.ManagerConfig{
		ID: 0, N: 1, Transport: net.Endpoint(0),
		Factory: registry.CoreLiveFactory(core.Options{Treq: 0.001, Tfwd: 0.001, RetransmitTimeout: 0.5}),
		Algo:    "core",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close() //nolint:errcheck // test shutdown

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, key := range []string{keyName(0), keyName(1)} {
		if err := mgr.Lock(ctx, key); err != nil {
			t.Fatalf("lock %s: %v", key, err)
		}
		mgr.Unlock(key)
	}

	inj := faultnet.New(faultnet.Options{Seed: 1, Algo: "core"})
	handler, endpoints := adminHandler(mgr.AdminHandler(), inj, nil)
	if !strings.Contains(endpoints, "/debug/faults") {
		t.Errorf("endpoint banner %q misses /debug/faults", endpoints)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close() //nolint:errcheck // test read
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, `cs_granted_total{key="lock-0"} 1`) ||
		!strings.Contains(body, `cs_granted_total{key="lock-1"} 1`) {
		t.Errorf("/metrics = %d, missing per-key grant counters:\n%s", code, body)
	}
	code, body := get("/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz = %d", code)
	}
	var st live.ManagerStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/statusz JSON: %v", err)
	}
	if st.KeyCount != 2 || st.Granted != 2 {
		t.Errorf("/statusz key_count=%d granted=%d, want 2/2", st.KeyCount, st.Granted)
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
}

// TestAdminHandlerSingleKey checks the -keys 1 composition: the plain
// node handler passes through untouched when no injector is configured.
func TestAdminHandlerSingleKey(t *testing.T) {
	net := transport.NewMemNetwork(1, transport.MemOptions{})
	defer net.Close()
	node, err := live.NewNode(live.Config{
		ID: 0, N: 1, Transport: net.Endpoint(0),
		Factory: registry.CoreLiveFactory(core.Options{Treq: 0.001, Tfwd: 0.001, RetransmitTimeout: 0.5}),
		Algo:    "core",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close() //nolint:errcheck // test shutdown

	handler, endpoints := adminHandler(node.AdminHandler(), nil, nil)
	if strings.Contains(endpoints, "/debug/faults") {
		t.Errorf("endpoint banner %q lists /debug/faults without an injector", endpoints)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test read
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz = %d", resp.StatusCode)
	}
}

// TestAdminHandlerWithSessions assembles the -session composition the
// way run() does — Manager backend, session server on a loopback
// listener, session surface mounted under /session/ — and drives one
// real client through lease, acquire, and release, then reads the
// result back through the mounted admin endpoints.
func TestAdminHandlerWithSessions(t *testing.T) {
	memNet := transport.NewMemNetwork(1, transport.MemOptions{})
	defer memNet.Close()
	mgr, err := live.NewManager(live.ManagerConfig{
		ID: 0, N: 1, Transport: memNet.Endpoint(0),
		Factory: registry.CoreLiveFactory(core.Options{Treq: 0.001, Tfwd: 0.001, RetransmitTimeout: 0.5}),
		Algo:    "core",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close() //nolint:errcheck // test shutdown

	ssrv, err := session.NewServer(session.Config{Backend: mgr})
	if err != nil {
		t.Fatal(err)
	}
	defer ssrv.Close() //nolint:errcheck // test shutdown
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ssrv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown

	handler, endpoints := adminHandler(mgr.AdminHandler(), nil, ssrv)
	if !strings.Contains(endpoints, "/session/sessionz") {
		t.Errorf("endpoint banner %q misses /session/sessionz", endpoints)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	cl, err := session.Dial(ln.Addr().String(), session.Options{})
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

	resp, err := http.Get(srv.URL + "/session/sessionz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test read
	body, _ := io.ReadAll(resp.Body)
	var doc session.StatusDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/session/sessionz JSON: %v", err)
	}
	if doc.Sessions != 1 || len(doc.Keys) != 1 || doc.Keys[0].Holder != sess.ID() {
		t.Errorf("/session/sessionz = %+v, want 1 session holding %s", doc, keyName(0))
	}
	if err := sess.Release(keyName(0)); err != nil {
		t.Fatal(err)
	}

	mresp, err := http.Get(srv.URL + "/session/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close() //nolint:errcheck // test read
	mbody, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mbody), "session_grants_total 1") {
		t.Errorf("/session/metrics missing grant counter:\n%s", mbody)
	}
}

// TestRunSessionService is the run()-path smoke for -session: the node
// must come up with the session listener, run its workload through the
// Manager shape (forced by -session even at -keys 1), and tear down.
func TestRunSessionService(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real node")
	}
	err := run([]string{
		"-id", "0", "-peers", "127.0.0.1:0",
		"-session", "127.0.0.1:0",
		"-count", "2", "-hold", "1ms", "-think", "1ms", "-linger", "0s",
		"-treq", "0.002", "-tfwd", "0.002",
	})
	if err != nil {
		t.Fatalf("session service run: %v", err)
	}
}

// TestRunMultiKeyTCP is the end-to-end smoke: a single-node multi-key
// cluster over a real loopback TCP transport runs the round-robin
// workload to completion.
func TestRunMultiKeyTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real node")
	}
	err := run([]string{
		"-id", "0", "-peers", "127.0.0.1:0",
		"-keys", "3", "-count", "6",
		"-hold", "1ms", "-think", "1ms", "-linger", "0s",
		"-treq", "0.002", "-tfwd", "0.002",
	})
	if err != nil {
		t.Fatalf("multi-key run: %v", err)
	}
}

func TestRunAlgoList(t *testing.T) {
	if err := run([]string{"-algo", "list"}); err != nil {
		t.Fatalf("-algo list: %v", err)
	}
}

// Guard against the demo key names drifting between peers: they are the
// implicit wire contract of -keys.
func TestKeyNameStable(t *testing.T) {
	if keyName(0) != "lock-0" || keyName(7) != "lock-7" {
		t.Errorf("keyName drifted: %q %q", keyName(0), keyName(7))
	}
}
