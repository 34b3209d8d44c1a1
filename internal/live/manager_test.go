package live_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

func TestManagerSingleKeyLockUnlock(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 3, Core: cluster.Fast()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for turn := 0; turn < 6; turn++ {
		m := mgrs[turn%3]
		if err := m.Lock(ctx, "orders"); err != nil {
			t.Fatalf("turn %d: %v", turn, err)
		}
		m.Unlock("orders")
	}
	granted, released := mgrs[0].Stats()
	if granted != 2 || released != 2 {
		t.Errorf("manager 0 stats = (%d, %d), want (2, 2)", granted, released)
	}
}

// TestManagerKeysAreIndependent pins the point of the whole subsystem:
// holding one key never blocks another key's critical section.
func TestManagerKeysAreIndependent(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 3, Core: cluster.Fast()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Node 1 takes and sits on key A...
	if err := mgrs[1].Lock(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	defer mgrs[1].Unlock("a")

	// ...while nodes 0 and 2 cycle key B freely.
	for turn := 0; turn < 4; turn++ {
		m := mgrs[2*(turn%2)]
		if err := m.Lock(ctx, "b"); err != nil {
			t.Fatalf("key b, turn %d, while a is held: %v", turn, err)
		}
		m.Unlock("b")
	}
}

// TestManagerMutualExclusionPerKey hammers a handful of keys from every
// node and checks each key's critical sections never overlap while
// distinct keys interleave freely.
func TestManagerMutualExclusionPerKey(t *testing.T) {
	const (
		nodes   = 3
		keys    = 4
		rounds  = 5
		holdFor = 200 * time.Microsecond
	)
	mgrs := cluster.Start(t, cluster.Config{N: nodes, Core: cluster.Fast()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var mu sync.Mutex
	inCS := make(map[string]int) // key → current holders
	var wg sync.WaitGroup
	errs := make(chan error, nodes*keys)
	for n := 0; n < nodes; n++ {
		for k := 0; k < keys; k++ {
			wg.Add(1)
			go func(m *live.Manager, key string) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if err := m.Lock(ctx, key); err != nil {
						errs <- fmt.Errorf("%s: %w", key, err)
						return
					}
					mu.Lock()
					inCS[key]++
					if inCS[key] != 1 {
						mu.Unlock()
						errs <- fmt.Errorf("key %s: %d concurrent holders", key, inCS[key])
						m.Unlock(key)
						return
					}
					mu.Unlock()
					time.Sleep(holdFor)
					mu.Lock()
					inCS[key]--
					mu.Unlock()
					m.Unlock(key)
				}
			}(mgrs[n], fmt.Sprintf("key-%d", k))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestManagerLazyRemoteCreation checks a node that never locked a key
// still joins its DME group when a peer's traffic arrives — node 1 can
// acquire a key whose group only exists because node 0 created it.
func TestManagerLazyRemoteCreation(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 3, Core: cluster.Fast()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Nobody has touched "lazy" on node 1 or 2.
	if err := mgrs[1].Lock(ctx, "lazy"); err != nil {
		t.Fatal(err)
	}
	mgrs[1].Unlock("lazy")

	// Node 0 (the key's initial token holder) was created by node 1's
	// request traffic, not by a local Lock.
	if mgrs[0].Node("lazy") == nil {
		t.Error("node 0 never instantiated the key it arbitrates")
	}
	if got := mgrs[0].Metrics().Snapshot().Counters["manager_remote_key_creates_total"]; got == 0 {
		t.Error("remote creation not counted on node 0")
	}
}

func TestManagerFencesPerKeyMonotonic(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 2, Core: cluster.Fast()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	last := map[string]uint64{}
	for turn := 0; turn < 4; turn++ {
		for _, key := range []string{"a", "b"} {
			m := mgrs[turn%2]
			fence, err := m.LockFence(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if fence <= last[key] {
				t.Errorf("key %s: fence %d after %d", key, fence, last[key])
			}
			last[key] = fence
			m.Unlock(key)
		}
	}
	// Independent keys run independent fence sequences: both saw 4 grants.
	if last["a"] != 4 || last["b"] != 4 {
		t.Errorf("final fences a=%d b=%d, want 4 and 4", last["a"], last["b"])
	}
}

func TestManagerTryLockContext(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 2, Core: cluster.Fast()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := mgrs[0].Lock(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	short, scancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer scancel()
	ok, err := mgrs[1].TryLockContext(short, "k")
	if err != nil {
		t.Fatalf("TryLockContext: %v", err)
	}
	if ok {
		t.Fatal("TryLockContext acquired a held lock")
	}

	// Explicit cancellation is also "not acquired", not an error.
	canceled, cancelNow := context.WithCancel(ctx)
	cancelNow()
	ok, err = mgrs[1].TryLockContext(canceled, "k")
	if err != nil || ok {
		t.Fatalf("TryLockContext with canceled ctx = (%v, %v), want (false, nil)", ok, err)
	}

	mgrs[0].Unlock("k")
	ok, err = mgrs[1].TryLockContext(ctx, "k")
	if err != nil || !ok {
		t.Fatalf("TryLockContext after release = (%v, %v), want (true, nil)", ok, err)
	}
	mgrs[1].Unlock("k")

	// Real failures still surface as errors.
	_ = mgrs[1].Close()
	ok, err = mgrs[1].TryLockContext(ctx, "k")
	if !errors.Is(err, live.ErrClosed) || ok {
		t.Fatalf("TryLockContext on a closed service = (%v, %v), want (false, ErrClosed)", ok, err)
	}
}

func TestManagerUnlockUnknownKeyPanics(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 1, Core: cluster.Fast()}).Managers
	defer func() {
		if recover() == nil {
			t.Error("Unlock of an unknown key did not panic")
		}
	}()
	mgrs[0].Unlock("never-locked")
}

// recvSignal reports on done each time the wrapped endpoint's handler
// has finished with an inbound message.
type recvSignal struct {
	transport.Transport
	done chan struct{}
}

func (r recvSignal) SetHandler(h transport.Handler) {
	r.Transport.SetHandler(func(from dme.NodeID, msg dme.Message) {
		h(from, msg)
		r.done <- struct{}{}
	})
}

// TestManagerEmptyKeyIsNotALock pins that "" names no lock: the API
// refuses it with ErrEmptyKey, and a frame without a key field from a
// peer creates no instance.
func TestManagerEmptyKeyIsNotALock(t *testing.T) {
	net := transport.NewMemNetwork(2, transport.MemOptions{})
	defer net.Close()
	recv := recvSignal{Transport: net.Endpoint(0), done: make(chan struct{}, 1)}
	m, err := live.NewManager(live.ManagerConfig{
		ID: 0, N: 2, Transport: recv,
		Factory: registry.CoreLiveFactory(cluster.Fast()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if err := m.Lock(context.Background(), ""); !errors.Is(err, live.ErrEmptyKey) {
		t.Errorf("Lock(\"\"): %v, want ErrEmptyKey", err)
	}
	if _, err := m.LockFence(context.Background(), ""); !errors.Is(err, live.ErrEmptyKey) {
		t.Errorf("LockFence(\"\"): %v, want ErrEmptyKey", err)
	}
	if _, err := m.RestartKey(""); !errors.Is(err, live.ErrEmptyKey) {
		t.Errorf("RestartKey(\"\"): %v, want ErrEmptyKey", err)
	}

	// A peer that sends on its raw endpoint, not through a Manager,
	// produces a frame with no key.
	if err := net.Endpoint(1).Send(0, core.Request{Entry: core.QEntry{Node: 1, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-recv.done:
	case <-time.After(5 * time.Second):
		t.Fatal("bare frame never delivered")
	}
	if got := m.Metrics().Snapshot().Counters["manager_keys_created_total"]; got != 0 {
		t.Errorf("manager_keys_created_total = %d after a bare frame, want 0", got)
	}
	if keys := m.Keys(); len(keys) != 0 {
		t.Errorf("bare frame created keys %q", keys)
	}
}

func TestManagerMaxKeys(t *testing.T) {
	m := cluster.Start(t, cluster.Config{N: 1, Core: cluster.Fast(), Manager: func(_ int, cfg *live.ManagerConfig) {
		cfg.MaxKeys = 2
	}}).Managers[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, key := range []string{"a", "b"} {
		if err := m.Lock(ctx, key); err != nil {
			t.Fatal(err)
		}
		m.Unlock(key)
	}
	if err := m.Lock(ctx, "c"); !errors.Is(err, live.ErrTooManyKeys) {
		t.Fatalf("third key: %v, want ErrTooManyKeys", err)
	}
	// Existing keys keep working at the limit.
	if err := m.Lock(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	m.Unlock("a")
}

func TestManagerKeyStatsAndKeys(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 2, Core: cluster.Fast()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, key := range []string{"beta", "alpha"} {
		if err := mgrs[0].Lock(ctx, key); err != nil {
			t.Fatal(err)
		}
		mgrs[0].Unlock(key)
	}
	keys := mgrs[0].Keys()
	if len(keys) != 2 || keys[0] != "alpha" || keys[1] != "beta" {
		t.Fatalf("Keys() = %v, want sorted [alpha beta]", keys)
	}
	stats := mgrs[0].KeyStats()
	if len(stats) != 2 {
		t.Fatalf("KeyStats len %d", len(stats))
	}
	for _, st := range stats {
		if st.Granted != 1 || st.Released != 1 {
			t.Errorf("key %s: granted/released = %d/%d, want 1/1", st.Key, st.Granted, st.Released)
		}
		if st.Incarnation != 1 {
			t.Errorf("key %s: incarnation %d, want 1", st.Key, st.Incarnation)
		}
	}
	if got := mgrs[0].SumCounter("cs_granted_total"); got != 2 {
		t.Errorf("SumCounter(cs_granted_total) = %d, want 2", got)
	}
}

func TestManagerRestartKeyIncarnation(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 3, Core: cluster.FastRecovery()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	if err := mgrs[2].Lock(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	mgrs[2].Unlock("k")

	old := mgrs[2].Node("k")
	fresh, err := mgrs[2].RestartKey("k")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old || mgrs[2].Node("k") != fresh {
		t.Fatalf("RestartKey returned %p, Node(k) = %p, old incarnation %p", fresh, mgrs[2].Node("k"), old)
	}
	if got := mgrs[2].Metrics().Snapshot().Counters["manager_key_restarts_total"]; got != 1 {
		t.Errorf("manager_key_restarts_total = %d, want 1", got)
	}
	if _, err := old.LockFence(ctx); !errors.Is(err, live.ErrClosed) {
		t.Errorf("old incarnation still accepts locks: %v", err)
	}
	var st live.KeyStat
	for _, s := range mgrs[2].KeyStats() {
		if s.Key == "k" {
			st = s
		}
	}
	if st.Incarnation != 2 {
		t.Errorf("incarnation after restart = %d, want 2", st.Incarnation)
	}
	if st.Granted != 1 {
		t.Errorf("registry lost history across restart: granted = %d, want 1", st.Granted)
	}
	// The restarted instance still participates.
	if err := mgrs[2].Lock(ctx, "k"); err != nil {
		t.Fatalf("lock after restart: %v", err)
	}
	mgrs[2].Unlock("k")
}

// TestManagerCloseRebuild crashes a whole node mid-run and brings it
// back — Close, then a fresh Manager on the reconnected endpoint: the
// survivors keep acquiring the lock across the crash, and the rebuilt
// node rejoins and acquires it too.
func TestManagerCloseRebuild(t *testing.T) {
	cl := cluster.Start(t, cluster.Config{N: 3, Core: cluster.FastRecovery()})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	lockUnlock := func(i int) {
		t.Helper()
		if err := cl.Managers[i].Lock(ctx, "k"); err != nil {
			t.Fatalf("node %d lock: %v", i, err)
		}
		cl.Managers[i].Unlock("k")
	}
	for i := range cl.Managers {
		lockUnlock(i)
	}

	victim := cl.Managers[2]
	if err := victim.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := victim.Lock(ctx, "k"); !errors.Is(err, live.ErrClosed) {
		t.Fatalf("closed node Lock err = %v, want ErrClosed", err)
	}
	if err := victim.Close(); err != nil {
		t.Fatalf("double Close should be a no-op, got %v", err)
	}

	// Survivors make progress while node 2 is down.
	lockUnlock(0)
	lockUnlock(1)

	if err := cl.Restart(2); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	lockUnlock(2)
}

func TestManagerClosedErrors(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 1, Core: cluster.Fast()}).Managers
	m := mgrs[0]
	ctx := context.Background()
	if err := m.Lock(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	m.Unlock("k")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := m.Lock(ctx, "k"); !errors.Is(err, live.ErrClosed) {
		t.Errorf("Lock on closed manager: %v, want ErrClosed", err)
	}
	if _, err := m.RestartKey("k"); !errors.Is(err, live.ErrClosed) {
		t.Errorf("RestartKey on closed manager: %v, want ErrClosed", err)
	}
}

// TestManagerAdminEndpoints smoke-tests the multi-key admin surface over
// real HTTP: aggregate /statusz and /metrics, per-key ?key= views, and
// the error paths for unknown keys.
func TestManagerAdminEndpoints(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 2, Core: cluster.Fast()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, key := range []string{"orders", "users"} {
		if err := mgrs[0].Lock(ctx, key); err != nil {
			t.Fatal(err)
		}
		mgrs[0].Unlock(key)
	}
	srv := httptest.NewServer(mgrs[0].AdminHandler())
	defer srv.Close()

	get := func(path string) (int, string) { return adminGet(t, srv, path) }

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/statusz"); code != http.StatusOK ||
		!strings.Contains(body, `"key_count": 2`) || !strings.Contains(body, `"orders"`) {
		t.Errorf("/statusz = %d, missing aggregate fields:\n%s", code, body)
	}
	if code, body := get("/statusz?key=orders"); code != http.StatusOK ||
		!strings.Contains(body, `"key": "orders"`) || !strings.Contains(body, `"role"`) {
		t.Errorf("/statusz?key=orders = %d:\n%s", code, body)
	}
	if code, _ := get("/statusz?key=nope"); code != http.StatusNotFound {
		t.Errorf("/statusz?key=nope = %d, want 404", code)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, "manager_keys_active 2") {
		t.Errorf("/metrics missing manager gauge:\n%s", body)
	}
	if !strings.Contains(body, `cs_granted_total{key="orders"} 1`) ||
		!strings.Contains(body, `cs_granted_total{key="users"} 1`) {
		t.Errorf("/metrics missing per-key labeled series:\n%s", body)
	}
	// The exposition format allows each # TYPE line once per metric name.
	if n := strings.Count(body, "# TYPE cs_granted_total "); n != 1 {
		t.Errorf("cs_granted_total # TYPE appears %d times, want 1", n)
	}
	if code, _ := get("/debug/trace"); code != http.StatusBadRequest {
		t.Errorf("/debug/trace without key = %d, want 400", code)
	}
	if code, body := get("/debug/trace?key=orders"); code != http.StatusOK || len(body) == 0 {
		t.Errorf("/debug/trace?key=orders = %d, body %d bytes", code, len(body))
	}
	if err := mgrs[0].Close(); err != nil {
		t.Fatal(err)
	}
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz after close = %d, want 503", code)
	}
}

// TestManagerMaxKeysConcurrent: the MaxKeys bound holds against
// concurrent creators, whether the fresh keys come
// from local Locks or from peers' first frames. A frame for a key past
// the bound creates nothing; a frame that creates a key reaches the
// key's engine. Each case runs on several fresh Managers, since an
// overshoot needs two creators to interleave.
func TestManagerMaxKeysConcurrent(t *testing.T) {
	const (
		maxKeys = 2
		fresh   = 32
		peers   = 4
		rounds  = 10
	)
	// race builds a Manager on node 0 of an n-node network, runs create
	// for fresh keys from as many goroutines at once, waits for done to
	// hold, and checks the bound.
	race := func(t *testing.T, n int, create func(m *live.Manager, net *transport.MemNetwork, i int), done func(m *live.Manager) bool) *live.Manager {
		t.Helper()
		net := transport.NewMemNetwork(n, transport.MemOptions{})
		t.Cleanup(net.Close)
		m, err := live.NewManager(live.ManagerConfig{
			ID: 0, N: n, Transport: net.Endpoint(0),
			Factory: registry.CoreLiveFactory(cluster.Fast()),
			MaxKeys: maxKeys,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < fresh; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				create(m, net, i)
			}(i)
		}
		close(start)
		wg.Wait()
		for deadline := time.Now().Add(10 * time.Second); !done(m); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the fresh keys were never all handled")
			}
		}
		snap := m.Metrics().Snapshot()
		if keys := m.Keys(); len(keys) != maxKeys {
			t.Errorf("%d live keys %q, want the bound %d", len(keys), keys, maxKeys)
		}
		if got := snap.Counters["manager_keys_created_total"]; got != maxKeys {
			t.Errorf("manager_keys_created_total = %d, want %d", got, maxKeys)
		}
		if got := snap.Gauges["manager_keys_active"]; got != maxKeys {
			t.Errorf("manager_keys_active = %d, want %d", got, maxKeys)
		}
		if got, keys := snap.Gauges["manager_keys_active"], m.Keys(); got != int64(len(keys)) {
			t.Errorf("manager_keys_active = %d, but %d keys are live", got, len(keys))
		}
		return m
	}

	t.Run("local", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		lock := func(m *live.Manager, _ *transport.MemNetwork, i int) {
			key := fmt.Sprintf("local-%d", i)
			switch err := m.Lock(ctx, key); {
			case err == nil:
				m.Unlock(key)
			case !errors.Is(err, live.ErrTooManyKeys):
				t.Errorf("Lock(%q): %v", key, err)
			}
		}
		for round := 0; round < rounds && !t.Failed(); round++ {
			race(t, 1, lock, func(*live.Manager) bool { return true })
		}
	})

	t.Run("remote", func(t *testing.T) {
		firstFrame := func(_ *live.Manager, net *transport.MemNetwork, i int) {
			p := 1 + i%peers
			frame := wire.Wrap(core.Request{Entry: core.QEntry{Node: p, Seq: 1}}, wire.WithKey(fmt.Sprintf("remote-%d", i)))
			if err := net.Endpoint(p).Send(0, frame); err != nil {
				t.Error(err)
			}
		}
		received := func(m *live.Manager, key string) uint64 {
			return m.Registry(key).Snapshot().Kinds["transport_received_total"][core.KindRequest]
		}
		// Every frame either creates its key, and then reaches the key's
		// engine, or is refused by the bound.
		handled := func(m *live.Manager) bool {
			c := m.Metrics().Snapshot().Counters
			if c["manager_keys_created_total"]+c["manager_key_limit_rejections_total"] < fresh {
				return false
			}
			for _, key := range m.Keys() {
				if received(m, key) == 0 {
					return false
				}
			}
			return true
		}
		for round := 0; round < rounds && !t.Failed(); round++ {
			m := race(t, peers+1, firstFrame, handled)
			for _, key := range m.Keys() {
				if got := received(m, key); got != 1 {
					t.Errorf("key %q: its engine received %d REQUESTs, want the 1 that created it", key, got)
				}
			}
		}
	})
}

// TestManagerLookupDoesNotWaitOnBuild: while one key's engine is being
// built, a key that already exists keeps serving: Lock/Unlock on it
// completes and a peer's frame for it reaches its engine. The two keys
// share a stripe of a 16-stripe FNV-1a table, so the test also fails
// against a table whose builds lock the stripe that lookups take.
func TestManagerLookupDoesNotWaitOnBuild(t *testing.T) {
	const a, b = "key-0", "key-15"
	net := transport.NewMemNetwork(2, transport.MemOptions{})
	defer net.Close()
	base := registry.CoreLiveFactory(cluster.Fast())
	building, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	m, err := live.NewManager(live.ManagerConfig{
		ID: 0, N: 2, Transport: net.Endpoint(0),
		Factory: func(id, n int, obs func(core.Event)) (dme.Node, error) {
			if calls.Add(1) == 2 { // key b's build holds here
				close(building)
				<-release
			}
			return base(id, n, obs)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var once sync.Once
	releaseBuild := func() { once.Do(func() { close(release) }) }
	defer releaseBuild() // before Close, which waits for the build

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Lock(ctx, a); err != nil {
		t.Fatal(err)
	}
	m.Unlock(a)
	created := make(chan error, 1)
	go func() { created <- m.Lock(ctx, b) }()
	<-building

	// within reports whether f succeeded in 2 s; a lookup that waits on
	// b's build cannot until the build is released.
	within := func(what string, f func() bool) bool {
		done := make(chan bool, 1)
		go func() { done <- f() }()
		select {
		case ok := <-done:
			if !ok {
				t.Errorf("%s failed while key %q's build was held", what, b)
			}
			return ok
		case <-time.After(2 * time.Second):
			t.Errorf("%s did not finish within 2s while key %q's build was held", what, b)
			return false
		}
	}
	if within("Lock/Unlock of key "+a, func() bool {
		if m.Lock(ctx, a) != nil {
			return false
		}
		m.Unlock(a)
		return true
	}) {
		frame := wire.Wrap(core.Request{Entry: core.QEntry{Node: 1, Seq: 1}}, wire.WithKey(a))
		if err := net.Endpoint(1).Send(0, frame); err != nil {
			t.Fatal(err)
		}
		within("delivering a peer frame for key "+a, func() bool {
			for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if reg := m.Registry(a); reg != nil && reg.Snapshot().Kinds["transport_received_total"][core.KindRequest] == 1 {
					return true
				}
			}
			return false
		})
	}

	releaseBuild()
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	m.Unlock(b)
}

// TestManagerFirstFramesRestartCloseRace: raw peer endpoints race the
// first frames for one fresh key against each other, then keep sending
// while RestartKey and Close run. The key's engine is created once and
// receives every first frame, nothing panics, and no incarnation records
// anything after its close record. Run it under -race.
func TestManagerFirstFramesRestartCloseRace(t *testing.T) {
	const (
		peers  = 4
		frames = 3 // first frames per peer
		key    = "fresh"
	)
	algo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := reqtrace.NewRecorder(&buf, algo, peers+1)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNetwork(peers+1, transport.MemOptions{FIFO: true})
	defer net.Close()
	m, err := live.NewManager(live.ManagerConfig{
		ID: 0, N: peers + 1, Transport: net.Endpoint(0),
		Factory: registry.CoreLiveFactory(cluster.Fast()), FlightRec: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// send has peer p send frames seq from..to for the key, stopping
	// early once stop is closed.
	send := func(p, from, to int, stop <-chan struct{}) {
		for seq := from; seq <= to; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			frame := wire.Wrap(core.Request{Entry: core.QEntry{Node: p, Seq: uint64(seq)}}, wire.WithKey(key))
			_ = net.Endpoint(p).Send(0, frame)
		}
	}
	var wg sync.WaitGroup
	race := func(from, to int, stop <-chan struct{}) {
		start := make(chan struct{})
		for p := 1; p <= peers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				<-start
				send(p, from, to, stop)
			}(p)
		}
		close(start)
	}

	race(1, frames, nil)
	wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var got uint64
		if reg := m.Registry(key); reg != nil {
			for _, v := range reg.Snapshot().Kinds["transport_received_total"] {
				got += v
			}
		}
		if got == peers*frames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the key's engine received %d of the %d first frames", got, peers*frames)
		}
	}
	c := m.Metrics().Snapshot().Counters
	if c["manager_keys_created_total"] != 1 || c["manager_remote_key_creates_total"] != 1 {
		t.Fatalf("first frames created %d engines (%d remotely), want 1",
			c["manager_keys_created_total"], c["manager_remote_key_creates_total"])
	}

	stop := make(chan struct{})
	race(frames+1, 1000, stop)
	first := m.Node(key)
	second, err := m.RestartKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	for i, nd := range []*live.Node{first, second} {
		events := nd.Trace().Events()
		if len(events) == 0 || events[len(events)-1].Ev != reqtrace.EvClose {
			t.Errorf("incarnation %d's ring does not end with its close record: %v", i+1, events)
		}
	}
	capture, err := reqtrace.ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	closes, last := 0, ""
	for _, r := range capture.Records {
		if r.Node == 0 && r.Key == key {
			last = r.Ev
			if r.Ev == reqtrace.EvClose {
				closes++
			}
		}
	}
	if closes != 2 || last != reqtrace.EvClose {
		t.Errorf("capture: %d close records for the key, last record %q; want 2, the last one a close", closes, last)
	}
}
