package live_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/baseline/raymond"
	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/transport"
)

// lockKey is the one key of the tests that exercise a single lock.
const lockKey = "lock"

func TestLockUnlockSingleNodeCluster(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 1, Core: cluster.Fast()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if err := mgrs[0].Lock(ctx, lockKey); err != nil {
			t.Fatalf("lock %d: %v", i, err)
		}
		mgrs[0].Unlock(lockKey)
	}
	granted, released := mgrs[0].Stats()
	if granted != 10 || released != 10 {
		t.Errorf("stats = (%d, %d), want (10, 10)", granted, released)
	}
}

// TestMutualExclusionCounter is the classic torture test: W workers per
// node increment an unprotected shared counter inside the distributed
// critical section; any mutual exclusion failure loses increments or
// trips the concurrent-holder detector.
// TestManagerRefusesNonCore: the live runtime runs core alone. A factory
// that builds another algorithm's node — here Raymond's, which the
// simulator still runs — is refused when the key's engine is built,
// naming the node's type, rather than run without fences or recovery.
func TestManagerRefusesNonCore(t *testing.T) {
	net := transport.NewMemNetwork(2, transport.MemOptions{})
	defer net.Close()
	factory := func(id, n int, _ func(core.Event)) (dme.Node, error) {
		nodes, err := (&raymond.Algorithm{}).Build(dme.Config{N: n})
		if err != nil {
			return nil, err
		}
		return nodes[id], nil
	}
	m, err := live.NewManager(live.ManagerConfig{ID: 0, N: 2, Transport: net.Endpoint(0), Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Lock(context.Background(), lockKey)
	if err == nil {
		t.Fatal("the Manager ran a raymond node")
	}
	if !strings.Contains(err.Error(), "raymond") {
		t.Errorf("error %q does not name the node's type", err)
	}
	if keys := m.Keys(); len(keys) != 0 {
		t.Errorf("a refused engine was published: keys %q", keys)
	}
}

func TestMutualExclusionCounter(t *testing.T) {
	const (
		n       = 5
		workers = 3
		rounds  = 8
	)
	mgrs := cluster.Start(t, cluster.Config{N: n, Core: cluster.Fast(), Mem: transport.MemOptions{
		Delay: 200 * time.Microsecond,
	}}).Managers

	var (
		counter int64 // deliberately unsynchronized; the DME is the lock
		inCS    atomic.Int64
		wg      sync.WaitGroup
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 0; i < n; i++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(m *live.Manager) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if err := m.Lock(ctx, lockKey); err != nil {
						t.Errorf("lock: %v", err)
						return
					}
					if got := inCS.Add(1); got != 1 {
						t.Errorf("%d nodes in the critical section simultaneously", got)
					}
					counter++
					inCS.Add(-1)
					m.Unlock(lockKey)
				}
			}(mgrs[i])
		}
	}
	wg.Wait()
	if want := int64(n * workers * rounds); counter != want {
		t.Errorf("counter = %d, want %d (lost increments ⇒ mutual exclusion violated)", counter, want)
	}
}

func TestLockContextCancellation(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 3, Core: cluster.Fast()}).Managers
	bg, cancelBG := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelBG()

	// Node 0 grabs and holds the CS.
	if err := mgrs[0].Lock(bg, lockKey); err != nil {
		t.Fatal(err)
	}

	// Node 1's lock attempt gets cancelled while waiting.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := mgrs[1].Lock(ctx, lockKey); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled lock: err = %v, want DeadlineExceeded", err)
	}

	// After node 0 releases, node 2 must still be able to acquire: the
	// abandoned grant is auto-released and the token keeps circulating.
	mgrs[0].Unlock(lockKey)
	if err := mgrs[2].Lock(bg, lockKey); err != nil {
		t.Fatalf("lock after abandoned grant: %v", err)
	}
	mgrs[2].Unlock(lockKey)
}

// TestTokenLossRecovery drops one PRIVILEGE message on the wire and
// checks that the §6 two-phase invalidation protocol regenerates the
// token and the cluster keeps making progress.
func TestTokenLossRecovery(t *testing.T) {
	// Drop the first PRIVILEGE on the wire: the one node 0, which starts
	// with the token, sends to the first requesting peer.
	inj := faultnet.New(faultnet.Options{})
	inj.DropNextKind(core.KindPrivilege, 1)
	mgrs := cluster.Start(t, cluster.Config{N: 4, Core: cluster.FastRecovery(), Faults: inj}).Managers

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var inCS atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(m *live.Manager) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				if err := m.Lock(ctx, lockKey); err != nil {
					t.Errorf("node %d lock: %v", m.ID(), err)
					return
				}
				if got := inCS.Add(1); got != 1 {
					t.Errorf("%d holders in CS after token regeneration", got)
				}
				time.Sleep(time.Millisecond)
				inCS.Add(-1)
				m.Unlock(lockKey)
			}
		}(mgrs[i])
	}
	wg.Wait()

	if inj.Counters().Drops != 1 {
		t.Fatal("injector never dropped a token; scenario did not run")
	}
	// At least one node must have witnessed a token regeneration.
	var maxEpoch uint64
	for _, m := range mgrs {
		ins, err := m.Node(lockKey).Inspect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ins.Epoch > maxEpoch {
			maxEpoch = ins.Epoch
		}
	}
	if maxEpoch == 0 {
		t.Error("token was dropped but never regenerated (epoch still 0)")
	}
}

// TestCrashedNodeRecovery kills a member outright (disconnect + close)
// while the cluster is under load and checks the survivors keep acquiring
// the mutex via the §6 recovery protocol.
func TestCrashedNodeRecovery(t *testing.T) {
	cl := cluster.Start(t, cluster.Config{N: 4, Core: cluster.FastRecovery()})
	mgrs := cl.Managers

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Warm the cluster up so the token is circulating.
	for _, m := range mgrs {
		if err := m.Lock(ctx, lockKey); err != nil {
			t.Fatal(err)
		}
		m.Unlock(lockKey)
	}

	// Node 1 acquires the CS and "crashes" while holding the token.
	if err := mgrs[1].Lock(ctx, lockKey); err != nil {
		t.Fatal(err)
	}
	cl.Network.Disconnect(1)
	_ = mgrs[1].Close()

	// Survivors must still make progress.
	var wg sync.WaitGroup
	for _, i := range []int{0, 2, 3} {
		wg.Add(1)
		go func(m *live.Manager) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				if err := m.Lock(ctx, lockKey); err != nil {
					t.Errorf("survivor %d lock: %v", m.ID(), err)
					return
				}
				m.Unlock(lockKey)
			}
		}(mgrs[i])
	}
	wg.Wait()
}
