package live_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/transport"
)

func hammer(t *testing.T, ctx context.Context, mgrs []*live.Manager, workers, rounds int) int64 {
	t.Helper()
	var (
		inCS  atomic.Int64
		total atomic.Int64
		wg    sync.WaitGroup
	)
	for _, m := range mgrs {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(m *live.Manager) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if err := m.Lock(ctx, lockKey); err != nil {
						t.Errorf("node %d: %v", m.ID(), err)
						return
					}
					if got := inCS.Add(1); got != 1 {
						t.Errorf("%d concurrent CS holders", got)
					}
					total.Add(1)
					inCS.Add(-1)
					m.Unlock(lockKey)
				}
			}(m)
		}
	}
	wg.Wait()
	return total.Load()
}

func TestLiveMonitorVariant(t *testing.T) {
	opts := cluster.Fast()
	opts.Monitor = true
	opts.MonitorFlushTimeout = 1
	opts.Tau = 2
	mgrs := cluster.Start(t, cluster.Config{N: 5, Core: opts, Mem: transport.MemOptions{Delay: 100 * time.Microsecond}}).Managers

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if got := hammer(t, ctx, mgrs, 2, 6); got != 5*2*6 {
		t.Errorf("completed %d acquisitions, want %d", got, 5*2*6)
	}
}

func TestLiveRotatingMonitor(t *testing.T) {
	opts := cluster.Fast()
	opts.Monitor = true
	opts.RotatingMonitor = true
	opts.MonitorFlushTimeout = 1
	mgrs := cluster.Start(t, cluster.Config{N: 4, Core: opts}).Managers

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if got := hammer(t, ctx, mgrs, 2, 5); got != 4*2*5 {
		t.Errorf("completed %d acquisitions, want %d", got, 4*2*5)
	}
}

func TestLiveSequenceNumbers(t *testing.T) {
	opts := cluster.Fast()
	opts.SeqNumbers = true
	opts.RetransmitTimeout = 0.05 // aggressive: force duplicate requests
	mgrs := cluster.Start(t, cluster.Config{N: 4, Core: opts, Mem: transport.MemOptions{Delay: 200 * time.Microsecond}}).Managers

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if got := hammer(t, ctx, mgrs, 2, 6); got != 4*2*6 {
		t.Errorf("completed %d acquisitions, want %d", got, 4*2*6)
	}
}

func TestLiveLossyNetworkWithRecovery(t *testing.T) {
	opts := cluster.Fast()
	opts.RetransmitTimeout = 0.1
	opts.Recovery = core.RecoveryOptions{
		Enabled:        true,
		TokenTimeout:   0.2,
		RoundTimeout:   0.05,
		ArbiterTimeout: 0.5,
		ProbeTimeout:   0.05,
	}
	// 1% of every message type, including tokens.
	inj := faultnet.New(faultnet.Options{Seed: 7, Faults: faultnet.Faults{Drop: 0.01}})
	mgrs := cluster.Start(t, cluster.Config{N: 4, Core: opts, Faults: inj}).Managers

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if got := hammer(t, ctx, mgrs, 2, 8); got != 4*2*8 {
		t.Errorf("completed %d acquisitions, want %d", got, 4*2*8)
	}
}

func TestLiveEightNodeStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	mgrs := cluster.Start(t, cluster.Config{N: 8, Core: cluster.Fast(), Mem: transport.MemOptions{
		Delay:  100 * time.Microsecond,
		Jitter: 200 * time.Microsecond,
		Seed:   3,
	}}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	want := int64(8 * 4 * 10)
	if got := hammer(t, ctx, mgrs, 4, 10); got != want {
		t.Errorf("completed %d acquisitions, want %d", got, want)
	}
	// Fairness smoke check: every node got a share.
	for _, m := range mgrs {
		granted, released := m.Stats()
		if granted != released {
			t.Errorf("node %d: %d granted vs %d released", m.ID(), granted, released)
		}
		if granted < 40 {
			t.Errorf("node %d starved: only %d grants", m.ID(), granted)
		}
	}
}

func TestLiveCloseUnblocksWaiters(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 3, Core: cluster.Fast()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Node 0 holds; node 1 waits; closing node 1 must unblock its Lock.
	if err := mgrs[0].Lock(ctx, lockKey); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- mgrs[1].Lock(ctx, lockKey) }()
	// Close must catch the Lock mid-wait: poll until node 1's request is
	// actually outstanding instead of guessing with a fixed sleep.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if nd := mgrs[1].Node(lockKey); nd != nil {
			if ins, err := nd.Inspect(ctx); err == nil && ins.Outstanding > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("node 1's request never became outstanding")
		}
		time.Sleep(time.Millisecond)
	}
	_ = mgrs[1].Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Lock succeeded on a closed node")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Lock on closed node never returned")
	}
	mgrs[0].Unlock(lockKey)

	// Lock after close fails fast.
	if err := mgrs[1].Lock(ctx, lockKey); err == nil {
		t.Fatal("Lock on closed node returned nil")
	}
}

func TestLiveUnlockPanicsWhenNotHolding(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 1, Core: cluster.Fast()}).Managers
	if err := mgrs[0].Lock(context.Background(), lockKey); err != nil {
		t.Fatal(err)
	}
	mgrs[0].Unlock(lockKey)
	defer func() {
		if recover() == nil {
			t.Error("a second Unlock did not panic")
		}
	}()
	mgrs[0].Unlock(lockKey)
}

func TestLiveInspect(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 3, Core: cluster.Fast()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Node 0 mints the key's token; an uncontended CS leaves it there,
	// together with the arbiter role.
	if err := mgrs[0].Lock(ctx, lockKey); err != nil {
		t.Fatal(err)
	}
	mgrs[0].Unlock(lockKey)
	ins, err := mgrs[0].Node(lockKey).Inspect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ins.HasToken || !ins.IsArbiter {
		t.Errorf("node 0 after an uncontended CS: %+v, want the initial arbiter with the token", ins)
	}
	if ins.ID != 0 {
		t.Errorf("ID = %d, want 0", ins.ID)
	}
}
