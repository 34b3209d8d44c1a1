package live_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/transport"
)

// TestLiveArbiterCrashTakeover kills the node acting as arbiter while it
// waits for the token (not the token holder!) and checks the previous
// arbiter's watchdog (§6, failed arbiter) gets the cluster going again:
// PROBE goes unanswered, takeover is proclaimed, the invalidation round
// finds the live token or regenerates it, and survivors keep locking.
func TestLiveArbiterCrashTakeover(t *testing.T) {
	opts := cluster.Fast()
	opts.Recovery = core.RecoveryOptions{
		Enabled:        true,
		TokenTimeout:   0.2,
		RoundTimeout:   0.05,
		ArbiterTimeout: 0.3,
		ProbeTimeout:   0.05,
	}
	cl := cluster.Start(t, cluster.Config{N: 5, Core: opts, Mem: transport.MemOptions{Delay: 200 * time.Microsecond}})
	mgrs := cl.Managers

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Background load keeps the arbiter role circulating.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, m := range mgrs {
		wg.Add(1)
		go func(m *live.Manager) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := m.Lock(ctx, lockKey); err != nil {
					return
				}
				time.Sleep(time.Millisecond)
				m.Unlock(lockKey)
				time.Sleep(2 * time.Millisecond)
			}
		}(m)
	}

	// Find a node that is the designated arbiter without the token and
	// kill it. The state is transient and short-lived, so sample Inspect
	// in a tight loop under a deadline — no warm-up sleep: the deadline
	// also covers the cluster still getting its first batches going.
	victim := -1
	deadline := time.Now().Add(10 * time.Second)
	for victim < 0 && time.Now().Before(deadline) {
		for i, m := range mgrs {
			nd := m.Node(lockKey)
			if nd == nil {
				continue // the key's first frame has not reached node i yet
			}
			ins, err := nd.Inspect(ctx)
			if err != nil {
				continue
			}
			if ins.IsArbiter && !ins.HasToken {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		t.Skip("never caught a tokenless designated arbiter; load too light")
	}
	cl.Network.Disconnect(victim)
	_ = mgrs[victim].Close()
	t.Logf("killed designated arbiter node %d", victim)

	// Survivors must keep making progress through the takeover.
	okCount := 0
	for i, m := range mgrs {
		if i == victim {
			continue
		}
		func() {
			lctx, lcancel := context.WithTimeout(ctx, 20*time.Second)
			defer lcancel()
			if err := m.Lock(lctx, lockKey); err != nil {
				t.Errorf("survivor %d after arbiter crash: %v", i, err)
				return
			}
			m.Unlock(lockKey)
			okCount++
		}()
	}
	close(stop)
	wg.Wait()
	if okCount == 0 {
		ictx, icancel := context.WithTimeout(context.Background(), time.Second)
		defer icancel()
		for i, m := range mgrs {
			if i == victim {
				continue
			}
			ins, err := m.Node(lockKey).Inspect(ictx)
			t.Logf("post-failure node %d: %+v err=%v", i, ins, err)
		}
		t.Fatal("no survivor acquired the mutex after the arbiter crash")
	}
}
