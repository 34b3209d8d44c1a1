package live_test

import (
	"context"
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/race"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/transport"
)

// lockCycleBudget is what one Lock/Unlock cycle on a lone Manager may
// allocate: the protocol's own two per-batch Q-list copies (the deduped
// batch, and §6 recovery's snapshot of it). The live layer — waiters,
// the Unlock step, timers — reuses what it allocated before.
const lockCycleBudget = 2

// TestManagerLockUnlockAllocs pins the live lock path's allocation
// budget on a 1-node Manager running the paper's protocol with §6
// recovery on.
func TestManagerLockUnlockAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	net := transport.NewMemNetwork(1, transport.MemOptions{})
	defer net.Close()
	m, err := live.NewManager(live.ManagerConfig{
		ID: 0, N: 1, Transport: net.Endpoint(0), Seed: 1,
		Factory: registry.CoreLiveFactory(core.Options{
			Treq:              0.0003,
			Tfwd:              0.0003,
			RetransmitTimeout: 0.5,
			Recovery: core.RecoveryOptions{
				Enabled:        true,
				TokenTimeout:   1,
				RoundTimeout:   0.5,
				ArbiterTimeout: 2,
				ProbeTimeout:   0.5,
			},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	const key = "alloc-budget"
	cycle := func() {
		if err := m.Lock(ctx, key); err != nil {
			t.Fatal(err)
		}
		m.Unlock(key)
	}
	for i := 0; i < 100; i++ { // grow the slab, the pools and the queues first
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs > lockCycleBudget {
		t.Errorf("Lock/Unlock cycle: %.1f allocations, want ≤ %d", allocs, lockCycleBudget)
	}
}
