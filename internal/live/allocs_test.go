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
// allocate: the protocol's deduped batch, the one Q-list a dispatch
// builds (the token, the NEW-ARBITER broadcast and §6 recovery's
// snapshots share it). The live layer — waiters, the Unlock step,
// timers — reuses what it allocated before.
const lockCycleBudget = 1

// tokenHopBudget is what one Lock/Unlock cycle costs when the grant
// moves the token between two Managers on a MemNetwork. Each of its three
// messages (REQUEST, PRIVILEGE, NEW-ARBITER) is boxed into a
// dme.Message, boxed again into a wire.Keyed and handed to a MemNetwork
// delivery goroutine: nine. The other four are the deduped batch, the
// receiver's copy of the token's Granted table, the new arbiter's §6
// copy of the announced batch and the old arbiter's watchdog closure.
const tokenHopBudget = 13

// budgetOptions is the paper's protocol with §6 recovery on and
// sub-millisecond collection windows.
var budgetOptions = core.Options{
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
}

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
		ID: 0, N: 1, Transport: net.Endpoint(0),
		Factory: registry.CoreLiveFactory(budgetOptions),
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

// TestManagerTokenHopAllocs pins the keyed token hop's allocation
// budget: two Managers on one MemNetwork, §6 recovery on, taking turns
// on one key, so that every grant moves the token to the other node.
func TestManagerTokenHopAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	mgrs := bareManagers(t, 2, budgetOptions)
	ctx := context.Background()
	const key = "hop-budget"
	turn := 0
	cycle := func() {
		m := mgrs[turn%2]
		turn++
		if err := m.Lock(ctx, key); err != nil {
			t.Fatal(err)
		}
		m.Unlock(key)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs > tokenHopBudget {
		t.Errorf("token-hop Lock/Unlock cycle: %.2f allocations, want ≤ %d", allocs, tokenHopBudget)
	}
}
