package live_test

import (
	"context"
	"testing"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/transport"
)

// benchOptions are the 1 ms protocol phases every benchmark cluster in
// this package runs.
var benchOptions = core.Options{Treq: 0.001, Tfwd: 0.001, RetransmitTimeout: 0.5}

// bareManagers builds n Managers over one in-memory network with nothing
// between a Manager and its endpoint. The benchmarks and the allocation
// guards measure a bare Manager; a test cluster's recorder and counting
// layer would be part of what they measure.
func bareManagers(tb testing.TB, n int, opts core.Options) []*live.Manager {
	net := transport.NewMemNetwork(n, transport.MemOptions{})
	mgrs := make([]*live.Manager, n)
	tb.Cleanup(func() {
		for _, m := range mgrs {
			if m != nil {
				_ = m.Close()
			}
		}
		net.Close()
	})
	for i := range mgrs {
		m, err := live.NewManager(live.ManagerConfig{
			ID: i, N: n, Transport: net.Endpoint(i), Factory: registry.CoreLiveFactory(opts),
		})
		if err != nil {
			tb.Fatalf("manager %d: %v", i, err)
		}
		mgrs[i] = m
	}
	return mgrs
}

// BenchmarkLiveLockUnlockUncontended measures the full Lock/Unlock round
// trip of one key on the node that already holds the token.
func BenchmarkLiveLockUnlockUncontended(b *testing.B) {
	mgrs := bareManagers(b, 3, benchOptions)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mgrs[0].Lock(ctx, lockKey); err != nil {
			b.Fatal(err)
		}
		mgrs[0].Unlock(lockKey)
	}
}

// BenchmarkLiveLockUnlockRoundRobin bounces the mutex between all nodes,
// forcing a token transfer per acquisition.
func BenchmarkLiveLockUnlockRoundRobin(b *testing.B) {
	mgrs := bareManagers(b, 3, benchOptions)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mgrs[i%len(mgrs)]
		if err := m.Lock(ctx, lockKey); err != nil {
			b.Fatal(err)
		}
		m.Unlock(lockKey)
	}
}
