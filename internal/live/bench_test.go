package live_test

import (
	"context"
	"testing"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/transport"
)

// benchOptions are the 1 ms protocol phases every benchmark cluster in
// this package runs.
var benchOptions = core.Options{Treq: 0.001, Tfwd: 0.001, RetransmitTimeout: 0.5}

// BenchmarkLiveLockUnlockUncontended measures the full Lock/Unlock round
// trip of one key on the node that already holds the token.
func BenchmarkLiveLockUnlockUncontended(b *testing.B) {
	mgrs, _ := managerCluster(b, 3, benchOptions, transport.MemOptions{})
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
	mgrs, _ := managerCluster(b, 3, benchOptions, transport.MemOptions{})
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
