package live_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkManagerMultiKey is the aggregate-throughput-vs-keys point of
// the multi-key lock service: the same worker pool drives b.N total
// Lock/Unlock cycles — each holding the lock for a fixed critical
// section — over 1 vs 8 lock keys on a 3-node cluster. With one key the
// hold times serialize on a single token, so aggregate throughput is
// capped near 1/hold; with 8 keys the independent DME groups run their
// critical sections concurrently over the same shared transport, so
// aggregate cs/sec scales with key count.
func BenchmarkManagerMultiKey(b *testing.B) {
	const (
		nodes   = 3
		workers = 8
		hold    = 2 * time.Millisecond
	)
	for _, keys := range []int{1, 8} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			mgrs := bareManagers(b, nodes, benchOptions)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()

			// Create every key up front so instance construction (a one-time
			// cost) stays out of the measured loop.
			keyNames := make([]string, keys)
			for k := range keyNames {
				keyNames[k] = fmt.Sprintf("key-%d", k)
				if err := mgrs[0].Lock(ctx, keyNames[k]); err != nil {
					b.Fatal(err)
				}
				mgrs[0].Unlock(keyNames[k])
			}

			var remaining atomic.Int64
			remaining.Store(int64(b.N))
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					m := mgrs[w%nodes]
					key := keyNames[w%keys]
					for remaining.Add(-1) >= 0 {
						if err := m.Lock(ctx, key); err != nil {
							b.Error(err)
							return
						}
						time.Sleep(hold)
						m.Unlock(key)
					}
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "cs/sec")
		})
	}
}
