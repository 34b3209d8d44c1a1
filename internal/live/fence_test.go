package live_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

// TestFencingTokensStrictlyIncrease acquires the mutex from many
// goroutines across the cluster and checks the fencing tokens form a
// strictly increasing sequence in acquisition order.
func TestFencingTokensStrictlyIncrease(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 4, Core: cluster.Fast()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var (
		mu     sync.Mutex
		fences []uint64
		wg     sync.WaitGroup
	)
	for _, m := range mgrs {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(m *live.Manager) {
				defer wg.Done()
				for r := 0; r < 6; r++ {
					fence, err := m.LockFence(ctx, lockKey)
					if err != nil {
						t.Errorf("node %d: %v", m.ID(), err)
						return
					}
					mu.Lock()
					fences = append(fences, fence)
					mu.Unlock()
					m.Unlock(lockKey)
				}
			}(m)
		}
	}
	wg.Wait()

	if len(fences) != 4*2*6 {
		t.Fatalf("collected %d fences, want %d", len(fences), 4*2*6)
	}
	for i := 1; i < len(fences); i++ {
		if fences[i] <= fences[i-1] {
			t.Fatalf("fences not strictly increasing at %d: %d then %d",
				i, fences[i-1], fences[i])
		}
	}
	if fences[0] == 0 {
		t.Error("first fence is 0; fences must start at 1")
	}
}

// dropFirst swallows the first outbound message match accepts, on
// whichever endpoint of the cluster sends it, and sets done.
type dropFirst struct {
	transport.Transport
	done  *atomic.Bool
	match func(dme.Message) bool
}

func dropFirstMW(done *atomic.Bool, match func(dme.Message) bool) transport.Middleware {
	return func(next transport.Transport) transport.Transport {
		return &dropFirst{Transport: next, done: done, match: match}
	}
}

func (d *dropFirst) Send(to dme.NodeID, msg dme.Message) error {
	if d.match(msg) && d.done.CompareAndSwap(false, true) {
		return nil
	}
	return d.Transport.Send(to, msg)
}

// TestFencingSurvivesTokenRegeneration drops the token mid-run and checks
// that post-recovery fences are strictly above every pre-recovery fence —
// the property a fencing-token consumer relies on.
func TestFencingSurvivesTokenRegeneration(t *testing.T) {
	var dropped atomic.Bool
	mgrs := cluster.Start(t, cluster.Config{N: 4, Core: cluster.FastRecovery(), Middleware: []transport.Middleware{
		dropFirstMW(&dropped, func(msg dme.Message) bool {
			inner, _, _ := wire.Unwrap(msg) // frames go out keyed
			p, ok := inner.(core.Privilege)
			return ok && p.Fence >= 5 && len(p.Q) > 0
		}),
	}}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var (
		mu     sync.Mutex
		fences []uint64
		wg     sync.WaitGroup
	)
	for _, m := range mgrs {
		wg.Add(1)
		go func(m *live.Manager) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				fence, err := m.LockFence(ctx, lockKey)
				if err != nil {
					t.Errorf("node %d: %v", m.ID(), err)
					return
				}
				mu.Lock()
				fences = append(fences, fence)
				mu.Unlock()
				time.Sleep(time.Millisecond)
				m.Unlock(lockKey)
			}
		}(m)
	}
	wg.Wait()

	if !dropped.Load() {
		t.Skip("token was never dropped at the scripted point")
	}
	for i := 1; i < len(fences); i++ {
		if fences[i] <= fences[i-1] {
			t.Fatalf("fence regression across recovery at %d: %d then %d",
				i, fences[i-1], fences[i])
		}
	}
	// The regeneration jump must be visible: max fence well above count.
	max := fences[len(fences)-1]
	if max <= uint64(len(fences)) {
		t.Errorf("max fence %d not above grant count %d — regeneration jump missing",
			max, len(fences))
	}
}
