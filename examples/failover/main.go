// Failover: a live demonstration of the paper's §6 failure recovery. A
// four-node cluster runs under load while the example (1) drops the next
// PRIVILEGE message on the wire via the faultnet injector — losing the
// token in flight — and then (2) hard-kills the node currently holding
// the mutex. Both times the two-phase token invalidation protocol
// (WARNING → ENQUIRY → INVALIDATE + regeneration) restores progress,
// visible as the token epoch incrementing.
//
// Run with:
//
//	go run ./examples/failover
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/transport"
)

func main() {
	const n = 4

	net := transport.NewMemNetwork(n, transport.MemOptions{
		Delay: time.Millisecond,
	})
	defer net.Close()

	// The injector sits between every node and the wire as a transport
	// middleware; DropNextKind below arms the targeted token loss.
	inj := faultnet.New(faultnet.Options{Seed: 1})

	opts := core.Options{
		Treq:              0.005,
		Tfwd:              0.005,
		RetransmitTimeout: 0.5,
		Recovery: core.RecoveryOptions{
			Enabled:        true,
			TokenTimeout:   0.3, // detect a missing token within 300 ms
			RoundTimeout:   0.1,
			ArbiterTimeout: 1.0,
			ProbeTimeout:   0.1,
		},
	}
	factory := registry.CoreLiveFactory(opts)
	const key = "demo"
	nodes := make([]*live.Manager, n)
	for i := 0; i < n; i++ {
		node, err := live.NewManager(live.ManagerConfig{
			ID: i, N: n,
			Transport: transport.Chain(net.Endpoint(i), inj.Middleware()),
			Factory:   factory,
		})
		if err != nil {
			log.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = node
		defer node.Close() //nolint:errcheck // demo shutdown
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Background load from every node.
	var acquisitions atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, node := range nodes[1:] { // node 0 is our failure victim later
		wg.Add(1)
		go func(node *live.Manager) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := node.Lock(ctx, key); err != nil {
					return
				}
				acquisitions.Add(1)
				time.Sleep(2 * time.Millisecond)
				node.Unlock(key)
				time.Sleep(3 * time.Millisecond)
			}
		}(node)
	}

	epoch := func() uint64 {
		var max uint64
		for _, node := range nodes[1:] {
			if ins, err := node.Node(key).Inspect(ctx); err == nil && ins.Epoch > max {
				max = ins.Epoch
			}
		}
		return max
	}

	time.Sleep(200 * time.Millisecond)
	fmt.Printf("cluster warm: %d acquisitions, token epoch %d\n", acquisitions.Load(), epoch())

	// --- Failure 1: lose the token on the wire -------------------------
	fmt.Println("\n=== failure 1: dropping the next PRIVILEGE message ===")
	before := acquisitions.Load()
	inj.DropNextKind(core.KindPrivilege, 1)
	time.Sleep(1500 * time.Millisecond)
	fmt.Printf("recovered: epoch now %d, %d acquisitions since the drop (injector: %d dropped)\n",
		epoch(), acquisitions.Load()-before, inj.Counters().Drops)

	// --- Failure 2: crash the node holding the mutex --------------------
	fmt.Println("\n=== failure 2: killing node 0 while it holds the mutex ===")
	victimCtx, victimCancel := context.WithTimeout(ctx, 5*time.Second)
	defer victimCancel()
	if ok, err := nodes[0].TryLockContext(victimCtx, key); err != nil || !ok {
		log.Fatalf("victim lock: ok=%v err=%v", ok, err)
	}
	fmt.Println("node 0 acquired the mutex ... and dies")
	_ = nodes[0].Close() // the hard kill: closes the endpoint under the Manager too

	before = acquisitions.Load()
	time.Sleep(1500 * time.Millisecond)
	fmt.Printf("survivors recovered: epoch now %d, %d acquisitions since the crash\n",
		epoch(), acquisitions.Load()-before)

	close(stop)
	cancel()
	wg.Wait()

	if acquisitions.Load() == before {
		log.Fatal("no progress after the crash: recovery failed")
	}
	fmt.Printf("\ntotal acquisitions across both failures: %d\n", acquisitions.Load())
}
