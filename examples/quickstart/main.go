// Quickstart: a five-node in-process cluster of the arbiter token-passing
// mutex. Each node acquires the distributed lock "demo" three times and
// prints what it did. Node 0 starts as the arbiter holding the token,
// exactly as in the paper's initialization.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/transport"
)

func main() {
	const n = 5
	net := transport.NewMemNetwork(n, transport.MemOptions{
		Delay: time.Millisecond, // simulated one-way network latency
	})
	defer net.Close()

	// The factory builds each key's protocol engine: the paper's arbiter
	// algorithm with its phase durations (the baselines it is compared
	// with run in the simulator, `mutexsim fig6`).
	factory := registry.CoreLiveFactory(core.Options{
		Treq: 0.01, // 10 ms request-collection phase
		Tfwd: 0.01, // 10 ms request-forwarding phase
	})
	nodes := make([]*live.Manager, n)
	for i := 0; i < n; i++ {
		node, err := live.NewManager(live.ManagerConfig{
			ID:        i,
			N:         n,
			Transport: net.Endpoint(i),
			Factory:   factory,
		})
		if err != nil {
			log.Fatalf("starting node %d: %v", i, err)
		}
		nodes[i] = node
		defer node.Close() //nolint:errcheck // demo shutdown
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *live.Manager) {
			defer wg.Done()
			for round := 1; round <= 3; round++ {
				if err := node.Lock(ctx, "demo"); err != nil {
					log.Printf("node %d: lock failed: %v", i, err)
					return
				}
				fmt.Printf("node %d entered the critical section (round %d)\n", i, round)
				time.Sleep(2 * time.Millisecond) // the protected work
				node.Unlock("demo")
			}
		}(i, node)
	}
	wg.Wait()

	for i, node := range nodes {
		granted, released := node.Stats()
		fmt.Printf("node %d: %d granted / %d released\n", i, granted, released)
	}
}
