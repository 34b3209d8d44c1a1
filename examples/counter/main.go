// Counter: the classic motivating workload for mutual exclusion — many
// workers spread over cluster nodes increment a shared, unsynchronized
// counter. The distributed mutex is the only thing standing between the
// counter and lost updates; the example verifies the final value and
// reports throughput and fairness per node.
//
// Run with:
//
//	go run ./examples/counter
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

const (
	nodesN    = 4
	workersN  = 4  // workers per node
	rounds    = 25 // increments per worker
	wantTotal = nodesN * workersN * rounds
)

func main() {
	net := transport.NewMemNetwork(nodesN, transport.MemOptions{
		Delay:  500 * time.Microsecond,
		Jitter: 250 * time.Microsecond,
	})
	defer net.Close()

	factory := registry.CoreLiveFactory(core.Options{
		Treq:              0.002,
		Tfwd:              0.002,
		RetransmitTimeout: 0.5,
	})
	counters := make([]*transport.Counting, nodesN)
	nodes := make([]*live.Manager, nodesN)
	for i := range nodes {
		counters[i] = transport.NewCounting(net.Endpoint(i))
		node, err := live.NewManager(live.ManagerConfig{
			ID:        i,
			N:         nodesN,
			Transport: counters[i],
			Factory:   factory,
		})
		if err != nil {
			log.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = node
		defer node.Close() //nolint:errcheck // demo shutdown
	}

	var counter int // deliberately unsynchronized — the mutex protects it

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	start := time.Now()
	var wg sync.WaitGroup
	for i := range nodes {
		for w := 0; w < workersN; w++ {
			wg.Add(1)
			go func(node *live.Manager) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					// TryLockContext bounds each acquisition by the run's
					// deadline: (false, nil) means the context expired while
					// waiting, anything else is a real failure.
					ok, err := node.TryLockContext(ctx, "counter")
					if err != nil {
						log.Printf("node %d: %v", node.ID(), err)
						return
					}
					if !ok {
						log.Printf("node %d: deadline expired waiting for the mutex", node.ID())
						return
					}
					counter++ // safe: we hold the distributed mutex
					node.Unlock("counter")
				}
			}(nodes[i])
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("counter = %d (want %d) in %v — %.0f critical sections/sec\n",
		counter, wantTotal, elapsed.Round(time.Millisecond),
		float64(wantTotal)/elapsed.Seconds())
	if counter != wantTotal {
		log.Fatalf("LOST UPDATES: mutual exclusion failed")
	}
	var totalMsgs uint64
	for i, node := range nodes {
		granted, _ := node.Stats()
		sent, _ := counters[i].Totals()
		totalMsgs += sent
		fmt.Printf("node %d served %d acquisitions (%d messages sent)\n", node.ID(), granted, sent)
	}
	fmt.Printf("live messages per critical section: %.2f (paper: ≈3 at high load, N=%d gives 3−2/N = %.2f)\n",
		float64(totalMsgs)/float64(wantTotal), nodesN, 3-2/float64(nodesN))
}
