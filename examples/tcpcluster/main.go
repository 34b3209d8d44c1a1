// TCP cluster: three live arbiter-mutex nodes talking over TCP on
// loopback, all hosted by this process so the example is self-contained —
// the wire path is identical to a real multi-process deployment (see
// cmd/mutexnode for the one-process-per-node version). The nodes contend
// for the mutex and the example prints the resulting serialized schedule.
//
// Run with:
//
//	go run ./examples/tcpcluster
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/transport"
)

func main() {
	const n = 3

	// Bind each node on an OS-assigned port, then exchange addresses —
	// the same dance a deployment tool would do with a config file.
	transports := make([]*transport.TCPTransport, n)
	addrs := make(map[dme.NodeID]string, n)
	for i := 0; i < n; i++ {
		tr, err := transport.NewTCP(i, map[dme.NodeID]string{i: "127.0.0.1:0"})
		if err != nil {
			log.Fatalf("listen %d: %v", i, err)
		}
		transports[i] = tr
		addrs[i] = tr.Addr().String()
	}
	for i := 0; i < n; i++ {
		transports[i].SetPeers(addrs)
	}
	fmt.Println("cluster addresses:")
	for i := 0; i < n; i++ {
		fmt.Printf("  node %d: %s\n", i, addrs[i])
	}

	factory := registry.CoreLiveFactory(core.Options{
		Treq:              0.01,
		Tfwd:              0.01,
		RetransmitTimeout: 1,
		Recovery: core.RecoveryOptions{
			Enabled:      true,
			TokenTimeout: 2,
			RoundTimeout: 0.5,
		},
	})
	nodes := make([]*live.Manager, n)
	for i := 0; i < n; i++ {
		node, err := live.NewManager(live.ManagerConfig{
			ID:        i,
			N:         n,
			Transport: transports[i],
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

	var (
		mu       sync.Mutex
		schedule []int
		wg       sync.WaitGroup
	)
	for i := range nodes {
		wg.Add(1)
		go func(node *live.Manager) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				if err := node.Lock(ctx, "demo"); err != nil {
					log.Printf("node %d: %v", node.ID(), err)
					return
				}
				mu.Lock()
				schedule = append(schedule, node.ID())
				mu.Unlock()
				fmt.Printf("node %d holds the mutex (round %d)\n", node.ID(), r+1)
				time.Sleep(5 * time.Millisecond)
				node.Unlock("demo")
			}
		}(nodes[i])
	}
	wg.Wait()

	fmt.Printf("serialized schedule over TCP: %v\n", schedule)
	fmt.Printf("total acquisitions: %d (want %d)\n", len(schedule), n*5)
}
