// Fencing: why a distributed lock alone is not enough, and how fencing
// tokens fix it. A client can acquire the mutex, stall (GC pause, VM
// migration, network partition), get declared dead by the §6 recovery
// protocol, and then wake up and write to the shared resource while a
// new holder is active. The cure — returned by live.Manager.LockFence — is
// a counter that increases with every grant across the cluster,
// including across token regenerations: the resource remembers the
// highest fence it has accepted and rejects anything older.
//
// This example stages exactly that incident: node 1 acquires the mutex
// with fence F, "stalls" while disconnected, the cluster recovers and
// node 2 proceeds with a higher fence, and node 1's late write bounces
// off the fence check.
//
// Run with:
//
//	go run ./examples/fencing
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

// register is the protected resource: a last-writer-wins cell that
// enforces fencing.
type register struct {
	mu       sync.Mutex
	value    string
	maxFence uint64
	rejected int
}

// write applies the value iff the fence is not stale.
func (r *register) write(fence uint64, value string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fence <= r.maxFence {
		r.rejected++
		return false
	}
	r.maxFence = fence
	r.value = value
	return true
}

func main() {
	const n = 3
	net := transport.NewMemNetwork(n, transport.MemOptions{Delay: time.Millisecond})
	defer net.Close()

	opts := core.Options{
		Treq:              0.005,
		Tfwd:              0.005,
		RetransmitTimeout: 0.5,
		Recovery: core.RecoveryOptions{
			Enabled:        true,
			TokenTimeout:   0.25, // declare the token lost after 250 ms
			RoundTimeout:   0.1,
			ArbiterTimeout: 1,
			ProbeTimeout:   0.1,
		},
	}
	factory := registry.CoreLiveFactory(opts)
	const key = "register"
	nodes := make([]*live.Manager, n)
	for i := 0; i < n; i++ {
		node, err := live.NewManager(live.ManagerConfig{ID: i, N: n, Transport: net.Endpoint(i), Factory: factory})
		if err != nil {
			log.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = node
		defer node.Close() //nolint:errcheck // demo shutdown
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg := &register{}

	// Warm up so the token circulates.
	for _, nd := range nodes {
		if err := nd.Lock(ctx, key); err != nil {
			log.Fatal(err)
		}
		nd.Unlock(key)
	}

	// Node 1 acquires the lock and stalls while holding it.
	staleFence, err := nodes[1].LockFence(ctx, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 1 acquired the mutex with fence %d ... and stalls (partitioned)\n", staleFence)
	net.Disconnect(1) // the stall: node 1 can't be reached, token dies with it

	// Node 2 wants the lock; the §6 recovery declares the token lost,
	// regenerates it with a fence jump, and grants node 2.
	freshFence, err := nodes[2].LockFence(ctx, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster recovered: node 2 holds the mutex with fence %d (> %d)\n", freshFence, staleFence)
	if !reg.write(freshFence, "written by node 2") {
		log.Fatal("fresh write rejected!?")
	}
	nodes[2].Unlock(key)

	// Node 1 wakes up, still believing it holds the lock, and writes.
	net.Reconnect(1)
	fmt.Println("node 1 wakes up and issues its late write...")
	if reg.write(staleFence, "GARBAGE from the stale holder") {
		log.Fatal("STALE WRITE ACCEPTED — fencing failed")
	}
	fmt.Printf("register rejected the stale write (fence %d ≤ %d)\n", staleFence, reg.maxFence)
	fmt.Printf("final value: %q, rejected writes: %d\n", reg.value, reg.rejected)
	nodes[1].Unlock(key) // node 1 cleans up its local state
}
