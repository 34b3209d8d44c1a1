package live_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/transport"
)

// Example shows the minimal lifecycle: build an in-memory cluster, take
// a named distributed lock on one node, release it, shut down.
func Example() {
	const n = 3
	net := transport.NewMemNetwork(n, transport.MemOptions{})
	defer net.Close()

	mgrs := make([]*live.Manager, n)
	for i := 0; i < n; i++ {
		mgr, err := live.NewManager(live.ManagerConfig{
			ID:        i,
			N:         n,
			Transport: net.Endpoint(i),
			Factory:   registry.CoreLiveFactory(core.Options{Treq: 0.005, Tfwd: 0.005}),
		})
		if err != nil {
			log.Fatal(err)
		}
		mgrs[i] = mgr
		defer mgr.Close() //nolint:errcheck // example shutdown
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := mgrs[1].Lock(ctx, "orders"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("node 1 holds the distributed lock \"orders\"")
	mgrs[1].Unlock("orders")

	granted, released := mgrs[1].Stats()
	fmt.Printf("node 1 stats: %d granted, %d released\n", granted, released)
	// Output:
	// node 1 holds the distributed lock "orders"
	// node 1 stats: 1 granted, 1 released
}
