package transport_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/transport"
)

func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

func TestMemNetworkDelivery(t *testing.T) {
	net := transport.NewMemNetwork(3, transport.MemOptions{})
	defer net.Close()

	var got atomic.Int64
	net.Endpoint(1).SetHandler(func(from dme.NodeID, msg dme.Message) {
		if from == 0 && msg.Kind() == core.KindProbe {
			got.Add(1)
		}
	})
	if err := net.Endpoint(0).Send(1, core.Probe{}); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, time.Second, func() bool { return got.Load() == 1 }) {
		t.Fatal("message not delivered")
	}
}

func TestMemNetworkDelayIsApplied(t *testing.T) {
	net := transport.NewMemNetwork(2, transport.MemOptions{Delay: 50 * time.Millisecond})
	defer net.Close()

	done := make(chan time.Time, 1)
	net.Endpoint(1).SetHandler(func(dme.NodeID, dme.Message) { done <- time.Now() })
	start := time.Now()
	if err := net.Endpoint(0).Send(1, core.Probe{}); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-done:
		if lat := at.Sub(start); lat < 45*time.Millisecond {
			t.Errorf("latency %v, want ≥ ~50ms", lat)
		}
	case <-time.After(time.Second):
		t.Fatal("never delivered")
	}
}

func TestMemNetworkDisconnectReconnect(t *testing.T) {
	net := transport.NewMemNetwork(2, transport.MemOptions{})
	defer net.Close()

	var got atomic.Int64
	net.Endpoint(1).SetHandler(func(dme.NodeID, dme.Message) { got.Add(1) })

	net.Disconnect(1)
	_ = net.Endpoint(0).Send(1, core.Probe{})
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("disconnected endpoint received a message")
	}

	net.Reconnect(1)
	_ = net.Endpoint(0).Send(1, core.Probe{})
	if !waitFor(t, time.Second, func() bool { return got.Load() == 1 }) {
		t.Fatal("reconnected endpoint did not receive")
	}

	// A disconnected *sender* also drops.
	net.Disconnect(0)
	_ = net.Endpoint(0).Send(1, core.Probe{})
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 1 {
		t.Error("message escaped from a disconnected sender")
	}
}

func TestMemNetworkSendToInvalidNode(t *testing.T) {
	net := transport.NewMemNetwork(2, transport.MemOptions{})
	defer net.Close()
	if err := net.Endpoint(0).Send(7, core.Probe{}); err == nil {
		t.Error("send to unknown node accepted")
	}
}

func TestMemNetworkSelf(t *testing.T) {
	net := transport.NewMemNetwork(3, transport.MemOptions{})
	defer net.Close()
	for i := 0; i < 3; i++ {
		if got := net.Endpoint(i).Self(); got != i {
			t.Errorf("Endpoint(%d).Self() = %d", i, got)
		}
	}
}

func TestMemNetworkConcurrentSenders(t *testing.T) {
	net := transport.NewMemNetwork(4, transport.MemOptions{Jitter: time.Millisecond, Seed: 1})
	defer net.Close()

	var got atomic.Int64
	net.Endpoint(0).SetHandler(func(dme.NodeID, dme.Message) { got.Add(1) })

	var wg sync.WaitGroup
	const perSender = 100
	for s := 1; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				_ = net.Endpoint(s).Send(0, core.Probe{})
			}
		}(s)
	}
	wg.Wait()
	if !waitFor(t, 5*time.Second, func() bool { return got.Load() == 3*perSender }) {
		t.Errorf("received %d, want %d", got.Load(), 3*perSender)
	}
}
