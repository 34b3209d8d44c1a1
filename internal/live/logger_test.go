package live_test

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/transport"
)

// syncBuffer guards the log sink: slog handlers run on every node's event
// loop concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestLoggerEmitsProtocolTransitions(t *testing.T) {
	var sink syncBuffer
	logger := slog.New(slog.NewTextHandler(&sink, nil))

	net := transport.NewMemNetwork(3, transport.MemOptions{})
	defer net.Close()
	mgrs := make([]*live.Manager, 3)
	for i := range mgrs {
		m, err := live.NewManager(live.ManagerConfig{
			ID: i, N: 3, Transport: net.Endpoint(i),
			Factory: registry.CoreLiveFactory(core.Options{Treq: 0.005, Tfwd: 0.005}),
			Logger:  logger,
		})
		if err != nil {
			t.Fatal(err)
		}
		mgrs[i] = m
		defer m.Close() //nolint:errcheck
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, m := range mgrs {
		if err := m.Lock(ctx, lockKey); err != nil {
			t.Fatal(err)
		}
		m.Unlock(lockKey)
	}

	out := sink.String()
	for _, want := range []string{"protocol dispatched", "protocol became-arbiter", "node=", "lockkey=" + lockKey} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

// TestLoggerComposesWithObserver: the logger joins — rather than
// displaces — an observer the factory installs itself; both must see the
// protocol events.
func TestLoggerComposesWithObserver(t *testing.T) {
	var sink syncBuffer
	logger := slog.New(slog.NewTextHandler(&sink, nil))

	var seen atomic.Int64
	net := transport.NewMemNetwork(1, transport.MemOptions{})
	defer net.Close()
	m, err := live.NewManager(live.ManagerConfig{
		ID: 0, N: 1, Transport: net.Endpoint(0),
		Factory: registry.CoreLiveFactory(core.Options{
			Treq: 0.002, Tfwd: 0.002,
			Observer: func(core.Event) { seen.Add(1) },
		}),
		Logger: logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() //nolint:errcheck

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Lock(ctx, lockKey); err != nil {
		t.Fatal(err)
	}
	m.Unlock(lockKey)
	// The dispatch that granted the CS reaches both sinks synchronously
	// before Lock returns.
	if seen.Load() == 0 {
		t.Error("factory-installed observer saw no events")
	}
	if !strings.Contains(sink.String(), "protocol dispatched") {
		t.Errorf("logger saw no dispatch event:\n%s", sink.String())
	}
}
