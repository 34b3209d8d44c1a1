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

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/live"
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

	mgrs := cluster.Start(t, cluster.Config{N: 3, Core: core.Options{Treq: 0.005, Tfwd: 0.005}, Manager: func(_ int, cfg *live.ManagerConfig) {
		cfg.Logger = logger
	}}).Managers

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
	m := cluster.Start(t, cluster.Config{N: 1, Core: core.Options{
		Treq: 0.002, Tfwd: 0.002,
		Observer: func(core.Event) { seen.Add(1) },
	}, Manager: func(_ int, cfg *live.ManagerConfig) {
		cfg.Logger = logger
	}}).Managers[0]

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
