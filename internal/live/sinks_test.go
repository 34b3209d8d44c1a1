package live

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

// TestNoSinksNoCost pins what "everything off" means — TraceDepth -1, no
// Tracer, no FlightRec, how every benchmark workload's measured pass
// runs: the sink list is empty (emit is one length test), no record
// observer joins the fan-out (the factory is handed the metrics observer
// itself, not a FanOut closure around it), and outbound messages carry no
// trace wrapper. The traced run beside it shows the test can tell.
func TestNoSinksNoCost(t *testing.T) {
	// The observer's function name tells the two apart: the metrics
	// observer is a closure of (*liveMetrics).observer, a fan-out one of
	// core.FanOut (code pointers would not do; inlining copies closures).
	bareMetrics := func(name string) bool {
		return strings.Contains(name, "liveMetrics).observer") && !strings.Contains(name, "FanOut")
	}
	run := func(t *testing.T, tracer *reqtrace.Collector, depth int) (nodes []*Node, obs []string, sent []dme.Message) {
		var mu sync.Mutex
		tap := func(next transport.Transport) transport.Transport {
			return sendTap{Transport: next, seen: func(msg dme.Message) {
				mu.Lock()
				sent = append(sent, msg)
				mu.Unlock()
			}}
		}
		build := registry.CoreLiveFactory(core.Options{Treq: 0.005, Tfwd: 0.005})
		factory := func(id, n int, o func(core.Event)) (dme.Node, error) {
			mu.Lock()
			obs = append(obs, runtime.FuncForPC(reflect.ValueOf(o).Pointer()).Name())
			mu.Unlock()
			return build(id, n, o)
		}
		net := transport.NewMemNetwork(2, transport.MemOptions{})
		t.Cleanup(net.Close)
		var mgrs []*Manager
		for i := 0; i < 2; i++ {
			m, err := NewManager(ManagerConfig{
				ID: i, N: 2, Transport: transport.Chain(net.Endpoint(i), tap),
				Factory:    factory,
				TraceDepth: depth, Tracer: tracer,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = m.Close() })
			mgrs = append(mgrs, m)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// A REQUEST out creates node 0's engine, and the token comes back.
		if err := mgrs[1].Lock(ctx, "k"); err != nil {
			t.Fatal(err)
		}
		mgrs[1].Unlock("k")
		for _, m := range mgrs {
			nodes = append(nodes, m.Node("k"))
		}
		mu.Lock()
		defer mu.Unlock()
		return nodes, obs, append([]dme.Message(nil), sent...)
	}
	traced := func(msgs []dme.Message) (n int) {
		for _, msg := range msgs {
			if _, _, trace := wire.Unwrap(msg); trace != 0 {
				n++
			}
		}
		return n
	}

	nodes, obs, sent := run(t, nil, -1)
	for i, nd := range nodes {
		if len(nd.sinks) != 0 || nd.stamp || nd.Trace() != nil {
			t.Errorf("node %d with everything off: %d sinks, stamp=%v, ring=%v", i, len(nd.sinks), nd.stamp, nd.Trace())
		}
		if !bareMetrics(obs[i]) {
			t.Errorf("node %d with everything off: the factory's observer is %s, want the bare metrics observer", i, obs[i])
		}
	}
	if len(sent) == 0 || traced(sent) != 0 {
		t.Errorf("with everything off: %d of %d outbound messages carry a trace wrapper", traced(sent), len(sent))
	}

	nodes, obs, sent = run(t, reqtrace.NewCollector(8), 0)
	for i, nd := range nodes {
		if len(nd.sinks) != 2 || !nd.stamp || bareMetrics(obs[i]) {
			t.Errorf("node %d with ring and tracer on: %d sinks, stamp=%v, observer %s",
				i, len(nd.sinks), nd.stamp, obs[i])
		}
	}
	if traced(sent) == 0 {
		t.Errorf("with the tracer on: none of %d outbound messages carries a trace wrapper", len(sent))
	}
}

// sendTap shows a test every message a node sends.
type sendTap struct {
	transport.Transport
	seen func(dme.Message)
}

func (s sendTap) Send(to dme.NodeID, msg dme.Message) error {
	s.seen(msg)
	return s.Transport.Send(to, msg)
}
