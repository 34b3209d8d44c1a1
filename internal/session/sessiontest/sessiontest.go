// Package sessiontest is the in-process harness for session-layer
// tests, in the spirit of net/http/httptest: Start builds a mem-network
// cluster of live Managers with a session Server fronting each node,
// and Dial hands back a connected Client over a net.Pipe — no sockets,
// no listeners, no sleeps. Tests inject a session.FakeClock to step
// leases and keepalives deterministically; the DME protocol underneath
// runs on real time with fast test timeouts, exactly as the live-layer
// tests do.
package sessiontest

import (
	"net"
	"testing"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/telemetry"
	"tokenarbiter/internal/transport"
)

// Options parameterizes Start. The zero value is a 3-node cluster on a
// wall clock with §6 recovery enabled and fast protocol timeouts.
type Options struct {
	// N is the cluster size; 0 means 3.
	N int
	// Clock is injected into every server (and available for clients);
	// nil means the wall clock.
	Clock session.Clock
	// Core overrides the protocol options; nil uses FastCoreOptions.
	Core *core.Options
	// Phase, when non-zero, replaces the protocol's Treq and Tfwd (the
	// collection and forwarding phases) in whichever options Core picks.
	// Phases under 2 ms put the windows holding requests on the live
	// runtime's short-timer service, which is where the benchmark's
	// 200 µs phases run.
	Phase time.Duration
	// Middleware, when non-nil, wraps node i's transport endpoint —
	// the hook for fault injection in chaos tests.
	Middleware func(i int, base transport.Transport) transport.Transport
	// Manager, when non-nil, tweaks node i's Manager config (a flight
	// recorder, a tracer) before it is built.
	Manager func(i int, cfg *live.ManagerConfig)
	// Server, when non-nil, tweaks node i's session server config
	// (admission limits, TTL bounds) before it is built.
	Server func(i int, cfg *session.Config)
}

// FastCoreOptions returns the protocol options the harness runs by
// default: short request/forward phases and §6 recovery tuned for a
// loopback network, matching the live-layer test suites.
func FastCoreOptions() core.Options {
	return core.Options{
		Treq:              0.005,
		Tfwd:              0.005,
		RetransmitTimeout: 0.25,
		Recovery: core.RecoveryOptions{
			Enabled:        true,
			TokenTimeout:   0.15,
			RoundTimeout:   0.05,
			ArbiterTimeout: 0.4,
			ProbeTimeout:   0.05,
		},
	}
}

// Cluster is a running session-service cluster. Everything is torn
// down by t.Cleanup in reverse dependency order: clients, then
// servers, then managers, then the network.
type Cluster struct {
	N        int
	Clock    session.Clock
	Network  *transport.MemNetwork
	Managers []*live.Manager
	Servers  []*session.Server
	Regs     []*telemetry.Registry
}

// Start builds and runs the cluster.
func Start(t testing.TB, o Options) *Cluster {
	t.Helper()
	if o.N <= 0 {
		o.N = 3
	}
	if o.Clock == nil {
		o.Clock = session.WallClock{}
	}
	opts := FastCoreOptions()
	if o.Core != nil {
		opts = *o.Core
	}
	if o.Phase > 0 {
		opts.Treq = o.Phase.Seconds()
		opts.Tfwd = o.Phase.Seconds()
	}
	if _, err := registry.RegisterWire(registry.Core); err != nil {
		t.Fatal(err)
	}

	c := &Cluster{
		N:        o.N,
		Clock:    o.Clock,
		Network:  transport.NewMemNetwork(o.N, transport.MemOptions{}),
		Managers: make([]*live.Manager, o.N),
		Servers:  make([]*session.Server, o.N),
		Regs:     make([]*telemetry.Registry, o.N),
	}
	for i := 0; i < o.N; i++ {
		tr := transport.Transport(c.Network.Endpoint(i))
		if o.Middleware != nil {
			tr = o.Middleware(i, tr)
		}
		mcfg := live.ManagerConfig{
			ID:        i,
			N:         o.N,
			Transport: tr,
			Factory:   registry.CoreLiveFactory(opts),
			Algo:      "core",
		}
		if o.Manager != nil {
			o.Manager(i, &mcfg)
		}
		mgr, err := live.NewManager(mcfg)
		if err != nil {
			t.Fatalf("manager %d: %v", i, err)
		}
		c.Managers[i] = mgr

		c.Regs[i] = telemetry.NewRegistry()
		cfg := session.Config{
			Backend: mgr,
			Clock:   o.Clock,
			Metrics: c.Regs[i],
			// Tests step leases in the tens of milliseconds; don't let
			// the production floor round them up.
			MinTTL: time.Millisecond,
		}
		if o.Server != nil {
			o.Server(i, &cfg)
		}
		srv, err := session.NewServer(cfg)
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		c.Servers[i] = srv
	}
	t.Cleanup(func() {
		for _, srv := range c.Servers {
			_ = srv.Close()
		}
		for _, mgr := range c.Managers {
			_ = mgr.Close()
		}
		c.Network.Close()
	})
	return c
}

// Dial connects a new client to node's session server over an
// in-process pipe. The client is closed by t.Cleanup.
func (c *Cluster) Dial(t testing.TB, node int, opts session.Options) *session.Client {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = c.Clock
	}
	cli, srv := net.Pipe()
	c.Servers[node].ServeConn(srv)
	cl, err := session.NewClient(cli, opts)
	if err != nil {
		t.Fatalf("dial node %d: %v", node, err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}
