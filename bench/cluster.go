package main

import (
	"context"
	"fmt"
	"net"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/transport"
)

// protoOptions is the one protocol configuration every live workload
// runs.
func protoOptions() core.Options {
	return core.Options{
		Treq:              protoTreq,
		Tfwd:              protoTfwd,
		RetransmitTimeout: protoRetransmit,
		Recovery: core.RecoveryOptions{
			Enabled:        true,
			TokenTimeout:   recTokenTimeout,
			RoundTimeout:   recRoundTimeout,
			ArbiterTimeout: recArbiterTimeout,
			ProbeTimeout:   recProbeTimeout,
		},
	}
}

// clusterOpts selects the optional layers a workload or a traced pass
// adds to the otherwise fixed stack.
type clusterOpts struct {
	seed uint64
	// faults, when non-nil, sits under Counting on every node, so the
	// counters above it see what the protocol attempted to send.
	faults *faultnet.Injector
	// tracer, when non-nil, turns on the program's own request tracing
	// (reqtrace.live_overhead_ratio measures its cost).
	tracer *reqtrace.Collector
	// spans, when non-nil, installs the bench-owned wrappers: a
	// session.Backend around each Manager and a transport.Middleware
	// directly under it.
	spans *spanRecorder
}

// benchNode is one cluster member: TCP endpoint → Counting → Manager →
// session server on its own loopback listener.
type benchNode struct {
	tcp      *transport.TCPTransport
	counting *transport.Counting
	mgr      *live.Manager
	srv      *session.Server
	addr     string
}

type cluster struct {
	nodes   []*benchNode
	clients []*session.Client
	faults  *faultnet.Injector
	opens   []int64 // how long each session Open took, ns
}

func newCluster(o clusterOpts) (*cluster, error) {
	c := &cluster{faults: o.faults}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	addrs := make(map[dme.NodeID]string, clusterNodes)
	for i := 0; i < clusterNodes; i++ {
		tcp, err := transport.NewTCPOpt(i, map[dme.NodeID]string{i: "127.0.0.1:0"},
			transport.TCPOptions{Algo: registry.Core, Codec: wireCodec})
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, &benchNode{tcp: tcp})
		addrs[i] = tcp.Addr().String()
	}
	factory := registry.CoreLiveFactory(protoOptions())
	for i, n := range c.nodes {
		n.tcp.SetPeers(addrs)
		var tr transport.Transport = n.tcp
		if o.faults != nil {
			tr = o.faults.Middleware()(tr)
		}
		n.counting = transport.NewCounting(tr)
		tr = n.counting
		if o.spans != nil {
			tr = o.spans.middleware(i)(tr)
		}
		mgr, err := live.NewManager(live.ManagerConfig{
			ID: i, N: clusterNodes, Transport: tr, Factory: factory,
			Algo: registry.Core, Seed: o.seed*clusterNodes + uint64(i) + 1,
			TraceDepth: -1, Tracer: o.tracer,
		})
		if err != nil {
			return nil, err
		}
		n.mgr = mgr
		var backend session.Backend = mgr
		if o.spans != nil {
			backend = o.spans.backend(i, mgr)
		}
		srv, err := session.NewServer(session.Config{Backend: backend, DefaultTTL: sessionTTL})
		if err != nil {
			return nil, err
		}
		n.srv = srv
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		n.addr = ln.Addr().String()
		go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}
	ok = true
	return c, nil
}

// dial opens one client connection to node's session server and n
// sessions multiplexed on it.
func (c *cluster) dial(ctx context.Context, node, n int) ([]*session.Session, error) {
	cl, err := session.Dial(c.nodes[node].addr, session.Options{})
	if err != nil {
		return nil, fmt.Errorf("dial node %d: %w", node, err)
	}
	c.clients = append(c.clients, cl)
	out := make([]*session.Session, n)
	for i := range out {
		t0 := now()
		if out[i], err = cl.Open(ctx, sessionTTL); err != nil {
			return nil, fmt.Errorf("open session on node %d: %w", node, err)
		}
		c.opens = append(c.opens, now()-t0)
	}
	return out, nil
}

// close tears the stack down top to bottom and waits for each layer.
func (c *cluster) close() {
	for _, cl := range c.clients {
		_ = cl.Close()
	}
	for _, n := range c.nodes {
		if n.srv != nil {
			_ = n.srv.Close()
		}
	}
	for _, n := range c.nodes {
		switch {
		case n.mgr != nil:
			_ = n.mgr.Close() // closes the transport chain under it
		case n.tcp != nil:
			_ = n.tcp.Close()
		}
	}
}
