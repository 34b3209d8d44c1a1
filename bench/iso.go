package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/sim"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

// Isolated micro-runs: each calls one layer's public API and nothing
// above it, for a fixed wall time, and reports the cost of one
// operation. They do not depend on the workload.

// timed calls op in a loop for d and returns the mean cost of one call
// in ns and the heap allocations per call.
func timed(d time.Duration, op func() error) (nsPerOp, allocsPerOp float64, n int, err error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < 64; i++ {
			if err := op(); err != nil {
				return 0, 0, n, err
			}
		}
		n += 64
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(ms.Mallocs-mallocs) / float64(n), n, nil
}

// instantBackend grants every lock at once: what is left is the session
// machinery.
type instantBackend struct{ fence atomic.Uint64 }

func (b *instantBackend) LockFence(context.Context, string) (uint64, error) {
	return b.fence.Add(1), nil
}
func (b *instantBackend) Unlock(string) {}

// isoSession times Acquire+Release against an instant Backend over
// loopback TCP.
func isoSession(m *metricSet, d time.Duration) error {
	srv, err := session.NewServer(session.Config{Backend: &instantBackend{}, DefaultTTL: sessionTTL})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	cl, err := session.Dial(ln.Addr().String(), session.Options{})
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx := context.Background()
	sess, err := cl.Open(ctx, sessionTTL)
	if err != nil {
		return err
	}
	ns, allocs, n, err := timed(d, func() error {
		if _, err := sess.Acquire(ctx, "iso"); err != nil {
			return err
		}
		return sess.Release("iso")
	})
	if err != nil {
		return fmt.Errorf("iso session: %w", err)
	}
	m.set("session.rtt_us", ns/1e3, n)
	m.set("session.allocs_per_cycle", allocs, n)
	return nil
}

// isoLockLocal times Manager.Lock/Unlock on the token holder of a
// 3-node zero-delay in-memory network: the live fast path with the
// protocol's collection window and no socket.
func isoLockLocal(m *metricSet, d time.Duration, seed uint64) error {
	network := transport.NewMemNetwork(clusterNodes, transport.MemOptions{FIFO: true, Seed: seed})
	defer network.Close()
	factory := registry.CoreLiveFactory(protoOptions())
	var mgrs []*live.Manager
	defer func() {
		for _, mgr := range mgrs {
			_ = mgr.Close()
		}
	}()
	for i := 0; i < clusterNodes; i++ {
		mgr, err := live.NewManager(live.ManagerConfig{
			ID: i, N: clusterNodes, Transport: network.Endpoint(i), Factory: factory,
			Algo: registry.Core, Seed: seed*clusterNodes + uint64(i) + 1, TraceDepth: -1,
		})
		if err != nil {
			return err
		}
		mgrs = append(mgrs, mgr)
	}
	ctx := context.Background()
	ns, _, n, err := timed(d, func() error {
		if err := mgrs[0].Lock(ctx, "iso"); err != nil {
			return err
		}
		mgrs[0].Unlock("iso")
		return nil
	})
	if err != nil {
		return fmt.Errorf("iso lock_local: %w", err)
	}
	m.set("live.lock_local_us", ns/1e3, n)
	return nil
}

// isoIdleCPU builds the full 3-node TCP cluster, grants one key once so
// its per-key state and recovery timers exist, and measures what the
// idle cluster burns.
func isoIdleCPU(m *metricSet, d time.Duration, seed uint64) error {
	c, err := newCluster(clusterOpts{seed: seed})
	if err != nil {
		return err
	}
	defer c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sessions, err := c.dial(ctx, 0, 1)
	if err != nil {
		return err
	}
	if err := firstGrant(ctx, newOracle(), sessions[0], "k0"); err != nil {
		return fmt.Errorf("iso idle: %w", err)
	}
	cpu, start := processCPU(), time.Now()
	time.Sleep(d)
	burned, elapsed := processCPU()-cpu, time.Since(start)
	m.set("live.idle_cpu_ms_per_s", float64(burned.Microseconds())/1e3/elapsed.Seconds(), 0)
	return nil
}

// isoTCP ping-pongs one REQUEST between two TCP endpoints; half the
// round trip is one message's way through encode, socket, decode and
// handler dispatch.
func isoTCP(m *metricSet, d time.Duration) error {
	var eps [2]*transport.TCPTransport
	addrs := make(map[dme.NodeID]string, 2)
	for i := range eps {
		tcp, err := transport.NewTCPOpt(i, map[dme.NodeID]string{i: "127.0.0.1:0"},
			transport.TCPOptions{Algo: registry.Core, Codec: wireCodec})
		if err != nil {
			return err
		}
		defer tcp.Close()
		eps[i] = tcp
		addrs[i] = tcp.Addr().String()
	}
	msg := core.Request{Entry: core.QEntry{Node: 0, Seq: 1}}
	pong := make(chan struct{}, 1)
	eps[0].SetPeers(addrs)
	eps[1].SetPeers(addrs)
	eps[0].SetHandler(func(dme.NodeID, dme.Message) { pong <- struct{}{} })
	eps[1].SetHandler(func(from dme.NodeID, msg dme.Message) { _ = eps[1].Send(from, msg) }) // a lost echo times the ping out
	ns, allocs, n, err := timed(d, func() error {
		if err := eps[0].Send(1, msg); err != nil {
			return err
		}
		select {
		case <-pong:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("no echo within 5s")
		}
	})
	if err != nil {
		return fmt.Errorf("iso tcp: %w", err)
	}
	m.set("transport.tcp_oneway_us", ns/2/1e3, 2*n)
	m.set("transport.tcp_allocs_per_msg", allocs/2, 2*n)
	return nil
}

// isoToken is the keyed PRIVILEGE the wire micro-run carries: a 3-entry
// Q-list and the 3-node granted table of the cluster under test.
func isoToken() dme.Message {
	return wire.Wrap(core.Privilege{
		Q:       core.QList{{Node: 1, Seq: 41}, {Node: 2, Seq: 7}, {Node: 0, Seq: 12}},
		Granted: []uint64{11, 40, 6},
		Counter: 3, Epoch: 2, Gen: 97, Fence: 188,
	}, wire.WithKey("k0"))
}

// isoWire pushes the token through a BinaryCodec encoder and decoder
// sharing one buffer, and measures the exact frame sizes.
func isoWire(m *metricSet, d time.Duration) error {
	algo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		return err
	}
	var pipe bytes.Buffer
	enc := wire.BinaryCodec().NewEncoder(&pipe, algo)
	dec := wire.BinaryCodec().NewDecoder(&pipe, algo)
	size := func(msg dme.Message) (int, error) {
		if err := enc.Encode(0, msg); err != nil {
			return 0, err
		}
		n := pipe.Len()
		_, _, err := dec.Decode()
		return n, err
	}
	token := isoToken()
	privBytes, err := size(token)
	if err != nil {
		return fmt.Errorf("iso wire: %w", err)
	}
	reqBytes, err := size(wire.Wrap(core.Request{Entry: core.QEntry{Node: 1, Seq: 41}}, wire.WithKey("k0")))
	if err != nil {
		return fmt.Errorf("iso wire: %w", err)
	}
	ns, allocs, n, err := timed(d, func() error {
		if err := enc.Encode(0, token); err != nil {
			return err
		}
		_, _, err := dec.Decode()
		return err
	})
	if err != nil {
		return fmt.Errorf("iso wire: %w", err)
	}
	m.set("wire.roundtrip_ns", ns, n)
	m.set("wire.allocs_per_msg", allocs, n)
	m.set("wire.privilege_bytes", float64(privBytes), 0)
	m.set("wire.request_bytes", float64(reqBytes), 0)
	return nil
}

// isoSimKernel times the event kernel alone: schedule one event, step
// one, over a queue kept 64 deep.
func isoSimKernel(m *metricSet, d time.Duration) error {
	s := sim.New(1)
	depth := 0
	fn := func() { depth-- }
	ns, _, n, err := timed(d, func() error {
		for depth < 64 {
			s.Schedule(s.RNG().Float64(), fn)
			depth++
		}
		s.Step()
		return nil
	})
	if err != nil {
		return err
	}
	m.set("sim.event_ns", ns, n)
	return nil
}

// isoLive runs the micro-runs of the layers a live workload executes.
// each is the wall time of one micro-run.
func isoLive(each time.Duration, seed uint64) (*metricSet, error) {
	m := newMetricSet(perLayerDefs)
	for _, run := range []func() error{
		func() error { return isoSession(m, each) },
		func() error { return isoLockLocal(m, each, seed) },
		func() error { return isoIdleCPU(m, each, seed) },
		func() error { return isoTCP(m, each) },
		func() error { return isoWire(m, each) },
	} {
		if err := run(); err != nil {
			return nil, err
		}
	}
	return m, nil
}
