// Package cluster builds live clusters: N live.Managers over the
// in-memory or the loopback-TCP transport, with optional session servers
// in front, an optional fault injector and an optional flight-recorder
// capture that Close judges with reqtrace.Check. It is the one place that
// decides how a node's endpoint is wrapped. cmd/mutexload builds its
// cluster with New; tests build theirs with Start, which records and
// judges every cluster. The package does not import testing.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"sync"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/telemetry"
	"tokenarbiter/internal/transport"
)

// Config describes a cluster.
type Config struct {
	// N is the cluster size.
	N int
	// Core is the protocol every node runs; the zero value runs
	// FastRecovery.
	Core core.Options
	// Transport is "mem" (the default) or "tcp": loopback sockets on
	// ports the OS assigns.
	Transport string
	// Mem configures the in-memory network.
	Mem transport.MemOptions
	// Middleware wraps every endpoint between the counting layer and the
	// fault injector, first outermost.
	Middleware []transport.Middleware
	// Faults, when non-nil, is every node's fault injector.
	Faults *faultnet.Injector
	// Manager, when non-nil, adjusts node i's Manager config before each
	// build (a tracer, a logger).
	Manager func(i int, cfg *live.ManagerConfig)
	// Sessions fronts every node with a session server: "pipe" serves
	// the clients Dial connects over net.Pipe, "tcp" on a loopback
	// listener. "" builds none.
	Sessions string
	// Clock drives the session servers and the clients Dial connects;
	// nil is the wall clock.
	Clock session.Clock
	// Server, when non-nil, adjusts node i's session server config
	// before it is built.
	Server func(i int, cfg *session.Config)
	// Capture is the flight-recorder capture's file; "" records none.
	// Start names the capture itself (see Start).
	Capture string
	// Settle is the recovery bound Close judges the capture by
	// (reqtrace.Check); 0 turns its time rules off.
	Settle float64
}

// Fast is the protocol test clusters run: 5 ms collection and
// forwarding phases and a 250 ms retransmit, without §6 recovery.
func Fast() core.Options {
	return core.Options{Treq: 0.005, Tfwd: 0.005, RetransmitTimeout: 0.25}
}

// FastRecovery is Fast with §6 recovery tuned for a loopback network.
func FastRecovery() core.Options {
	opts := Fast()
	opts.Recovery = core.RecoveryOptions{
		Enabled:        true,
		TokenTimeout:   0.15,
		RoundTimeout:   0.05,
		ArbiterTimeout: 0.4,
		ProbeTimeout:   0.05,
	}
	return opts
}

// Cluster is a running cluster. Close tears it down.
type Cluster struct {
	// Managers[i] is node i's Manager; Restart replaces it.
	Managers []*live.Manager
	// Counters[i] counts node i's traffic into the registry its Manager
	// reports as Metrics.
	Counters []*transport.Counting
	// Servers[i] fronts Managers[i] when Config.Sessions is set.
	Servers []*session.Server
	// Network is the in-memory network; nil over TCP.
	Network *transport.MemNetwork
	// Recorder is the flight recorder every node writes; nil without a
	// capture. Mark records faults on it.
	Recorder *reqtrace.Recorder

	cfg       Config
	factory   live.Factory
	tcp       []*transport.TCPTransport
	listeners []net.Listener

	mu      sync.Mutex
	clients []*session.Client
	closed  bool
	capture *reqtrace.Capture
	verdict *reqtrace.Verdict
	err     error
}

// New builds and starts a cluster. When any part fails to build, New
// closes everything it built before it returns the error.
func New(cfg Config) (*Cluster, error) {
	if cfg.N < 1 {
		return nil, errors.New("cluster: need at least one node")
	}
	if cfg.Transport != "" && cfg.Transport != "mem" && cfg.Transport != "tcp" {
		return nil, fmt.Errorf("unknown transport %q (mem or tcp)", cfg.Transport)
	}
	if cfg.Sessions != "" && cfg.Sessions != "pipe" && cfg.Sessions != "tcp" {
		return nil, fmt.Errorf("cluster: unknown sessions %q (pipe or tcp)", cfg.Sessions)
	}
	if reflect.ValueOf(cfg.Core).IsZero() {
		cfg.Core = FastRecovery()
	}
	c := &Cluster{
		Managers: make([]*live.Manager, cfg.N),
		Counters: make([]*transport.Counting, cfg.N),
		cfg:      cfg,
		factory:  registry.CoreLiveFactory(cfg.Core),
	}
	if err := c.build(); err != nil {
		_, _ = c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Cluster) build() error {
	if c.cfg.Capture != "" {
		// The recorder seals every message it captures, so the wire types
		// must be registered even where no frame is ever encoded.
		algo, err := registry.RegisterWire(registry.Core)
		if err != nil {
			return err
		}
		if c.Recorder, err = reqtrace.CreateRecorder(c.cfg.Capture, algo, c.cfg.N); err != nil {
			return err
		}
	}
	if c.cfg.Transport == "tcp" {
		addrs := make(map[dme.NodeID]string, c.cfg.N)
		for i := 0; i < c.cfg.N; i++ {
			tr, err := transport.NewTCP(i, map[dme.NodeID]string{i: "127.0.0.1:0"})
			if err != nil {
				return fmt.Errorf("node %d: %w", i, err)
			}
			c.tcp = append(c.tcp, tr)
			addrs[i] = tr.Addr().String()
		}
		for _, tr := range c.tcp {
			tr.SetPeers(addrs)
		}
	} else {
		c.Network = transport.NewMemNetwork(c.cfg.N, c.cfg.Mem)
	}
	for i := range c.Managers {
		if err := c.start(i); err != nil {
			return err
		}
	}
	if c.cfg.Sessions == "" {
		return nil
	}
	c.Servers = make([]*session.Server, c.cfg.N)
	for i, m := range c.Managers {
		scfg := session.Config{Backend: m, Clock: c.cfg.Clock}
		if c.cfg.Server != nil {
			c.cfg.Server(i, &scfg)
		}
		srv, err := session.NewServer(scfg)
		if err != nil {
			return fmt.Errorf("node %d: session server: %w", i, err)
		}
		c.Servers[i] = srv
		if c.cfg.Sessions == "tcp" {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fmt.Errorf("node %d: session listener: %w", i, err)
			}
			c.listeners = append(c.listeners, ln)
			go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
		}
	}
	return nil
}

// start builds node i's Manager on its (reconnected) endpoint, with a
// fresh registry. The endpoint's wrapping is the one middleware order:
// the flight recorder outermost, so the capture shows what the protocol
// attempted rather than what survived the faults; the counting layer
// next; then Config.Middleware; the fault injector innermost, directly
// over the wire. The Manager's key demux sits above the whole chain.
func (c *Cluster) start(i int) error {
	var base transport.Transport
	if c.Network != nil {
		c.Network.Reconnect(i)
		base = c.Network.Endpoint(i)
	} else {
		base = c.tcp[i]
	}
	reg := telemetry.NewRegistry()
	var faults transport.Middleware
	if c.cfg.Faults != nil {
		faults = c.cfg.Faults.Middleware()
		c.cfg.Faults.RegisterMetrics(reg)
	}
	mws := append([]transport.Middleware{c.Recorder.Middleware(), transport.CountingMW(reg)}, c.cfg.Middleware...)
	tr := transport.Chain(base, append(mws, faults)...)
	mcfg := live.ManagerConfig{
		ID: i, N: c.cfg.N, Transport: tr, Factory: c.factory,
		Metrics: reg, FlightRec: c.Recorder,
	}
	if c.cfg.Manager != nil {
		c.cfg.Manager(i, &mcfg)
	}
	m, err := live.NewManager(mcfg)
	if err != nil {
		_ = tr.Close()
		return fmt.Errorf("node %d: %w", i, err)
	}
	c.Managers[i] = m
	c.Counters[i], _ = transport.Find[*transport.Counting](tr)
	return nil
}

// Restart crashes node i and brings it back amnesiac: it closes the
// node's Manager (a no-op when the caller has closed it already) and
// builds a fresh Manager, with a fresh registry, on the reconnected
// endpoint. Only the in-memory network reconnects an endpoint, and a
// session server would keep serving the old Manager, so Restart needs
// the mem transport and no sessions. Restart replaces Managers[i] and
// Counters[i]; the caller orders it with its own reads of them.
func (c *Cluster) Restart(i int) error {
	if c.Network == nil || c.Servers != nil {
		return errors.New("cluster: Restart needs the mem transport and no sessions")
	}
	_ = c.Managers[i].Close()
	return c.start(i)
}

// Dial connects a session client to node i's server. Close closes it.
func (c *Cluster) Dial(i int, opts session.Options) (*session.Client, error) {
	if opts.Clock == nil {
		opts.Clock = c.cfg.Clock
	}
	var (
		cl  *session.Client
		err error
	)
	if c.listeners != nil {
		cl, err = session.Dial(c.listeners[i].Addr().String(), opts)
	} else {
		conn, srv := net.Pipe()
		c.Servers[i].ServeConn(srv)
		cl, err = session.NewClient(conn, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("dial node %d: %w", i, err)
	}
	c.mu.Lock()
	c.clients = append(c.clients, cl)
	c.mu.Unlock()
	return cl, nil
}

// Mark records a fault (reqtrace.EvFault) or its heal (EvHeal) on the
// capture, so the checker can excuse what the fault made; key "" is
// every key.
func (c *Cluster) Mark(ev, key string) {
	c.Recorder.Record(reqtrace.Record{T: reqtrace.Now(), Ev: ev, Node: -1, Peer: -1, Key: key})
}

// Partition cuts every link between groups a and b through the
// configured injector (Config.Faults), after recording the fault on the
// capture for every key.
func (c *Cluster) Partition(a, b []int) {
	c.Mark(reqtrace.EvFault, "")
	c.cfg.Faults.Partition(a, b)
}

// Heal restores every partitioned link, then records the heal.
func (c *Cluster) Heal() {
	c.cfg.Faults.Heal()
	c.Mark(reqtrace.EvHeal, "")
}

// Close shuts the cluster down — clients, servers, Managers, then the
// network — and judges the capture, once every grant has its release or
// close on record. The verdict is nil without a capture; the error says
// why the capture could not be read back. Close is idempotent: later
// calls return the first one's results.
func (c *Cluster) Close() (*reqtrace.Verdict, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.verdict, c.err
	}
	c.closed = true
	for _, cl := range c.clients {
		_ = cl.Close()
	}
	for _, srv := range c.Servers {
		if srv != nil {
			_ = srv.Close()
		}
	}
	for _, ln := range c.listeners {
		_ = ln.Close()
	}
	for _, m := range c.Managers {
		if m != nil {
			_ = m.Close()
		}
	}
	for _, tr := range c.tcp {
		_ = tr.Close()
	}
	if c.Network != nil {
		c.Network.Close()
	}
	if c.Recorder != nil {
		c.capture, c.err = c.readCapture()
		if c.err == nil {
			c.verdict = reqtrace.Check(c.capture, c.cfg.Settle)
		}
	}
	return c.verdict, c.err
}

func (c *Cluster) readCapture() (*reqtrace.Capture, error) {
	if err := c.Recorder.Close(); err != nil {
		return nil, err
	}
	f, err := os.Open(c.cfg.Capture)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	capture, err := reqtrace.ReadCapture(f)
	if err != nil {
		return nil, fmt.Errorf("read capture %s: %w", c.cfg.Capture, err)
	}
	return capture, nil
}

// Capture is the capture Close read back and judged; nil before Close
// and without a capture.
func (c *Cluster) Capture() *reqtrace.Capture {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capture
}
