package transport

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"tokenarbiter/internal/dme"
)

// MemOptions configures the in-memory network's latency and ordering
// model. It injects no faults: wrap the endpoints in a faultnet.Injector
// for loss, duplication and partitions.
type MemOptions struct {
	// Delay is the base one-way latency applied to every message.
	Delay time.Duration
	// Jitter adds a uniform random extra latency in [0, Jitter).
	Jitter time.Duration
	// Seed seeds the jitter randomness.
	Seed uint64
	// FIFO forces per-(sender, receiver) in-order delivery, emulating
	// TCP-like channels — the live counterpart of dme.Config.FIFO.
	// Lamport's algorithm requires it; token algorithms merely benefit.
	// Without it, messages race through independent timers/goroutines
	// and may reorder even at equal delays.
	FIFO bool
}

// MemNetwork is an in-process network of N endpoints connected by
// goroutine timers. It implements the latency model of MemOptions and
// supports disconnecting endpoints to simulate crashes/partitions.
type MemNetwork struct {
	opts MemOptions

	mu           sync.Mutex
	rng          *rand.Rand
	endpoints    []*MemEndpoint
	disconnected []bool
	closed       bool
	pairs        map[pairKey]*pairQueue // per-ordered-pair FIFO queues
}

// pairKey identifies one ordered (sender, receiver) channel.
type pairKey struct {
	from, to dme.NodeID
}

// pairQueue is the in-order delivery queue of one ordered pair; a single
// drain goroutine per pair preserves send order regardless of delay.
type pairQueue struct {
	q       []memPending
	running bool
}

type memPending struct {
	from dme.NodeID
	msg  dme.Message
	due  time.Time
}

// NewMemNetwork builds a network of n endpoints.
func NewMemNetwork(n int, opts MemOptions) *MemNetwork {
	net := &MemNetwork{
		opts:         opts,
		rng:          rand.New(rand.NewPCG(opts.Seed, opts.Seed^0xabcdef123456)),
		disconnected: make([]bool, n),
		pairs:        make(map[pairKey]*pairQueue),
	}
	net.endpoints = make([]*MemEndpoint, n)
	for i := 0; i < n; i++ {
		net.endpoints[i] = &MemEndpoint{net: net, self: i}
	}
	return net
}

// Endpoint returns node i's transport.
func (m *MemNetwork) Endpoint(i dme.NodeID) *MemEndpoint { return m.endpoints[i] }

// Disconnect simulates a crash or partition of node i: messages to and
// from it are silently dropped until Reconnect.
func (m *MemNetwork) Disconnect(i dme.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.disconnected[i] = true
}

// Reconnect restores node i's connectivity.
func (m *MemNetwork) Reconnect(i dme.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.disconnected[i] = false
}

// Close shuts the whole network down; in-flight messages are discarded.
func (m *MemNetwork) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
}

func (m *MemNetwork) send(from, to dme.NodeID, msg dme.Message) error {
	if to < 0 || to >= len(m.endpoints) {
		return fmt.Errorf("chanmem: send to unknown node %d", to)
	}
	m.mu.Lock()
	if m.closed || m.disconnected[from] || m.disconnected[to] {
		m.mu.Unlock()
		return nil // best-effort semantics: unreachable peers drop
	}
	d := m.opts.Delay
	if m.opts.Jitter > 0 {
		d += time.Duration(m.rng.Int64N(int64(m.opts.Jitter)))
	}
	if m.opts.FIFO {
		pq := m.pairs[pairKey{from, to}]
		if pq == nil {
			pq = &pairQueue{}
			m.pairs[pairKey{from, to}] = pq
		}
		pq.q = append(pq.q, memPending{from: from, msg: msg, due: time.Now().Add(d)})
		if !pq.running {
			pq.running = true
			go m.drainPair(pairKey{from, to})
		}
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()

	m.deliverAfter(d, from, to, msg)
	return nil
}

// drainPair delivers one ordered pair's queue in send order, sleeping
// each message's remaining delay before handing it to the endpoint.
func (m *MemNetwork) drainPair(key pairKey) {
	for {
		m.mu.Lock()
		pq := m.pairs[key]
		if len(pq.q) == 0 {
			pq.running = false
			m.mu.Unlock()
			return
		}
		item := pq.q[0]
		pq.q = pq.q[1:]
		m.mu.Unlock()
		if d := time.Until(item.due); d > 0 {
			time.Sleep(d)
		}
		m.deliverNow(item.from, key.to, item.msg)
	}
}

// deliverNow hands msg to the destination endpoint if it is reachable.
func (m *MemNetwork) deliverNow(from, to dme.NodeID, msg dme.Message) {
	m.mu.Lock()
	if m.closed || m.disconnected[to] {
		m.mu.Unlock()
		return
	}
	ep := m.endpoints[to]
	m.mu.Unlock()

	ep.hmu.RLock()
	h := ep.handler
	ep.hmu.RUnlock()
	if h != nil {
		// Invoked with no network locks held: the receiver's protocol
		// step may run to completion inside this call (see Handler's
		// reentrancy contract), including re-entering the network with
		// sends of its own.
		h(from, msg)
	}
}

func (m *MemNetwork) deliverAfter(d time.Duration, from, to dme.NodeID, msg dme.Message) {
	if d <= 0 {
		go m.deliverNow(from, to, msg)
		return
	}
	time.AfterFunc(d, func() { m.deliverNow(from, to, msg) })
}

// MemEndpoint is one node's view of a MemNetwork.
type MemEndpoint struct {
	net  *MemNetwork
	self dme.NodeID

	hmu     sync.RWMutex
	handler Handler
}

var _ Transport = (*MemEndpoint)(nil)

// Self implements Transport.
func (e *MemEndpoint) Self() dme.NodeID { return e.self }

// Send implements Transport.
func (e *MemEndpoint) Send(to dme.NodeID, msg dme.Message) error {
	return e.net.send(e.self, to, msg)
}

// SetHandler implements Transport.
func (e *MemEndpoint) SetHandler(h Handler) {
	e.hmu.Lock()
	defer e.hmu.Unlock()
	e.handler = h
}

// Close implements Transport: it disconnects this endpoint only.
func (e *MemEndpoint) Close() error {
	e.net.Disconnect(e.self)
	return nil
}
