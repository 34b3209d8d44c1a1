// Package transport defines the message transport abstraction used by the
// live runtime (internal/live), with two implementations: an in-process
// channel-based network (chanmem.go) for tests, examples and single-
// process deployments, and a TCP network (tcp.go) for real clusters.
//
// Cross-cutting layers compose over any base transport through the
// Middleware API (middleware.go): Chain stacks decorators such as the
// traffic-counting layer (CountingMW) or internal/faultnet's fault
// injector over an endpoint, and Find recovers a typed layer from the
// chain. See Middleware for the composition-order contract.
package transport

import "tokenarbiter/internal/dme"

// Handler receives inbound messages. Implementations of Transport invoke
// it from their receive goroutines; it must be safe for concurrent calls.
//
// Reentrancy contract: the live runtime dispatches protocol steps inline,
// so a Handler call may run arbitrary protocol code — including granting
// a Lock and waking its caller — on the invoking goroutine before
// returning. Two obligations follow. For transports and middleware:
// do not invoke the handler while holding locks the next layer might
// need, and do not assume the call returns quickly enough to sit inside
// a per-connection critical section (deliver outside your locks, as the
// TCP read loop and the in-memory network do). For handler
// implementations: a handler that can block indefinitely stalls that
// peer's receive stream, so long waits belong on another goroutine.
type Handler func(from dme.NodeID, msg dme.Message)

// Transport moves protocol messages between nodes. Implementations must
// be safe for concurrent Send calls. Delivery is best-effort: the arbiter
// protocol tolerates loss by design (§6 of the paper), so transports drop
// rather than block when a peer is unreachable.
type Transport interface {
	// Self returns the node id this endpoint sends as.
	Self() dme.NodeID
	// Send transmits msg to the given node. Sending to self is allowed
	// and loops back through the handler.
	Send(to dme.NodeID, msg dme.Message) error
	// SetHandler installs the inbound message callback. It must be
	// called exactly once, before any message can be delivered.
	SetHandler(h Handler)
	// Close releases the endpoint's resources and stops delivery.
	Close() error
}
