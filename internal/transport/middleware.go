package transport

import "tokenarbiter/internal/telemetry"

// Middleware decorates a Transport with an orthogonal concern — traffic
// counting, fault injection, tracing — without the decorated layer or the
// protocol code knowing about each other. A middleware receives the next
// transport down the stack and returns the wrapped one.
//
// # Composition order
//
// Chain applies middlewares so that the FIRST middleware listed is the
// OUTERMOST layer — the one the application (live.Manager) talks to:
//
//	tr := transport.Chain(base, CountingMW(reg), fault.Middleware())
//
// builds Counting(Fault(base)). The order contract:
//
//   - Outbound (Send): messages pass through middlewares first-to-last
//     before reaching the base transport. In the example, Counting sees
//     (and counts) every message the protocol attempted to send, then
//     Fault decides its fate — exactly like a real NIC counter above a
//     lossy wire.
//   - Inbound (handler): deliveries climb the stack last-to-first, so
//     Fault-side effects happen below Counting and the application's
//     handler runs last.
//
// Put observability layers first (outermost) so they measure the
// protocol's view of the traffic; put fault/transform layers last
// (innermost, closest to the wire) so their effects are indistinguishable
// from network behavior.
type Middleware func(Transport) Transport

// Chain wraps base in the given middlewares, first middleware outermost
// (see Middleware for the full order contract). Nil middlewares are
// skipped; Chain(base) returns base unchanged.
func Chain(base Transport, mws ...Middleware) Transport {
	t := base
	for i := len(mws) - 1; i >= 0; i-- {
		if mws[i] == nil {
			continue
		}
		t = mws[i](t)
	}
	return t
}

// Wrapper is implemented by middleware transports that decorate another
// Transport; Unwrap exposes the next layer down so Find can walk a chain.
type Wrapper interface {
	Unwrap() Transport
}

// Find walks a middleware chain outermost-to-innermost and returns the
// first layer of concrete type T — how a caller holding only the chained
// Transport recovers a typed layer (the *Counting for its totals, the
// *TCPTransport for its wire-error counters):
//
//	ct, ok := transport.Find[*transport.Counting](tr)
func Find[T any](t Transport) (T, bool) {
	for t != nil {
		if v, ok := t.(T); ok {
			return v, true
		}
		w, ok := t.(Wrapper)
		if !ok {
			break
		}
		t = w.Unwrap()
	}
	var zero T
	return zero, false
}

// CountingMW is the counting layer as a Middleware, keeping its tallies
// in reg (nil: a private registry; see NewCountingIn). Recover the
// concrete *Counting from the chain with Find to read its totals.
func CountingMW(reg *telemetry.Registry) Middleware {
	return func(t Transport) Transport { return NewCountingIn(t, reg) }
}
