package wire

import "tokenarbiter/internal/dme"

// This file is the only sanctioned way to attach transport metadata —
// the lock key of a multiplexed group and the end-to-end trace id — to a
// protocol message. Callers above the wire (the live Manager and its
// per-key engines, tracing middleware) use Wrap and the Split/Unwrap
// accessors; the Keyed and Traced structs themselves are an internal
// representation whose nesting order (Keyed outside Traced) is this
// package's business, and constructing them directly outside
// internal/wire is deprecated (enforced by a grep check in CI).

// WrapOption configures Wrap: one tag, set by WithKey or WithTrace. It
// is a plain value so that Wrap's option loop moves nothing to the heap.
type WrapOption struct {
	key      string
	hasKey   bool
	trace    uint64
	hasTrace bool
}

// WithKey tags the message with the lock key of the DME group it belongs
// to. The empty key is no key (the frame carries no key field), so
// WithKey("") removes an existing key tag.
func WithKey(key string) WrapOption {
	return WrapOption{key: key, hasKey: true}
}

// WithTrace tags the message with the end-to-end trace id of the request
// it serves. Zero means untraced, so WithTrace(0) removes an existing
// trace tag.
func WithTrace(trace uint64) WrapOption {
	return WrapOption{trace: trace, hasTrace: true}
}

// Wrap attaches transport metadata to a protocol message, producing the
// canonical wrapper nesting the codecs expect regardless of the order
// the layers applied their tags. A message that is already wrapped is
// re-wrapped: existing tags are preserved unless the corresponding
// option overrides them, so a layer can add a trace to a message that
// is already keyed (and vice versa) without either layer knowing about
// the other; a key's engine sets both in one call. Zero-valued tags add
// no wrapper at all — Wrap(msg) returns msg unchanged.
func Wrap(msg dme.Message, opts ...WrapOption) dme.Message {
	inner, key, trace := Unwrap(msg)
	for _, o := range opts {
		if o.hasKey {
			key = o.key
		}
		if o.hasTrace {
			trace = o.trace
		}
	}
	if inner == nil {
		return nil
	}
	if trace != 0 {
		inner = Traced{Trace: trace, Msg: inner}
	}
	if key != "" {
		inner = Keyed{Key: key, Msg: inner}
	}
	return inner
}

// Unwrap strips every transport wrapper from msg, returning the bare
// protocol message together with its lock key ("" when unkeyed) and
// trace id (0 when untraced). It tolerates wrappers in any order or
// multiplicity — the innermost tag of each kind wins — so it is safe on
// messages from code paths that have not been migrated to Wrap.
func Unwrap(msg dme.Message) (inner dme.Message, key string, trace uint64) {
	for {
		switch m := msg.(type) {
		case Keyed:
			key = m.Key
			msg = m.Msg
		case Traced:
			trace = m.Trace
			msg = m.Msg
		default:
			return msg, key, trace
		}
		if msg == nil {
			return nil, key, trace
		}
	}
}

// SplitKey removes the key tag, if any, returning the message one layer
// in — which may still carry a trace tag — and the key. It is the demux
// half of Wrap(msg, WithKey(key)): the Manager routes on the key and
// hands the still-traced message to the key's engine.
func SplitKey(msg dme.Message) (dme.Message, string) {
	if k, ok := msg.(Keyed); ok {
		return k.Msg, k.Key
	}
	return msg, ""
}

// SplitTrace removes the trace tag, if any, returning the message one
// layer in and the trace id. It is the receive half of
// Wrap(msg, WithTrace(id)): the live node recovers the trace context and
// delivers the bare protocol message to the algorithm.
func SplitTrace(msg dme.Message) (dme.Message, uint64) {
	if t, ok := msg.(Traced); ok {
		return t.Msg, t.Trace
	}
	return msg, 0
}
