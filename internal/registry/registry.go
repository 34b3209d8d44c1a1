// Package registry is the live runtime's construction seam for the
// paper's arbiter algorithm: the per-node live factory internal/live
// builds every lock's engine from, and the registration of core's wire
// message family. Core is the one algorithm the live path runs — the only
// one that grants fences and recovers a lost token (§6). The baselines
// are compared with it in the simulator (Figure 6, E4), which builds them
// directly.
//
// The registry deliberately does not import internal/live or
// internal/transport, so both of those layers may consult it (transports
// use it to self-register core's wire types).
package registry

import (
	"fmt"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/wire"
)

// Core is the registry name of the paper's arbiter algorithm, and the
// algorithm tag of its wire frames.
const Core = "core"

// LiveFactory builds one node's protocol state machine for the live
// runtime. The obs callback is the live runtime's telemetry fan-out,
// installed as core.Options.Observer. The signature matches live.Factory
// without importing internal/live.
type LiveFactory = func(id, n int, obs func(core.Event)) (dme.Node, error)

// RegisterWire registers core's message types for wire encoding and
// returns Core, the tag a transport must stamp on its frames. Any other
// name is an error: the live runtime runs only core. Idempotent.
func RegisterWire(name string) (string, error) {
	if name != Core {
		return "", fmt.Errorf("registry: unknown algorithm %q: the live runtime runs only %q", name, Core)
	}
	wire.RegisterAlgorithm(Core, core.Messages()...)
	return Core, nil
}

// CoreLiveFactory returns a live factory for the paper's arbiter
// algorithm with full core.Options control (monitor variant, recovery,
// retransmission). The live runtime's observer fan-out composes with any
// Observer already set in opts rather than displacing it.
//
// Every live node runs the adaptive collection window
// (core.Options.AdaptiveWindow): this is the one construction path that
// mutexnode, mutexload, the session tests, the benchmark and `mutexsim
// replay` share, so a capture replays under the rule that produced it.
// Only the simulator still runs the paper's fixed window.
func CoreLiveFactory(opts core.Options) LiveFactory {
	return func(id, n int, obs func(core.Event)) (dme.Node, error) {
		o := opts
		o.AdaptiveWindow = true
		switch {
		case o.Observer == nil:
			o.Observer = obs
		case obs != nil:
			o.Observer = core.FanOut(obs, o.Observer)
		}
		return core.NewNode(id, n, o)
	}
}
