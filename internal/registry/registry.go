// Package registry is the algorithm catalog that makes the runtime
// algorithm-agnostic: it maps a name to (a) a dme.Algorithm factory for
// the simulation harness, (b) a per-node live factory for internal/live,
// and (c) the algorithm's concrete wire message types for per-algorithm
// registration in internal/wire. The paper's arbiter algorithm and
// all nine baselines are registered, so `mutexnode -algo raymond` and
// `mutexload -algo suzukikasami` run the same state machines over a real
// transport that the simulation's Figure 6 compares.
//
// The registry deliberately does not import internal/live or
// internal/transport, so both of those layers may consult it (transports
// use it to self-register wire types for their configured algorithm).
package registry

import (
	"fmt"
	"sort"
	"strings"

	"tokenarbiter/internal/baseline/central"
	"tokenarbiter/internal/baseline/lamport"
	"tokenarbiter/internal/baseline/maekawa"
	"tokenarbiter/internal/baseline/naimitrehel"
	"tokenarbiter/internal/baseline/raymond"
	"tokenarbiter/internal/baseline/ricartagrawala"
	"tokenarbiter/internal/baseline/ring"
	"tokenarbiter/internal/baseline/singhal"
	"tokenarbiter/internal/baseline/suzukikasami"
	"tokenarbiter/internal/baseline/treequorum"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/wire"
)

// Core is the registry name of the paper's arbiter algorithm.
const Core = "core"

// LiveFactory builds one node's protocol state machine for the live
// runtime. The obs callback is the live runtime's telemetry fan-out;
// factories for the core algorithm install it as core.Options.Observer,
// the baselines (which have no observer hook) ignore it. The signature
// matches live.Factory without importing internal/live.
type LiveFactory = func(id, n int, obs func(core.Event)) (dme.Node, error)

// Entry describes one registered algorithm.
type Entry struct {
	// Name is the canonical registry name, used as the wire tag and the
	// -algo flag value.
	Name string
	// Aliases are accepted alternative spellings (Lookup normalizes case
	// and punctuation on top of these).
	Aliases []string
	// Description is a one-line summary for -algo list output.
	Description string
	// Messages holds one zero-value prototype of every concrete wire
	// message the algorithm sends; RegisterWire hands them to
	// wire.RegisterAlgorithm.
	Messages []dme.Message
	// New returns a fresh dme.Algorithm configured from params (the same
	// algorithm-specific tuning map dme.Config carries).
	New func(params map[string]float64) dme.Algorithm
}

// entries is the catalog; order is the conventional presentation order
// (the paper's algorithm first, then the baselines as in Figure 6).
var entries = []*Entry{
	{
		Name:        Core,
		Aliases:     []string{"arbiter", "token-arbiter"},
		Description: "the paper's arbiter token-passing algorithm (≈3 msgs/CS at high load)",
		Messages: []dme.Message{
			core.Request{}, core.MonitorRequest{}, core.Privilege{},
			core.NewArbiter{}, core.Warning{}, core.Enquiry{},
			core.EnquiryAck{}, core.Resume{}, core.Invalidate{},
			core.Probe{}, core.ProbeAck{}, core.Disown{},
		},
		New: func(params map[string]float64) dme.Algorithm {
			return core.New(coreOptions(params))
		},
	},
	{
		Name:        "central",
		Aliases:     []string{"centralized", "coordinator"},
		Description: "centralized coordinator (3 msgs/CS; sanity anchor)",
		Messages:    []dme.Message{central.Request{}, central.Grant{}, central.Release{}},
		New: func(map[string]float64) dme.Algorithm {
			return &central.Algorithm{}
		},
	},
	{
		Name:        "lamport",
		Description: "Lamport timestamp queue (3(N−1) msgs/CS; needs FIFO channels)",
		Messages:    []dme.Message{lamport.Request{}, lamport.Ack{}, lamport.Release{}},
		New: func(map[string]float64) dme.Algorithm {
			return &lamport.Algorithm{}
		},
	},
	{
		Name:        "maekawa",
		Description: "Maekawa grid quorums (≈6√N msgs/CS with deadlock avoidance)",
		Messages: []dme.Message{
			maekawa.Request{}, maekawa.Grant{}, maekawa.Release{},
			maekawa.Inquire{}, maekawa.Relinquish{}, maekawa.Failed{},
		},
		New: func(map[string]float64) dme.Algorithm {
			return &maekawa.Algorithm{}
		},
	},
	{
		Name:        "naimitrehel",
		Aliases:     []string{"naimi-trehel"},
		Description: "Naimi-Trehel dynamic tree token (O(log N) msgs/CS)",
		Messages:    []dme.Message{naimitrehel.Request{}, naimitrehel.Token{}},
		New: func(map[string]float64) dme.Algorithm {
			return &naimitrehel.Algorithm{}
		},
	},
	{
		Name:        "raymond",
		Description: "Raymond static tree token (≈4 msgs/CS at heavy load)",
		Messages:    []dme.Message{raymond.Request{}, raymond.Token{}},
		New: func(map[string]float64) dme.Algorithm {
			return &raymond.Algorithm{}
		},
	},
	{
		Name:        "ricartagrawala",
		Aliases:     []string{"ricart-agrawala", "ra"},
		Description: "Ricart-Agrawala broadcast (2(N−1) msgs/CS)",
		Messages:    []dme.Message{ricartagrawala.Request{}, ricartagrawala.Reply{}},
		New: func(map[string]float64) dme.Algorithm {
			return &ricartagrawala.Algorithm{}
		},
	},
	{
		Name:        "ring",
		Aliases:     []string{"token-ring"},
		Description: "parking token ring (1 msg/CS at saturation)",
		Messages:    []dme.Message{ring.Token{}, ring.Wake{}},
		New: func(map[string]float64) dme.Algorithm {
			return &ring.Algorithm{}
		},
	},
	{
		Name:        "singhal",
		Aliases:     []string{"singhal-dynamic"},
		Description: "Singhal dynamic information structure (≈N/2 msgs/CS at light load)",
		Messages:    []dme.Message{singhal.Request{}, singhal.Reply{}},
		New: func(map[string]float64) dme.Algorithm {
			return &singhal.Algorithm{}
		},
	},
	{
		Name:        "suzukikasami",
		Aliases:     []string{"suzuki-kasami", "sk"},
		Description: "Suzuki-Kasami broadcast token (N msgs/CS)",
		Messages:    []dme.Message{suzukikasami.Request{}, suzukikasami.Token{}},
		New: func(map[string]float64) dme.Algorithm {
			return &suzukikasami.Algorithm{}
		},
	},
	{
		Name:        "treequorum",
		Aliases:     []string{"tree-quorum"},
		Description: "Agrawal–El Abbadi tree quorums (O(log N) msgs/CS uncontended)",
		Messages:    []dme.Message{treequorum.Request{}, treequorum.Grant{}, treequorum.Release{}},
		New: func(map[string]float64) dme.Algorithm {
			return &treequorum.Algorithm{}
		},
	},
}

// coreOptions maps the generic params to core.Options; the zero phase
// durations fall back to core's defaults in Normalize.
func coreOptions(params map[string]float64) core.Options {
	opts := core.Options{}
	if v, ok := params["treq"]; ok {
		opts.Treq = v
	}
	if v, ok := params["tfwd"]; ok {
		opts.Tfwd = v
	}
	return opts
}

// canon normalizes a user-supplied algorithm name: lowercase with '-',
// '_' and '+' stripped, so "Suzuki-Kasami" and "suzukikasami" match.
func canon(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '-', '_', '+', ' ':
			return -1
		}
		return r
	}, strings.ToLower(name))
}

// Names returns the canonical algorithm names, sorted.
func Names() []string {
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// Entries returns the catalog in presentation order (core first).
func Entries() []*Entry { return entries }

// Lookup resolves a name or alias (case- and punctuation-insensitive).
func Lookup(name string) (*Entry, bool) {
	want := canon(name)
	for _, e := range entries {
		if canon(e.Name) == want {
			return e, true
		}
		for _, a := range e.Aliases {
			if canon(a) == want {
				return e, true
			}
		}
	}
	return nil, false
}

// RegisterWire registers the named algorithm's message types for wire
// encoding under its canonical name and returns that name (the tag a
// transport must stamp on its envelopes). Idempotent.
func RegisterWire(name string) (string, error) {
	e, ok := Lookup(name)
	if !ok {
		return "", fmt.Errorf("registry: unknown algorithm %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	wire.RegisterAlgorithm(e.Name, e.Messages...)
	return e.Name, nil
}

// CoreLiveFactory returns a live factory for the paper's arbiter
// algorithm with full core.Options control (monitor variant, recovery,
// retransmission — tuning the generic params map cannot express). The
// live runtime's observer fan-out composes with any Observer already set
// in opts rather than displacing it.
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

// NewLiveFactory returns a live factory for the named algorithm. For the
// core algorithm it is CoreLiveFactory over params-derived options; for
// the baselines it builds the full N-node set via the algorithm's
// deterministic Build and returns node id's state machine (Build is cheap
// and pure state, so every process reconstructs an identical cluster
// layout — quorums, tree shapes — from the same inputs).
func NewLiveFactory(name string, params map[string]float64) (LiveFactory, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown algorithm %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	if e.Name == Core {
		return CoreLiveFactory(coreOptions(params)), nil
	}
	return func(id, n int, _ func(core.Event)) (dme.Node, error) {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("registry: node id %d outside [0,%d)", id, n)
		}
		nodes, err := e.New(params).Build(dme.Config{N: n, Params: params})
		if err != nil {
			return nil, err
		}
		if len(nodes) != n {
			return nil, fmt.Errorf("registry: %s built %d nodes, want %d", e.Name, len(nodes), n)
		}
		return nodes[id], nil
	}, nil
}
