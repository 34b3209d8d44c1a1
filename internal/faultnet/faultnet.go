// Package faultnet is the one fault model of the simulator and the live
// runtime: a deterministic, seedable injector that subjects every
// message between two nodes to drop, duplication, delay, reordering and
// byte-corruption probabilities, plus partitions that heal on a schedule
// or by command, and one-shot targeted drops ("lose the next PRIVILEGE")
// for scripted recovery scenarios. Intercept decides each message's
// fate: the simulator applies it as its dme.Config.Fault (a simulated
// partition is Partition and Heal from dme.Runner.ScheduleAt), the live
// runtime through Middleware.
//
// One Injector is shared by every endpoint it wraps, so a single object
// controls the whole fault surface of an in-process cluster (and one per
// process controls a TCP node's outbound links). Faults are applied on
// the send side: each directional link is governed by its sender's
// injector. All randomness flows from Options.Seed, so a chaos run
// replays exactly given the same seed and message order.
//
// Corruption is modeled at the wire layer: the message is framed the way
// a real connection would carry it and the frame body damaged. The
// failed re-decode surfaces through Options.OnFault as a
// *wire.DecodeError — the same typed error a real corrupted TCP frame
// produces — and the message is dropped. Garbage never reaches protocol
// state.
//
// Wire the injector into a node with Chain, innermost so counters above
// it see the protocol's attempted traffic (see transport.Middleware):
//
//	inj := faultnet.New(faultnet.Options{Seed: 7, Faults: f})
//	tr := transport.Chain(base, transport.CountingMW(reg), inj.Middleware())
//	inj.RegisterMetrics(reg) // faultnet_* counters on /metrics
package faultnet

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/telemetry"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

// Faults is the fault model of every link. Probabilities are
// independent per message; the zero value injects nothing.
type Faults struct {
	// Drop is the probability a message is silently discarded.
	Drop float64 `json:"drop"`
	// Dup is the probability a message is delivered twice.
	Dup float64 `json:"dup"`
	// Corrupt is the probability a message's wire payload is damaged; a
	// corrupted message surfaces as *wire.DecodeError and is dropped.
	Corrupt float64 `json:"corrupt"`
	// Delay is a fixed extra one-way latency added to every message.
	Delay time.Duration `json:"delay"`
	// Jitter adds a uniform random extra latency in [0, Jitter).
	Jitter time.Duration `json:"jitter"`
	// Reorder is the probability a message is held back an extra
	// ReorderWindow, letting messages sent after it overtake.
	Reorder float64 `json:"reorder"`
	// ReorderWindow is the hold-back duration for reordered messages;
	// zero with Reorder > 0 defaults to DefaultReorderWindow.
	ReorderWindow time.Duration `json:"reorder_window"`
}

// DefaultReorderWindow is the reorder hold-back when Faults.ReorderWindow
// is unset.
const DefaultReorderWindow = 5 * time.Millisecond

// active reports whether this fault model can affect a message at all.
func (f Faults) active() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Corrupt > 0 ||
		f.Delay > 0 || f.Jitter > 0 || f.Reorder > 0
}

// Validate rejects probabilities outside [0, 1] and negative durations.
func (f Faults) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", f.Drop}, {"dup", f.Dup}, {"corrupt", f.Corrupt}, {"reorder", f.Reorder}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faultnet: %s=%v outside [0,1]", p.name, p.v)
		}
	}
	if f.Delay < 0 || f.Jitter < 0 || f.ReorderWindow < 0 {
		return fmt.Errorf("faultnet: negative duration (delay=%v jitter=%v window=%v)",
			f.Delay, f.Jitter, f.ReorderWindow)
	}
	return nil
}

// Options configures an Injector.
type Options struct {
	// Seed seeds all fault randomness; runs with the same seed and the
	// same message order replay identically.
	Seed uint64
	// Faults is the fault model applied to every link.
	Faults Faults
	// OnFault, when non-nil, receives the *wire.DecodeError produced by
	// each injected corruption. Called from Intercept, on the sender's
	// path; must be safe for concurrent use.
	OnFault func(error)
}

// link is one ordered (from, to) pair.
type link struct{ From, To int }

// Injector is the shared fault state for a set of wrapped endpoints. All
// methods are safe for concurrent use.
type Injector struct {
	onFault func(error)

	mu        sync.Mutex
	rng       *rand.Rand
	faults    Faults
	blocked   map[link]bool
	oneShot   map[string]int // message kind → remaining forced drops
	healTimer *time.Timer

	drops          atomic.Uint64
	dups           atomic.Uint64
	corruptions    atomic.Uint64
	delayed        atomic.Uint64
	reordered      atomic.Uint64
	partitionDrops atomic.Uint64
	partitionsMade atomic.Uint64
	healsMade      atomic.Uint64
}

// New builds an injector. Invalid fault probabilities panic — they are
// programming errors at this level; ParseFaults validates user input.
func New(opts Options) *Injector {
	if err := opts.Faults.Validate(); err != nil {
		panic(err)
	}
	// Corruption frames messages in core's wire family (see corrupt);
	// registering core cannot fail.
	_, _ = registry.RegisterWire(registry.Core)
	return &Injector{
		onFault: opts.OnFault,
		rng:     rand.New(rand.NewPCG(opts.Seed, opts.Seed^0x9e3779b97f4a7c15)),
		faults:  opts.Faults,
		blocked: make(map[link]bool),
		oneShot: make(map[string]int),
	}
}

// Middleware returns the transport middleware applying this injector's
// faults to the wrapped endpoint's outbound messages. Wrap every endpoint
// of an in-process cluster with the same injector; in a TCP cluster each
// process wraps its own endpoint and the injector governs that node's
// outbound links only.
func (inj *Injector) Middleware() transport.Middleware {
	return func(next transport.Transport) transport.Transport {
		return &endpoint{inj: inj, next: next}
	}
}

// SetFaults replaces the fault model at runtime.
func (inj *Injector) SetFaults(f Faults) error {
	if err := f.Validate(); err != nil {
		return err
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.faults = f
	return nil
}

// Faults returns the current fault model.
func (inj *Injector) Faults() Faults {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.faults
}

// Partition blocks every link between the two groups, both directions,
// leaving intra-group traffic untouched. It composes with earlier
// partitions; Heal clears them all.
func (inj *Injector) Partition(a, b []int) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			inj.blocked[link{x, y}] = true
			inj.blocked[link{y, x}] = true
		}
	}
	inj.partitionsMade.Add(1)
}

// PartitionFor is Partition with a scheduled Heal after d. A second
// scheduled heal supersedes the first.
func (inj *Injector) PartitionFor(a, b []int, d time.Duration) {
	inj.Partition(a, b)
	inj.mu.Lock()
	if inj.healTimer != nil {
		inj.healTimer.Stop()
	}
	inj.healTimer = time.AfterFunc(d, inj.Heal)
	inj.mu.Unlock()
}

// Heal removes every blocked link.
func (inj *Injector) Heal() {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if len(inj.blocked) == 0 {
		return
	}
	inj.blocked = make(map[link]bool)
	if inj.healTimer != nil {
		inj.healTimer.Stop()
		inj.healTimer = nil
	}
	inj.healsMade.Add(1)
}

// DropNextKind forces the next k messages whose Kind() equals kind to be
// dropped, on any link — the deterministic "lose the token now" control
// recovery tests use. Counts accumulate across calls.
func (inj *Injector) DropNextKind(kind string, k int) {
	if k <= 0 {
		return
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.oneShot[kind] += k
}

// Counters is a snapshot of the injector's fault tallies.
type Counters struct {
	Drops          uint64 `json:"drops"`
	Dups           uint64 `json:"dups"`
	Corruptions    uint64 `json:"corruptions"`
	Delayed        uint64 `json:"delayed"`
	Reordered      uint64 `json:"reordered"`
	PartitionDrops uint64 `json:"partition_drops"`
	Partitions     uint64 `json:"partitions"`
	Heals          uint64 `json:"heals"`
}

// Counters returns the current fault tallies.
func (inj *Injector) Counters() Counters {
	return Counters{
		Drops:          inj.drops.Load(),
		Dups:           inj.dups.Load(),
		Corruptions:    inj.corruptions.Load(),
		Delayed:        inj.delayed.Load(),
		Reordered:      inj.reordered.Load(),
		PartitionDrops: inj.partitionDrops.Load(),
		Partitions:     inj.partitionsMade.Load(),
		Heals:          inj.healsMade.Load(),
	}
}

// BlockedLinks returns the currently blocked directional links, sorted.
func (inj *Injector) BlockedLinks() [][2]int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([][2]int, 0, len(inj.blocked))
	for l := range inj.blocked {
		out = append(out, [2]int{l.From, l.To})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// RegisterMetrics publishes the injector's tallies into reg as
// faultnet_* counters, joining the protocol and transport metrics on the
// same /metrics endpoint so chaos runs are observable live.
func (inj *Injector) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("faultnet_injected_drops_total",
		"messages dropped by the fault injector (random and forced)", inj.drops.Load)
	reg.CounterFunc("faultnet_injected_dups_total",
		"messages duplicated by the fault injector", inj.dups.Load)
	reg.CounterFunc("faultnet_injected_corruptions_total",
		"messages byte-corrupted (surfaced as wire decode errors) and dropped", inj.corruptions.Load)
	reg.CounterFunc("faultnet_injected_delays_total",
		"messages given extra injected latency", inj.delayed.Load)
	reg.CounterFunc("faultnet_injected_reorders_total",
		"messages held back to force reordering", inj.reordered.Load)
	reg.CounterFunc("faultnet_partition_drops_total",
		"messages dropped on blocked (partitioned) links", inj.partitionDrops.Load)
	reg.CounterFunc("faultnet_partitions_total",
		"partitions established", inj.partitionsMade.Load)
	reg.CounterFunc("faultnet_heals_total",
		"partition heals (scheduled or commanded)", inj.healsMade.Load)
}

// Intercept decides one message's fate from the injector's partitions,
// one-shot drops and fault model, under its lock so the rng stays
// deterministic under concurrent senders. It is a dme.Interceptor, the
// one decision both carriers apply (see the package comment). now is
// not read: faults change only by the caller's commands. A corrupted
// message is a Drop whose *wire.DecodeError Intercept reports through
// Options.OnFault, after it has released the lock.
func (inj *Injector) Intercept(_ float64, from, to dme.NodeID, msg dme.Message) (fate dme.FaultAction) {
	corrupted := false
	defer func() {
		if corrupted {
			inj.corrupt(from, msg)
		}
	}()
	kind := msg.Kind()
	inj.mu.Lock()
	defer inj.mu.Unlock()

	if inj.blocked[link{from, to}] {
		inj.partitionDrops.Add(1)
		return dme.Drop
	}
	if k := inj.oneShot[kind]; k > 0 {
		if k == 1 {
			delete(inj.oneShot, kind)
		} else {
			inj.oneShot[kind] = k - 1
		}
		inj.drops.Add(1)
		return dme.Drop
	}
	f := inj.faults
	if !f.active() {
		return dme.Deliver
	}
	if f.Drop > 0 && inj.rng.Float64() < f.Drop {
		inj.drops.Add(1)
		return dme.Drop
	}
	if f.Corrupt > 0 && inj.rng.Float64() < f.Corrupt {
		inj.corruptions.Add(1)
		corrupted = true
		return dme.Drop
	}
	fate = dme.Deliver
	if f.Dup > 0 && inj.rng.Float64() < f.Dup {
		fate = dme.Duplicate
		inj.dups.Add(1)
	}
	for i := range fate.Delay[:fate.Copies] {
		delay := f.Delay
		if f.Jitter > 0 {
			delay += time.Duration(inj.rng.Int64N(int64(f.Jitter)))
		}
		if f.Reorder > 0 && inj.rng.Float64() < f.Reorder {
			w := f.ReorderWindow
			if w <= 0 {
				w = DefaultReorderWindow
			}
			delay += w
			inj.reordered.Add(1)
		}
		fate.Delay[i] = delay.Seconds()
		if delay > 0 {
			inj.delayed.Add(1)
		}
	}
	return fate
}

// corrupt frames msg the way the wire would, damages the frame, and
// reproduces the typed error a real corrupted frame yields at the
// receiver. The message is dropped either way. Frames are core's: it is
// the one algorithm the live path runs.
//
// The damage is what a broken link inflicts: the body truncated to half
// and its last byte flipped. A real receiver reads a whole frame before
// looking inside it, so the per-message failure mode is an in-body
// decode error, not a broken stream.
func (inj *Injector) corrupt(from int, msg dme.Message) {
	if inj.onFault == nil {
		return // nothing to surface to
	}
	generic := func(err error) {
		inj.onFault(&wire.DecodeError{
			From: from, Algo: registry.Core, Kind: msg.Kind(),
			Err: fmt.Errorf("faultnet: injected corruption: %w", err),
		})
	}
	var buf bytes.Buffer
	if err := wire.BinaryCodec().NewEncoder(&buf, registry.Core).Encode(from, msg); err != nil {
		generic(err)
		return
	}
	body := buf.Bytes()[wire.PrefixLen:]
	body = body[:(len(body)+1)/2]
	body[len(body)-1] ^= 0xa5
	_, _, err := wire.BinaryCodec().NewDecoder(nil, registry.Core).DecodeBody(body)
	var de *wire.DecodeError
	if errors.As(err, &de) {
		inj.onFault(err)
		return
	}
	// Vanishingly unlikely: the damaged frame still decoded (or failed
	// some other way). The message is dropped regardless; report the
	// corruption generically.
	generic(errors.New("frame survived damage"))
}

// endpoint is the per-transport middleware layer.
type endpoint struct {
	inj  *Injector
	next transport.Transport
}

var _ transport.Transport = (*endpoint)(nil)
var _ transport.Wrapper = (*endpoint)(nil)

// Self implements transport.Transport.
func (e *endpoint) Self() dme.NodeID { return e.next.Self() }

// SetHandler implements transport.Transport; faults are send-side, so
// delivery passes straight through.
func (e *endpoint) SetHandler(h transport.Handler) { e.next.SetHandler(h) }

// Close implements transport.Transport.
func (e *endpoint) Close() error { return e.next.Close() }

// Unwrap implements transport.Wrapper.
func (e *endpoint) Unwrap() transport.Transport { return e.next }

// Send implements transport.Transport, applying the fate Intercept
// decides. Self-sends are not a network link and pass through untouched.
func (e *endpoint) Send(to dme.NodeID, msg dme.Message) error {
	from := e.next.Self()
	if to == from {
		return e.next.Send(to, msg)
	}
	fate := e.inj.Intercept(0, from, to, msg)
	var err error
	for _, delay := range fate.Delay[:fate.Copies] {
		if delay > 0 {
			// Delayed copies are delivered best-effort: by the time the
			// timer fires the endpoint may be gone, which is just more
			// message loss as far as the protocol is concerned.
			d := time.Duration(math.Round(delay * float64(time.Second)))
			time.AfterFunc(d, func() { _ = e.next.Send(to, msg) })
			continue
		}
		if sendErr := e.next.Send(to, msg); sendErr != nil && err == nil {
			err = sendErr
		}
	}
	return err
}
