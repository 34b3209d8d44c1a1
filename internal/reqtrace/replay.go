package reqtrace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/sim"
	"tokenarbiter/internal/wire"
)

// Capture is a parsed flight-recorder file: the header plus every record
// in file order.
type Capture struct {
	Header  CaptureHeader
	Records []Record
}

// ReadCapture parses a capture stream written by Recorder. Blank lines
// are skipped; any malformed line is an error (a capture is evidence —
// silently dropping lines would make replays lie).
func ReadCapture(r io.Reader) (*Capture, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var cap Capture
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if line == 1 {
			if err := json.Unmarshal(raw, &cap.Header); err != nil {
				return nil, fmt.Errorf("reqtrace: capture header: %w", err)
			}
			if cap.Header.V != CaptureVersion {
				return nil, fmt.Errorf("reqtrace: capture version %d, this build reads v%d",
					cap.Header.V, CaptureVersion)
			}
			if cap.Header.N < 1 {
				return nil, fmt.Errorf("reqtrace: capture header has n=%d", cap.Header.N)
			}
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("reqtrace: capture line %d: %w", line, err)
		}
		cap.Records = append(cap.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reqtrace: read capture: %w", err)
	}
	if line == 0 {
		return nil, fmt.Errorf("reqtrace: empty capture")
	}
	return &cap, nil
}

// GrantEvent is one critical-section grant observed during (or recorded
// in) a capture, identified by key, grantee and fencing token.
type GrantEvent struct {
	Key   string  `json:"key,omitempty"`
	Node  int     `json:"node"`
	Fence uint64  `json:"fence,omitempty"`
	T     float64 `json:"t"`
}

// ReplayResult is what a deterministic re-execution produced.
type ReplayResult struct {
	// Grants is the grant sequence the replayed state machines produced,
	// in deterministic execution order (keys replayed in sorted order).
	Grants []GrantEvent
	// Recorded is the grant sequence the original live run logged
	// (EvGrant records), for fidelity comparison against Grants.
	Recorded []GrantEvent
	// SuppressedSends counts outbound messages the replayed machines
	// generated that were not delivered — in replay the wire is the
	// capture, so regenerated cross-node traffic is dropped by design.
	SuppressedSends uint64
	// OrphanReleases counts recorded releases arriving while the
	// replayed node was not in the critical section (timing divergence
	// between the live run and the replayed timeline).
	OrphanReleases uint64
	// OpenErrors counts recorded frames that failed to decode.
	OpenErrors uint64
}

// GrantLog renders a grant sequence in a canonical byte form; two
// replays of the same capture are deterministic iff their GrantLogs are
// byte-identical, which is exactly what the CI determinism check
// asserts.
func GrantLog(grants []GrantEvent) []byte {
	var buf bytes.Buffer
	for _, g := range grants {
		fmt.Fprintf(&buf, "key=%q node=%d fence=%d t=%.9f\n", g.Key, g.Node, g.Fence, g.T)
	}
	return buf.Bytes()
}

// Replay re-executes a capture against fresh protocol state machines on
// the deterministic simulation kernel: each key's records are ingested
// at their recorded timestamps (requests as OnRequest, received
// frames as OnMessage through the normal wire decode path, releases as
// OnCSDone), while protocol timers run naturally in virtual time.
// Outbound sends the replayed machines generate are suppressed — the
// capture already holds every delivery that actually happened — so the
// replay is closed under the capture and two replays of the same bytes
// produce the same grant sequence.
//
// The factory builds one node's state machine, same shape as
// registry.LiveFactory; obs is wired to a CoreObserver recording the
// replayed protocol transitions into collector (pass nil to skip trace
// collection).
func Replay(cap *Capture, factory func(id, n int, obs func(core.Event)) (dme.Node, error), collector *Collector) (*ReplayResult, error) {
	if cap == nil || cap.Header.N < 1 {
		return nil, fmt.Errorf("reqtrace: nil or headerless capture")
	}
	res := &ReplayResult{}
	byKey := map[string][]Record{}
	for _, rec := range cap.Records {
		if rec.Ev == EvGrant {
			res.Recorded = append(res.Recorded, GrantEvent{
				Key: rec.Key, Node: rec.Node, Fence: rec.Fence, T: rec.T,
			})
		}
		byKey[rec.Key] = append(byKey[rec.Key], rec)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if err := replayKey(cap.Header, key, byKey[key], factory, collector, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// replayKey runs one key's records on its own kernel instance (keys are
// independent DME groups, exactly as the live Manager runs them).
func replayKey(hdr CaptureHeader, key string, recs []Record,
	factory func(id, n int, obs func(core.Event)) (dme.Node, error),
	collector *Collector, res *ReplayResult) error {

	s := sim.New(1) // any fixed seed: no replayed step draws randomness
	ctx := &replayCtx{s: s, key: key, res: res}
	nodes := make([]dme.Node, hdr.N)
	for i := range nodes {
		obs := CoreObserver(collector, key, s.Now)
		nd, err := factory(i, hdr.N, obs)
		if err != nil {
			return fmt.Errorf("reqtrace: replay key %q: build node %d: %w", key, i, err)
		}
		nodes[i] = nd
	}
	ctx.nodes = nodes
	ctx.grants = make([]uint64, hdr.N)
	ctx.releases = make([]uint64, hdr.N)
	for _, nd := range nodes {
		nd.Init(ctx)
	}

	// Recorded lifecycle records go to the collector as they are, at their
	// recorded times: combined with the protocol records the replayed
	// machines emit through CoreObserver, it assembles the same full traces
	// a live run's collector holds — enqueue/grant/release at recorded
	// times, batch inclusion and token hops at replayed times on the same
	// virtual clock.
	keep := func(rec Record) {
		s.PostAt(rec.T, func() { collector.Record(rec) })
	}

	dec := wire.BinaryCodec().NewDecoder(nil, hdr.Algo) // bodies only, no stream
	var lastT float64
	for _, rec := range recs {
		if rec.T > lastT {
			lastT = rec.T
		}
		rec := rec
		switch rec.Ev {
		case EvRequest:
			keep(rec)
			s.PostAt(rec.T, func() { nodes[rec.Node].OnRequest(ctx) })
		case EvRecv:
			_, msg, err := dec.DecodeBody(rec.Frame)
			if err != nil {
				res.OpenErrors++
				continue
			}
			// Strip the transport-layer wrappers the way the live stack
			// does (the Manager strips the key, the key's engine the
			// trace); replay drives the state machines with the bare
			// message.
			msg, _, _ = wire.Unwrap(msg)
			s.PostAt(rec.T, func() { nodes[rec.Node].OnMessage(ctx, rec.Peer, msg) })
		case EvGrant:
			keep(rec)
		case EvRelease:
			keep(rec)
			s.PostAt(rec.T, func() {
				if ctx.grants[rec.Node] > ctx.releases[rec.Node] {
					ctx.releases[rec.Node]++
					nodes[rec.Node].OnCSDone(ctx)
					return
				}
				res.OrphanReleases++
			})
		}
		// EvSend records are informational: sends are regenerated (and
		// suppressed) by the replayed machines, and so are the recorded
		// protocol transitions, which the replayed machines emit afresh.
		// EvGrant records were folded into res.Recorded by the caller.
	}

	// Run past the last record; the +1.0 horizon lets in-flight timers at
	// the capture's tail fire once while stopping the retransmit timers
	// of never-granted requests from re-arming forever.
	horizon := lastT + 1.0
	s.RunUntil(func() bool { return s.Now() > horizon })
	return nil
}

// replayCtx is the dme.Context a replay runs under: virtual time from
// the kernel, self-sends and timers live, cross-node sends suppressed
// (the capture is the wire), EnterCS recorded as the replay's output.
type replayCtx struct {
	s        *sim.Simulator
	key      string
	nodes    []dme.Node
	res      *ReplayResult
	grants   []uint64 // per-node EnterCS count
	releases []uint64 // per-node OnCSDone count (capture-driven)
}

// Send suppresses cross-node traffic (deliveries come from the capture)
// and loops self-sends back with zero delay, as every Context does.
func (c *replayCtx) Send(from, to dme.NodeID, msg dme.Message) {
	if from != to {
		c.res.SuppressedSends++
		return
	}
	c.s.Post(0, func() { c.nodes[to].OnMessage(c, from, msg) })
}

// Broadcast implements dme.Context; all targets are remote, so the whole
// fan-out is suppressed.
func (c *replayCtx) Broadcast(from dme.NodeID, msg dme.Message) {
	c.res.SuppressedSends += uint64(len(c.nodes) - 1)
}

// After implements dme.Context on the kernel's timer records.
func (c *replayCtx) After(node dme.NodeID, delay float64, fn func()) dme.Timer {
	ev := c.s.Schedule(delay, fn)
	return dme.MakeTimer(c, ev.ID(), ev.Gen())
}

// Cancel implements dme.Context.
func (c *replayCtx) Cancel(t dme.Timer) { t.Cancel() }

// CancelTimer implements dme.TimerHost for the timers After hands out.
func (c *replayCtx) CancelTimer(id int32, gen uint32) { c.s.CancelID(id, gen) }

// EnterCS records a grant — the replay's observable output. OnCSDone is
// NOT scheduled here: the critical-section duration is not simulated,
// the recorded release drives it.
func (c *replayCtx) EnterCS(node dme.NodeID) {
	c.grants[node]++
	var fence uint64
	if ins, ok := core.Inspect(c.nodes[node]); ok {
		fence = ins.LastFence
	}
	c.res.Grants = append(c.res.Grants, GrantEvent{
		Key: c.key, Node: node, Fence: fence, T: c.s.Now(),
	})
}
