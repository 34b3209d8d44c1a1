package reqtrace

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"tokenarbiter/internal/core"
)

// Record names the checker reads beside the lifecycle and the protocol
// transitions.
const (
	// EvClose: live.Node.Close — crash, RestartKey or shutdown. It ends the
	// node's open grant and its outstanding requests on the key.
	EvClose = "close"
	// EvFault: a partition or blackout began, recorded by whoever injects
	// it. An empty Key means every key.
	EvFault = "fault"
	// EvHeal: the fault on the same Key ended.
	EvHeal = "heal"
)

var (
	evRegenerated  = core.EventTokenRegenerated.String()
	evRoundStarted = core.EventInvalidationStarted.String()
)

// The rules a Violation names.
const (
	rulePairing    = "pairing"
	ruleStale      = "stale"
	ruleOverlap    = "overlap"
	ruleSuperseded = "superseded"
	ruleWedged     = "wedged"
)

// maxListed bounds how many violations Verdict.String spells out.
const maxListed = 10

// Checker is the one safety oracle. It is a Sink: it judges a lock's
// record stream key by key, in stream order, by one rule.
//
//   - Pairing. A (node, key) has at most one open grant; a release or a
//     close ends it. A release with none open, a second grant while one
//     is open and a grant still open at the verdict are violations.
//   - Stale. A grant whose fence is at or below the key's highest
//     accepted fence is one a fenced store refuses. Fence 0 (baselines)
//     is never stale.
//   - Overlap. A grant that is not stale, made while another non-stale
//     grant on the key is open.
//   - Lineage. A grant's lineage is its Epoch; 0 is the initial token's.
//     An epoch minted by two token-regenerated records on one key names
//     two tokens: a twin epoch, counted, and judged as two lineages.
//
// Within one lineage a stale grant or an overlap is a violation: one
// token granted twice or rewound its fence. Records without an epoch
// (client-side feeds, baselines) are all one lineage, so they are held
// to that strictness. Across lineages a stale grant is fencing doing its
// job (excused, counted). An overlap across lineages is excused only when
// the §6 round that minted the newer lineage — its node's last
// invalidation-started before the token-regenerated — began while a fault
// was open, or after the older holder's grant, whose answer to the round
// could then be lost while it sat in its CS. Otherwise an old token
// granted after the group had started replacing it, outside any fault.
//
// settle is the caller's recovery bound, on the records' clock. Above 0
// it adds two time rules: a stale grant made more than settle after the
// lineage above it was minted (a superseded token still granting), and
// a key with an enqueue outstanding for more than settle, no grant for
// settle and no fault open (wedged).
type Checker struct {
	mu       sync.Mutex
	settle   float64
	now      float64 // the latest T seen
	nextScan float64 // when the wedge rule next looks at every key
	keys     map[string]*keyCheck
	faults   map[string][]span // by key; "" covers every key
	v        Verdict
}

// Verdict is what a Checker concluded. The stream was safe when
// Violations is empty; the counts say how much the lineage rule excused.
type Verdict struct {
	Grants     int            // grant records judged
	Accepted   map[string]int // per key, the grants a fenced store accepts
	Stale      int            // stale grants excused across lineages
	Overlaps   int            // overlaps excused across lineages
	Twins      int            // (key, epoch) pairs minted more than once
	Violations []Violation
}

// Violation is one finding: the rule broken, the key, and the grants
// involved, each by node, fence, epoch and trace ID.
type Violation struct {
	Rule, Key, Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("key %q: %s: %s", v.Key, v.Rule, v.Detail)
}

// Err is nil when the stream was safe, else an error naming the first
// violation.
func (v *Verdict) Err() error {
	if len(v.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("%d safety violation(s), first: %s", len(v.Violations), v.Violations[0])
}

// String is a one-line summary followed by the first violations, one a
// line.
func (v *Verdict) String() string {
	accepted := 0
	for _, n := range v.Accepted {
		accepted += n
	}
	var b strings.Builder
	fmt.Fprintf(&b, "violations=%d grants=%d accepted=%d stale-excused=%d overlaps-excused=%d twin-epochs=%d",
		len(v.Violations), v.Grants, accepted, v.Stale, v.Overlaps, v.Twins)
	for i, x := range v.Violations {
		if i == maxListed {
			fmt.Fprintf(&b, "\n  ... and %d more", len(v.Violations)-i)
			break
		}
		b.WriteString("\n  " + x.String())
	}
	return b.String()
}

// grant is one grant record as the rule sees it.
type grant struct {
	node  int
	fence uint64
	epoch uint64
	trace ID
	t     float64
	stale bool
}

func (g grant) String() string {
	return fmt.Sprintf("grant(node %d fence %d epoch %d trace %s t=%.4f)", g.node, g.fence, g.epoch, g.trace, g.t)
}

// mint is one token-regenerated record: when a lineage was minted, by
// which node, and when the §6 round that minted it began.
type mint struct {
	t, round float64
	node     int
}

type span struct{ from, to float64 }

// keyCheck is one key's judged state.
type keyCheck struct {
	open    []grant           // at most one per node
	high    grant             // the accepted grant holding the fence watermark
	mints   map[uint64][]mint // by epoch
	rounds  map[int]float64   // node → its last invalidation-started
	waiting map[int][]float64 // node → enqueue times not yet granted
	last    *grant            // the latest grant, for wedge findings
	since   float64           // the latest grant, or the key's first record
	wedged  bool              // reported; cleared by the next grant
	recent  ring[Record]      // the last protocol transitions
}

// NewChecker returns a checker with the given recovery bound (0: the
// time rules off).
func NewChecker(settle float64) *Checker {
	return &Checker{
		settle: settle,
		keys:   make(map[string]*keyCheck),
		faults: make(map[string][]span),
		v:      Verdict{Accepted: make(map[string]int)},
	}
}

// Check runs the Checker's judge over a capture's records, in file order.
func Check(cap *Capture, settle float64) *Verdict {
	c := NewChecker(settle)
	for _, rec := range cap.Records {
		c.Record(rec)
	}
	return c.Verdict()
}

// Record implements Sink.
func (c *Checker) Record(rec Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec.T > c.now {
		c.now = rec.T
	}
	switch rec.Ev {
	case EvFault:
		c.faults[rec.Key] = append(c.faults[rec.Key], span{rec.T, math.Inf(1)})
	case EvHeal:
		spans := c.faults[rec.Key]
		for i := len(spans) - 1; i >= 0; i-- {
			if math.IsInf(spans[i].to, 1) {
				spans[i].to = rec.T
				break
			}
		}
	case EvSend, EvRecv:
		// Frames tell the rule nothing the transitions do not.
	default:
		c.judge(rec)
	}
	if c.settle > 0 && c.now >= c.nextScan {
		c.scanWedges()
		c.nextScan = c.now + c.settle/8
	}
}

// Verdict judges the stream so far: the wedge rule at the latest T seen,
// and every grant still open is a pairing violation.
func (c *Checker) Verdict() *Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.settle > 0 {
		c.scanWedges()
	}
	v := c.v
	v.Accepted = maps.Clone(c.v.Accepted)
	v.Violations = slices.Clone(c.v.Violations)
	for _, key := range c.sortedKeys() {
		for _, g := range c.keys[key].open {
			v.Violations = append(v.Violations, Violation{rulePairing, key, g.String() + " still open at the verdict"})
		}
	}
	return &v
}

func (c *Checker) violate(rule, key, format string, args ...any) {
	c.v.Violations = append(c.v.Violations, Violation{rule, key, fmt.Sprintf(format, args...)})
}

func (c *Checker) sortedKeys() []string {
	keys := make([]string, 0, len(c.keys))
	for k := range c.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (c *Checker) judge(rec Record) {
	ks := c.keys[rec.Key]
	if ks == nil {
		ks = &keyCheck{
			mints:   make(map[uint64][]mint),
			rounds:  make(map[int]float64),
			waiting: make(map[int][]float64),
			since:   rec.T,
			recent:  newRing[Record](4),
		}
		c.keys[rec.Key] = ks
	}
	switch rec.Ev {
	case EvRequest:
		ks.waiting[rec.Node] = append(ks.waiting[rec.Node], rec.T)
	case EvGrant:
		c.grant(rec.Key, ks, grant{node: rec.Node, fence: rec.Fence, epoch: rec.Epoch, trace: rec.Trace, t: rec.T})
	case EvRelease:
		if !ks.end(rec.Node) {
			c.violate(rulePairing, rec.Key, "release(node %d fence %d epoch %d trace %s t=%.4f) with no open grant",
				rec.Node, rec.Fence, rec.Epoch, rec.Trace, rec.T)
		}
	case EvClose:
		ks.end(rec.Node)
		delete(ks.waiting, rec.Node)
	case evRoundStarted:
		ks.rounds[rec.Node] = rec.T
		ks.recent.push(rec)
	case evRegenerated:
		round, ok := ks.rounds[rec.Node]
		if !ok {
			round = rec.T
		}
		ks.mints[rec.Epoch] = append(ks.mints[rec.Epoch], mint{t: rec.T, round: round, node: rec.Node})
		if len(ks.mints[rec.Epoch]) == 2 {
			c.v.Twins++
		}
		ks.recent.push(rec)
	default:
		ks.recent.push(rec)
	}
}

// end closes node's open grant, reporting whether there was one.
func (ks *keyCheck) end(node int) bool {
	for i, g := range ks.open {
		if g.node == node {
			ks.open = slices.Delete(ks.open, i, i+1)
			return true
		}
	}
	return false
}

func (c *Checker) grant(key string, ks *keyCheck, g grant) {
	c.v.Grants++
	for _, h := range ks.open {
		if h.node == g.node {
			c.violate(rulePairing, key, "%s while its %s is still open", g, h)
			ks.end(g.node)
			break
		}
	}
	if q := ks.waiting[g.node]; len(q) > 0 {
		ks.waiting[g.node] = q[1:]
	}
	ks.last, ks.since, ks.wedged = &g, g.t, false
	if g.fence > 0 && g.fence <= ks.high.fence {
		g.stale = true
		c.stale(key, ks, g)
	} else {
		if g.fence > 0 {
			ks.high = g
		}
		c.v.Accepted[key]++
		for _, h := range ks.open {
			if !h.stale {
				c.overlap(key, ks, h, g)
			}
		}
	}
	ks.open = append(ks.open, g)
}

// sameLineage: one epoch, minted at most once on the key.
func (ks *keyCheck) sameLineage(a, b grant) bool {
	return a.epoch == b.epoch && len(ks.mints[a.epoch]) < 2
}

// minted returns epoch's latest mint on the key.
func (ks *keyCheck) minted(epoch uint64) (mint, bool) {
	ms := ks.mints[epoch]
	if len(ms) == 0 {
		return mint{}, false
	}
	return ms[len(ms)-1], true
}

func (c *Checker) stale(key string, ks *keyCheck, g grant) {
	h := ks.high
	if ks.sameLineage(g, h) {
		c.violate(ruleStale, key, "%s at or below the accepted %s of the same lineage", g, h)
		return
	}
	c.v.Stale++
	if c.settle <= 0 || h.epoch < g.epoch {
		return // a newer lineage below an older one's fences is not superseded
	}
	if m, ok := ks.minted(h.epoch); ok && g.t-m.t > c.settle {
		c.violate(ruleSuperseded, key, "%s %.1fs after epoch %d was minted (node %d, t=%.4f) above it; watermark %s",
			g, g.t-m.t, h.epoch, m.node, m.t, h)
	}
}

// overlap judges g, just granted, against h, still open.
func (c *Checker) overlap(key string, ks *keyCheck, h, g grant) {
	if ks.sameLineage(h, g) {
		c.violate(ruleOverlap, key, "%s while %s is still open, same lineage", g, h)
		return
	}
	older, newer := h, g
	if h.epoch > g.epoch {
		older, newer = g, h
	}
	m, ok := ks.minted(newer.epoch)
	switch {
	case !ok:
		c.violate(ruleOverlap, key, "%s while %s is still open; epoch %d has no token-regenerated record",
			g, h, newer.epoch)
	case m.round > older.t || c.faultAt(key, m.round):
		c.v.Overlaps++
	default:
		c.violate(ruleOverlap, key, "%s while %s is still open; the round that minted epoch %d (node %d) began at t=%.4f, before the older grant and outside any fault",
			g, h, newer.epoch, m.node, m.round)
	}
}

// faultAt reports whether a fault on key (or on every key) was open at t.
func (c *Checker) faultAt(key string, t float64) bool {
	for _, k := range []string{key, ""} {
		for _, s := range c.faults[k] {
			if s.from <= t && t <= s.to {
				return true
			}
		}
	}
	return false
}

// scanWedges applies the wedge rule to every key at the latest T seen.
func (c *Checker) scanWedges() {
	for _, key := range c.sortedKeys() {
		ks := c.keys[key]
		if ks.wedged || c.now-ks.since <= c.settle || c.faultAt(key, c.now) {
			continue
		}
		oldest := math.Inf(1)
		var nodes []int
		for node, q := range ks.waiting {
			if len(q) > 0 {
				nodes = append(nodes, node)
				oldest = math.Min(oldest, q[0])
			}
		}
		if c.now-oldest <= c.settle {
			continue
		}
		sort.Ints(nodes)
		last := "grant none"
		if ks.last != nil {
			last = ks.last.String()
		}
		var steps []string
		for _, r := range ks.recent.snapshot() {
			steps = append(steps, fmt.Sprintf("%s(node %d epoch %d fence %d t=%.4f)", r.Ev, r.Node, r.Epoch, r.Fence, r.T))
		}
		ks.wedged = true
		c.violate(ruleWedged, key, "no grant for %.1fs while nodes %v wait (oldest enqueue t=%.4f); last %s; last transitions %s",
			c.now-ks.since, nodes, oldest, last, strings.Join(steps, " "))
	}
}
