package core

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func ql(pairs ...int) QList {
	if len(pairs)%2 != 0 {
		panic("ql needs node,seq pairs")
	}
	out := make(QList, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, QEntry{Node: pairs[i], Seq: uint64(pairs[i+1])})
	}
	return out
}

func TestQListHeadTailEmpty(t *testing.T) {
	q := ql(1, 0, 2, 0, 3, 5)
	if q.Empty() {
		t.Error("non-empty list reported Empty")
	}
	if q.Head() != (QEntry{Node: 1}) {
		t.Errorf("Head = %v", q.Head())
	}
	if q.Tail() != (QEntry{Node: 3, Seq: 5}) {
		t.Errorf("Tail = %v", q.Tail())
	}
	if !(QList{}).Empty() {
		t.Error("empty list not Empty")
	}
}

func TestQListPopHead(t *testing.T) {
	q := ql(1, 0, 2, 0, 3, 0)
	p := q.PopHead()
	if len(p) != 2 || p.Head().Node != 2 {
		t.Errorf("PopHead = %v", p)
	}
	if len(q) != 3 {
		t.Errorf("PopHead mutated the receiver: %v", q)
	}
	// PopHead deliberately shares the backing array (entries are
	// immutable once queued; see the method comment) — narrowing must
	// preserve the remaining entries exactly.
	if p[0] != q[1] || p[1] != q[2] {
		t.Errorf("PopHead reordered entries: %v vs %v", p, q)
	}
}

func TestQListCloneIndependence(t *testing.T) {
	q := ql(1, 1, 2, 2)
	c := q.Clone()
	c[0].Node = 42
	if q[0].Node != 1 {
		t.Error("Clone aliases the original")
	}
	if (QList)(nil).Clone() != nil {
		t.Error("Clone(nil) != nil")
	}
}

func TestQListContains(t *testing.T) {
	q := ql(1, 7, 2, 0)
	if !q.Contains(QEntry{Node: 1, Seq: 7}) {
		t.Error("Contains missed an element")
	}
	if q.Contains(QEntry{Node: 1, Seq: 8}) {
		t.Error("Contains matched wrong seq")
	}
	if !q.ContainsNode(2) || q.ContainsNode(3) {
		t.Error("ContainsNode wrong")
	}
}

func TestQListAppend(t *testing.T) {
	q := ql(1, 0)
	q2 := q.Append(QEntry{Node: 2})
	if len(q) != 1 || len(q2) != 2 {
		t.Errorf("Append mutated receiver or wrong length: %v %v", q, q2)
	}
}

func TestQListDedup(t *testing.T) {
	q := ql(1, 0, 2, 0, 1, 0, 1, 1, 2, 0)
	want := ql(1, 0, 2, 0, 1, 1)
	if got := q.Dedup(); !reflect.DeepEqual(got, want) {
		t.Errorf("Dedup = %v, want %v", got, want)
	}
}

// TestQListDedupProperties: dedup output has no duplicates, preserves
// first-occurrence order, and is idempotent.
func TestQListDedupProperties(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		q := make(QList, n)
		for i := range q {
			q[i] = QEntry{Node: rng.IntN(4), Seq: uint64(rng.IntN(3))}
		}
		d := q.Dedup()
		seen := map[QEntry]bool{}
		for _, e := range d {
			if seen[e] {
				return false // duplicate survived
			}
			seen[e] = true
		}
		// Every original entry must be present.
		for _, e := range q {
			if !seen[e] && len(q) > 0 {
				return false
			}
		}
		return reflect.DeepEqual(d.Dedup(), d) // idempotent
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFilterGranted(t *testing.T) {
	q := ql(0, 1, 1, 5, 2, 3)
	granted := []uint64{1, 4, 3} // node 0 up to 1, node 1 up to 4, node 2 up to 3
	want := ql(1, 5)
	if got := q.FilterGranted(granted); !reflect.DeepEqual(got, want) {
		t.Errorf("FilterGranted = %v, want %v", got, want)
	}
	// Out-of-range nodes are kept (defensive).
	q2 := ql(9, 0)
	if got := q2.FilterGranted(granted); len(got) != 1 {
		t.Errorf("out-of-range node filtered: %v", got)
	}
}

func TestSortByPriorityStable(t *testing.T) {
	q := ql(0, 0, 1, 0, 2, 0, 1, 1, 0, 1)
	prio := []int{5, 5, 9}
	got := q.SortByPriority(prio)
	want := ql(2, 0, 0, 0, 1, 0, 1, 1, 0, 1)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortByPriority = %v, want %v (stable within equal priority)", got, want)
	}
	// Receiver untouched.
	if q[0].Node != 0 {
		t.Error("SortByPriority mutated its receiver")
	}
}

// TestSortByPriorityProperties: output is a permutation, priorities are
// nonincreasing, and FCFS order holds within equal priorities.
func TestSortByPriorityProperties(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		q := make(QList, n%24)
		for i := range q {
			q[i] = QEntry{Node: rng.IntN(5), Seq: uint64(i)}
		}
		prio := []int{3, 1, 4, 1, 5}
		s := q.SortByPriority(prio)
		if len(s) != len(q) {
			return false
		}
		// Permutation check via multiset.
		count := map[QEntry]int{}
		for _, e := range q {
			count[e]++
		}
		for _, e := range s {
			count[e]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		// Nonincreasing priority; stable within class.
		for i := 1; i < len(s); i++ {
			pa, pb := prio[s[i-1].Node], prio[s[i].Node]
			if pa < pb {
				return false
			}
			if pa == pb && s[i-1].Seq > s[i].Seq &&
				s[i-1].Node == s[i].Node {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOptionsNormalize(t *testing.T) {
	o, err := Options{}.Normalize(5)
	if err != nil {
		t.Fatal(err)
	}
	if o.Treq != DefaultTreq || o.Tfwd != DefaultTfwd || o.Tau != DefaultTau {
		t.Errorf("defaults not applied: %+v", o)
	}

	if _, err := (Options{Treq: -1}).Normalize(5); err == nil {
		t.Error("negative Treq accepted")
	}
	if _, err := (Options{Tau: -1}).Normalize(5); err == nil {
		t.Error("negative tau accepted")
	}
	if _, err := (Options{MonitorNode: 5}).Normalize(5); err == nil {
		t.Error("out-of-range monitor accepted")
	}
	if _, err := (Options{Priorities: []int{1, 2}}).Normalize(5); err == nil {
		t.Error("wrong-length priorities accepted")
	}
	if _, err := (Options{Recovery: RecoveryOptions{Enabled: true}}).Normalize(5); err == nil {
		t.Error("recovery without timeouts accepted")
	}

	o, err = Options{Recovery: RecoveryOptions{
		Enabled: true, TokenTimeout: 1, RoundTimeout: 0.5,
	}}.Normalize(5)
	if err != nil {
		t.Fatal(err)
	}
	if o.Recovery.ArbiterTimeout != 4 || o.Recovery.ProbeTimeout != 0.5 {
		t.Errorf("recovery defaults not derived: %+v", o.Recovery)
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(-1, 5, Options{}); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := NewNode(5, 5, Options{}); err == nil {
		t.Error("id == n accepted")
	}
	nd, err := NewNode(2, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nd.ID() != 2 {
		t.Errorf("ID() = %d, want 2", nd.ID())
	}
	if _, ok := Inspect(nd); !ok {
		t.Error("Inspect rejected a core node")
	}
}

func TestAlgorithmNames(t *testing.T) {
	cases := []struct {
		opts Options
		want string
	}{
		{Options{}, "arbiter"},
		{Options{Monitor: true}, "arbiter+monitor"},
		{Options{SeqNumbers: true}, "arbiter+seq"},
		{Options{Priorities: []int{}}, "arbiter+prio"},
		{Options{Recovery: RecoveryOptions{Enabled: true}}, "arbiter+recovery"},
	}
	for _, c := range cases {
		if got := New(c.opts).Name(); got != c.want {
			t.Errorf("Name(%+v) = %q, want %q", c.opts, got, c.want)
		}
	}
}

func TestTokenStatusString(t *testing.T) {
	for s, want := range map[TokenStatus]string{
		StatusExecuted: "executed",
		StatusHolding:  "holding",
		StatusWaiting:  "waiting",
		TokenStatus(0): "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("TokenStatus(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestMessageKinds(t *testing.T) {
	cases := map[string]interface{ Kind() string }{
		KindRequest:     Request{},
		KindRequestFwd:  Request{Hops: 1},
		KindRequestRetx: Request{Retransmit: true},
		KindRequestMon:  MonitorRequest{},
		KindPrivilege:   Privilege{},
		KindNewArbiter:  NewArbiter{},
		KindWarning:     Warning{},
		KindEnquiry:     Enquiry{},
		KindEnquiryAck:  EnquiryAck{},
		KindResume:      Resume{},
		KindInvalidate:  Invalidate{},
		KindProbe:       Probe{},
		KindProbeAck:    ProbeAck{},
		KindDisown:      Disown{},
	}
	for want, msg := range cases {
		if got := msg.Kind(); got != want {
			t.Errorf("%T.Kind() = %q, want %q", msg, got, want)
		}
	}
	// A forwarded retransmission counts as forwarded.
	if got := (Request{Hops: 2, Retransmit: true}).Kind(); got != KindRequestFwd {
		t.Errorf("forwarded retransmission Kind = %q, want %q", got, KindRequestFwd)
	}
}

// TestPrivilegeCloneIndependence: a clone's Granted table is its own,
// since the holder writes it in place. The Q-list is shared on purpose;
// TestSentQListsNeverChange checks the invariant that makes that safe.
func TestPrivilegeCloneIndependence(t *testing.T) {
	p := Privilege{
		Q:       ql(1, 0, 2, 0),
		Granted: []uint64{1, 2, 3},
		Epoch:   7,
	}
	c := p.clone()
	c.Granted[0] = 99
	if p.Granted[0] != 1 {
		t.Error("clone aliases the original's Granted table")
	}
	if c.Epoch != 7 {
		t.Error("clone lost scalar fields")
	}
}
