package faultnet_test

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/telemetry"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

// fakeTransport records sends synchronously; enough to observe what the
// injector let through.
type fakeTransport struct {
	self dme.NodeID

	mu   sync.Mutex
	sent []string // "to:kind" per delivered message
}

func (f *fakeTransport) Self() dme.NodeID { return f.self }

func (f *fakeTransport) Send(to dme.NodeID, msg dme.Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, msg.Kind())
	return nil
}

func (f *fakeTransport) SetHandler(transport.Handler) {}
func (f *fakeTransport) Close() error                 { return nil }

func (f *fakeTransport) log() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.sent...)
}

type msg struct{ K string }

func (m msg) Kind() string { return m.K }

// wrap builds an injector-wrapped fake endpoint for node self.
func wrap(inj *faultnet.Injector, self dme.NodeID) (transport.Transport, *fakeTransport) {
	base := &fakeTransport{self: self}
	return transport.Chain(base, inj.Middleware()), base
}

func TestDeterministicReplay(t *testing.T) {
	run := func() ([]string, faultnet.Counters) {
		inj := faultnet.New(faultnet.Options{
			Seed:   42,
			Faults: faultnet.Faults{Drop: 0.3, Dup: 0.3},
		})
		tr, base := wrap(inj, 0)
		for i := 0; i < 200; i++ {
			_ = tr.Send(1, msg{K: "PING"})
		}
		return base.log(), inj.Counters()
	}
	log1, c1 := run()
	log2, c2 := run()
	if !reflect.DeepEqual(log1, log2) || c1 != c2 {
		t.Fatalf("same seed, same sends, different outcome:\n%d msgs %+v\nvs\n%d msgs %+v",
			len(log1), c1, len(log2), c2)
	}
	if c1.Drops == 0 || c1.Dups == 0 {
		t.Fatalf("fault rates 0.3 over 200 sends injected nothing: %+v", c1)
	}
	if want := 200 - int(c1.Drops) + int(c1.Dups); len(log1) != want {
		t.Fatalf("delivered %d messages, want 200 - %d drops + %d dups = %d",
			len(log1), c1.Drops, c1.Dups, want)
	}
}

func TestCertainDropAndDup(t *testing.T) {
	inj := faultnet.New(faultnet.Options{Faults: faultnet.Faults{Drop: 1}})
	tr, base := wrap(inj, 0)
	for i := 0; i < 10; i++ {
		_ = tr.Send(1, msg{K: "PING"})
	}
	if got := base.log(); len(got) != 0 {
		t.Fatalf("drop=1 delivered %d messages", len(got))
	}

	if err := inj.SetFaults(faultnet.Faults{Dup: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_ = tr.Send(1, msg{K: "PING"})
	}
	if got := base.log(); len(got) != 20 {
		t.Fatalf("dup=1 delivered %d messages, want 20", len(got))
	}
}

func TestSelfSendBypassesFaults(t *testing.T) {
	inj := faultnet.New(faultnet.Options{Faults: faultnet.Faults{Drop: 1}})
	tr, base := wrap(inj, 3)
	_ = tr.Send(3, msg{K: "LOOP"})
	if got := base.log(); len(got) != 1 {
		t.Fatalf("self-send under drop=1 delivered %d messages, want 1", len(got))
	}
	if c := inj.Counters(); c.Drops != 0 {
		t.Fatalf("self-send was counted as a drop: %+v", c)
	}
}

// TestPartitionIsDirectionalAndHeals: a partition blocks the links its
// injector governs, which are its senders' outbound links, so on a TCP
// cluster (one injector per process) it is directional; Heal restores
// them.
func TestPartitionIsDirectionalAndHeals(t *testing.T) {
	inj := faultnet.New(faultnet.Options{})
	tr0, base0 := wrap(inj, 0)
	other := faultnet.New(faultnet.Options{}) // node 2's own process
	tr2, base2 := wrap(other, 2)

	inj.Partition([]int{0}, []int{2})
	_ = tr0.Send(2, msg{K: "A"}) // blocked by node 0's injector
	_ = tr2.Send(0, msg{K: "B"}) // node 2's injector has no partition
	if len(base0.log()) != 0 {
		t.Fatal("partitioned link 0→2 delivered")
	}
	if len(base2.log()) != 1 {
		t.Fatal("open link 2→0 did not deliver")
	}

	tr2, base2 = wrap(inj, 2)
	inj.Partition([]int{0, 1}, []int{2, 3})
	_ = tr2.Send(1, msg{K: "C"})
	_ = tr0.Send(2, msg{K: "D"})
	_ = tr0.Send(1, msg{K: "E"}) // intra-group stays open
	if got := base2.log(); len(got) != 0 {
		t.Fatalf("partition left 2→1 open: %v", got)
	}
	if got := base0.log(); len(got) != 1 || got[0] != "E" {
		t.Fatalf("intra-group 0→1 should deliver, 0→2 should not: %v", got)
	}

	inj.Heal()
	_ = tr0.Send(2, msg{K: "F"})
	_ = tr2.Send(1, msg{K: "G"})
	if got := base0.log(); len(got) != 2 {
		t.Fatalf("heal did not restore 0→2: %v", got)
	}
	if got := base2.log(); len(got) != 1 {
		t.Fatalf("heal did not restore 2→1: %v", got)
	}
	c := inj.Counters()
	if c.PartitionDrops != 3 || c.Partitions != 2 || c.Heals != 1 {
		t.Fatalf("counters = %+v, want 3 partition drops, 2 partitions, 1 heal", c)
	}
}

func TestPartitionForHealsOnSchedule(t *testing.T) {
	inj := faultnet.New(faultnet.Options{})
	tr, base := wrap(inj, 0)
	inj.PartitionFor([]int{0}, []int{1}, 20*time.Millisecond)
	_ = tr.Send(1, msg{K: "A"})
	if len(base.log()) != 0 {
		t.Fatal("partition did not block")
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(inj.BlockedLinks()) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("scheduled heal never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = tr.Send(1, msg{K: "B"})
	if got := base.log(); len(got) != 1 || got[0] != "B" {
		t.Fatalf("post-heal send did not deliver: %v", got)
	}
}

func TestDropNextKind(t *testing.T) {
	inj := faultnet.New(faultnet.Options{})
	tr, base := wrap(inj, 0)
	inj.DropNextKind("PRIVILEGE", 2)
	_ = tr.Send(1, msg{K: "REQUEST"})   // unaffected kind
	_ = tr.Send(1, msg{K: "PRIVILEGE"}) // forced drop 1
	_ = tr.Send(2, msg{K: "PRIVILEGE"}) // forced drop 2, any link
	_ = tr.Send(1, msg{K: "PRIVILEGE"}) // budget spent
	if got := base.log(); !reflect.DeepEqual(got, []string{"REQUEST", "PRIVILEGE"}) {
		t.Fatalf("delivered %v, want [REQUEST PRIVILEGE]", got)
	}
	if c := inj.Counters(); c.Drops != 2 {
		t.Fatalf("forced drops not counted: %+v", c)
	}
}

// corruptOnce sends m through an injector that corrupts every message
// and returns what OnFault received.
func corruptOnce(t *testing.T, m dme.Message) (*faultnet.Injector, []error) {
	t.Helper()
	var (
		mu     sync.Mutex
		faults []error
	)
	inj := faultnet.New(faultnet.Options{
		Faults: faultnet.Faults{Corrupt: 1},
		OnFault: func(err error) {
			mu.Lock()
			faults = append(faults, err)
			mu.Unlock()
		},
	})
	tr, base := wrap(inj, 0)
	_ = tr.Send(1, m)
	if len(base.log()) != 0 {
		t.Fatal("corrupted message was delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	return inj, append([]error(nil), faults...)
}

// TestCorruptionSurfacesDecodeError: a message no wire family carries
// still surfaces as a *wire.DecodeError, and is dropped and counted.
func TestCorruptionSurfacesDecodeError(t *testing.T) {
	inj, faults := corruptOnce(t, msg{K: "REQUEST"})
	if len(faults) != 1 {
		t.Fatalf("OnFault called %d times, want 1", len(faults))
	}
	var de *wire.DecodeError
	if !errors.As(faults[0], &de) {
		t.Fatalf("corruption surfaced %T (%v), want *wire.DecodeError", faults[0], faults[0])
	}
	if c := inj.Counters(); c.Corruptions != 1 {
		t.Fatalf("corruption not counted: %+v", c)
	}
}

// TestCorruptionDecodesCoreFrames: an injector built with no wire
// configuration at all frames a core message in core's wire family, so
// the error OnFault sees is the decoder's own on the damaged frame — not
// a stand-in made up by the injector.
func TestCorruptionDecodesCoreFrames(t *testing.T) {
	_, faults := corruptOnce(t, core.Request{Entry: core.QEntry{Node: 2, Seq: 41}})
	if len(faults) != 1 {
		t.Fatalf("OnFault called %d times, want 1", len(faults))
	}
	var de *wire.DecodeError
	if !errors.As(faults[0], &de) {
		t.Fatalf("corruption surfaced %T (%v), want *wire.DecodeError", faults[0], faults[0])
	}
	if de.Algo != registry.Core {
		t.Errorf("decode error %+v, want one on a core frame", de)
	}
	if strings.Contains(de.Err.Error(), "faultnet") {
		t.Errorf("cause %q was made up by the injector, want the decoder's error on the truncated frame", de.Err)
	}
}

func TestDelayDeliversLate(t *testing.T) {
	inj := faultnet.New(faultnet.Options{Faults: faultnet.Faults{Delay: time.Millisecond}})
	tr, base := wrap(inj, 0)
	_ = tr.Send(1, msg{K: "SLOW"})
	if c := inj.Counters(); c.Delayed != 1 {
		t.Fatalf("delay not counted: %+v", c)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(base.log()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delayed message never delivered")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := faultnet.ParseSpec("drop=0.1, dup=0.05,delay=2ms,jitter=1ms,reorder=0.1,corrupt=0.01,window=4ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := faultnet.Spec{
		Faults: faultnet.Faults{
			Drop: 0.1, Dup: 0.05, Corrupt: 0.01, Reorder: 0.1,
			Delay: 2 * time.Millisecond, Jitter: time.Millisecond,
			ReorderWindow: 4 * time.Millisecond,
		},
		Seed: 7,
	}
	if spec != want {
		t.Fatalf("ParseSpec = %+v, want %+v", spec, want)
	}

	if spec, err := faultnet.ParseSpec(""); err != nil || spec.Seed != 1 {
		t.Fatalf("empty spec = %+v, %v; want zero faults with seed 1", spec, err)
	}

	for _, bad := range []string{"drop=2", "drop=x", "delay=-1ms", "delay=fast", "seed=-1", "nonsense", "typo=1"} {
		if _, err := faultnet.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid input", bad)
		}
	}
}

func TestHandler(t *testing.T) {
	inj := faultnet.New(faultnet.Options{})
	srv := httptest.NewServer(inj.Handler())
	defer srv.Close()

	getState := func(t *testing.T, query string) state {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", query, resp.StatusCode)
		}
		var st state
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	if st := getState(t, ""); st.Faults.Drop != 0 || len(st.Blocked) != 0 {
		t.Fatalf("fresh injector state = %+v", st)
	}

	st := getState(t, "?drop=0.25&delay=3ms")
	if st.Faults.Drop != 0.25 || st.Faults.Delay != 3*time.Millisecond {
		t.Fatalf("after set, faults = %+v", st.Faults)
	}
	// Untouched keys keep their values across a second update.
	if st = getState(t, "?dup=0.1"); st.Faults.Drop != 0.25 || st.Faults.Dup != 0.1 {
		t.Fatalf("partial update clobbered state: %+v", st.Faults)
	}

	st = getState(t, "?partition=0,1|2")
	wantBlocked := [][2]int{{0, 2}, {1, 2}, {2, 0}, {2, 1}}
	if !reflect.DeepEqual(st.Blocked, wantBlocked) {
		t.Fatalf("blocked = %v, want %v", st.Blocked, wantBlocked)
	}
	if st = getState(t, "?heal=1"); len(st.Blocked) != 0 {
		t.Fatalf("heal left links blocked: %v", st.Blocked)
	}
	if st = getState(t, "?clear=1"); st.Faults != (faultnet.Faults{}) {
		t.Fatalf("clear left faults: %+v", st.Faults)
	}

	for _, bad := range []string{"?drop=7", "?partition=0,1", "?delay=nope"} {
		resp, err := srv.Client().Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("GET %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// state mirrors the handler's JSON document for decoding in tests.
type state struct {
	Faults   faultnet.Faults   `json:"faults"`
	Blocked  [][2]int          `json:"blocked_links"`
	Counters faultnet.Counters `json:"counters"`
}

func TestRegisterMetrics(t *testing.T) {
	inj := faultnet.New(faultnet.Options{Faults: faultnet.Faults{Drop: 1}})
	reg := telemetry.NewRegistry()
	inj.RegisterMetrics(reg)
	tr, _ := wrap(inj, 0)
	_ = tr.Send(1, msg{K: "X"})
	inj.Partition([]int{0}, []int{1})
	inj.Heal()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"faultnet_injected_drops_total 1",
		"faultnet_partitions_total 1",
		"faultnet_heals_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}
