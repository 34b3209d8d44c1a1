package reqtrace

import (
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/registry"
)

// syntheticCapture is the smallest meaningful capture: one node (which
// holds the initial token, so requests grant locally with no wire
// traffic) issuing two lock/unlock cycles. Timestamps leave room for the
// protocol's request-collection window before each recorded release, as
// any real capture's would.
func syntheticCapture(algo string) *Capture {
	return &Capture{
		Header: CaptureHeader{V: CaptureVersion, Algo: algo, N: 1},
		Records: []Record{
			{T: 0.0, Ev: EvRequest, Node: 0, Peer: -1, Trace: MakeID(0, 1)},
			{T: 0.5, Ev: EvRelease, Node: 0, Peer: -1, Trace: MakeID(0, 1)},
			{T: 0.6, Ev: EvRequest, Node: 0, Peer: -1, Trace: MakeID(0, 2)},
			{T: 1.2, Ev: EvRelease, Node: 0, Peer: -1, Trace: MakeID(0, 2)},
		},
	}
}

func TestReplaySingleNode(t *testing.T) {
	algo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		t.Fatal(err)
	}
	factory := registry.CoreLiveFactory(core.Options{})
	collector := NewCollector(DefaultDepth)
	res, err := Replay(syntheticCapture(algo), factory, collector)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grants) != 2 {
		t.Fatalf("replay produced %d grants, want 2 (result %+v)", len(res.Grants), res)
	}
	for i, g := range res.Grants {
		if g.Node != 0 {
			t.Errorf("grant %d at node %d, want 0", i, g.Node)
		}
	}
	// Grant fences advance monotonically through the replayed machines.
	if res.Grants[0].Fence >= res.Grants[1].Fence {
		t.Errorf("fences %d, %d not increasing", res.Grants[0].Fence, res.Grants[1].Fence)
	}
	if res.OrphanReleases != 0 || res.OpenErrors != 0 {
		t.Errorf("orphans=%d openErrors=%d, want 0/0", res.OrphanReleases, res.OpenErrors)
	}
}

func TestReplayRejectsBadCapture(t *testing.T) {
	factory := registry.CoreLiveFactory(core.Options{})
	if _, err := Replay(nil, factory, nil); err == nil {
		t.Error("Replay accepted a nil capture")
	}
	if _, err := Replay(&Capture{}, factory, nil); err == nil {
		t.Error("Replay accepted a headerless capture")
	}
}

func TestGrantLogCanonical(t *testing.T) {
	grants := []GrantEvent{
		{Key: "a", Node: 1, Fence: 2, T: 0.5},
		{Key: "", Node: 0, Fence: 0, T: 1.25},
	}
	want := "key=\"a\" node=1 fence=2 t=0.500000000\n" +
		"key=\"\" node=0 fence=0 t=1.250000000\n"
	if got := string(GrantLog(grants)); got != want {
		t.Errorf("GrantLog:\n%s\nwant:\n%s", got, want)
	}
	if len(GrantLog(nil)) != 0 {
		t.Error("empty grant list rendered non-empty log")
	}
}
