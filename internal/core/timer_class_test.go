package core

import (
	"reflect"
	"testing"

	"tokenarbiter/internal/dme"
)

// classCtx is fakeCtx with the live runtime's two timer precision
// classes: it records the class of every arming and every Tighten.
type classCtx struct {
	*fakeCtx
	arms      []arming
	tightened []int32 // timer ids, in Tighten order
}

type arming struct {
	id    int32
	delay float64
	lax   bool
}

func newClassCtx(t *testing.T, n int) *classCtx { return &classCtx{fakeCtx: newFakeCtx(t, n)} }

func (c *classCtx) After(node dme.NodeID, delay float64, fn func()) dme.Timer {
	return c.arm(node, delay, fn, false)
}

func (c *classCtx) AfterLax(node dme.NodeID, delay float64, fn func()) dme.Timer {
	return c.arm(node, delay, fn, true)
}

// arm registers the timer with the embedded fakeCtx (so firePending and
// Cancel work unchanged) but hands out a handle whose host is c, which
// is what routes Tighten here.
func (c *classCtx) arm(node dme.NodeID, delay float64, fn func(), lax bool) dme.Timer {
	c.fakeCtx.After(node, delay, fn)
	c.arms = append(c.arms, arming{id: c.timerSeq, delay: delay, lax: lax})
	return dme.MakeTimer(c, c.timerSeq, 0)
}

// TightenTimer implements dme.TimerTightener.
func (c *classCtx) TightenTimer(id int32, _ uint32) { c.tightened = append(c.tightened, id) }

// last returns the most recent arming.
func (c *classCtx) last() arming { return c.arms[len(c.arms)-1] }

// timerClassScript drives node 1 of three through the two light-load
// timers and a window opened on a non-empty Q-list. check, when non-nil,
// is called with a label after each step.
func timerClassScript(t *testing.T, ctx dme.Context, fake *fakeCtx, check func(step string)) {
	t.Helper()
	if check == nil {
		check = func(string) {}
	}
	nd := testNode(t, 1, 3, adaptiveOptions())

	// Token return with nothing collected: the window opens empty.
	nd.OnMessage(ctx, 0, Privilege{Q: QList{}, Granted: make([]uint64, 3), Gen: 1})
	check("token return")
	// Two requests join that window, then it expires and dispatches.
	nd.OnMessage(ctx, 2, Request{Entry: QEntry{Node: 2, Seq: 1}})
	check("first request")
	nd.OnMessage(ctx, 0, Request{Entry: QEntry{Node: 0, Seq: 1}})
	check("second request")
	fake.firePending()
	check("dispatch")

	// Served as the tail of node 0's next batch: node 1 is arbiter again,
	// and a request accepted during its CS is waiting at token return.
	nd.OnRequest(ctx)
	batch := QList{{Node: 1, Seq: 1}}
	nd.OnMessage(ctx, 0, NewArbiter{Arbiter: 1, Gen: 3, Q: batch})
	tok := fake.sent(KindPrivilege)[0].msg.(Privilege)
	tok.Q, tok.Gen = batch, 3
	nd.OnMessage(ctx, 0, tok)
	nd.OnMessage(ctx, 2, Request{Entry: QEntry{Node: 2, Seq: 2}})
	nd.OnCSDone(ctx)
	check("return with a waiter")
	fake.firePending()
}

// TestTimerClasses: core arms an empty token-return window and Tfwd lax,
// a window holding requests precise, and tightens a lax window once, on
// the first request it accepts. The class changes no protocol decision:
// the sends and grants match a context with plain After.
func TestTimerClasses(t *testing.T) {
	opts := adaptiveOptions()
	ctx := newClassCtx(t, 3)
	var window int32
	timerClassScript(t, ctx, ctx.fakeCtx, func(step string) {
		switch step {
		case "token return":
			a := ctx.last()
			if a.delay != opts.Treq || !a.lax {
				t.Fatalf("empty token-return window armed %+v, want a lax Treq", a)
			}
			window = a.id
		case "first request":
			if !reflect.DeepEqual(ctx.tightened, []int32{window}) {
				t.Fatalf("tightened %v after the first request, want the window %d once", ctx.tightened, window)
			}
		case "second request":
			if len(ctx.tightened) != 1 {
				t.Fatalf("tightened %v after the second request, want only the first", ctx.tightened)
			}
		case "dispatch":
			if got := ctx.sent(KindPrivilege); len(got) != 1 || got[0].to != 2 {
				t.Fatalf("window expiry sent %v, want the PRIVILEGE to node 2", got)
			}
			a := ctx.last()
			if a.delay != opts.Tfwd || !a.lax {
				t.Fatalf("forwarding phase armed %+v, want a lax Tfwd", a)
			}
		case "return with a waiter":
			a := ctx.last()
			if a.delay != opts.Treq || a.lax {
				t.Fatalf("window opened on a waiting request armed %+v, want a precise Treq", a)
			}
			if len(ctx.tightened) != 1 {
				t.Fatalf("tightened %v, want no Tighten beyond the first window's", ctx.tightened)
			}
		}
	})
	if len(ctx.inCS) != 1 {
		t.Fatalf("grants %v, want node 1's one CS", ctx.inCS)
	}

	plain := newFakeCtx(t, 3)
	timerClassScript(t, plain, plain, nil)
	if !reflect.DeepEqual(plain.sends, ctx.sends) || !reflect.DeepEqual(plain.inCS, ctx.inCS) {
		t.Fatalf("timer classes changed the protocol:\n lax-aware sends %v grants %v\n plain sends %v grants %v",
			ctx.sends, ctx.inCS, plain.sends, plain.inCS)
	}
}
