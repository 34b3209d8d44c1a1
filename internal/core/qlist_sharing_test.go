package core_test

import (
	"slices"
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
)

// TestSentQListsNeverChange checks the invariant that lets a token, its
// NEW-ARBITER broadcast and §6's batch snapshots share one Q-list slice:
// no node ever writes a Q-list in place. The simulator delivers messages
// by reference, so every node downstream of a send holds the very slice
// the sender sent. The test keeps a copy of each PRIVILEGE and
// NEW-ARBITER Q-list at send time, and at the end of the run the
// message's own list must still equal its copy.
func TestSentQListsNeverChange(t *testing.T) {
	const n = 6
	prio := make([]int, n)
	for i := range prio {
		prio[i] = i
	}
	recovery := core.RecoveryOptions{
		Enabled:        true,
		TokenTimeout:   5,
		RoundTimeout:   1,
		ArbiterTimeout: 15,
		ProbeTimeout:   1,
	}
	// With faults on, one network message in 97 is dropped and one in
	// 13 duplicated.
	cases := []struct {
		name   string
		opts   core.Options
		faults bool
	}{
		{"seq-numbers", core.Options{SeqNumbers: true, RetransmitTimeout: 10}, false},
		{"monitor", core.Options{Monitor: true, MonitorFlushTimeout: 20, RetransmitTimeout: 30}, false},
		{"rotating-monitor", core.Options{Monitor: true, RotatingMonitor: true, MonitorFlushTimeout: 20, RetransmitTimeout: 30}, false},
		{"priorities", core.Options{Priorities: prio, RetransmitTimeout: 25}, false},
		{"strict-fairness", core.Options{StrictFairness: true, RetransmitTimeout: 25}, false},
		{"recovery-faults", core.Options{RetransmitTimeout: 30, Recovery: recovery}, true},
		{"monitor-recovery-faults", core.Options{Monitor: true, MonitorFlushTimeout: 20, RetransmitTimeout: 30, Recovery: recovery}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			type sent struct {
				msg dme.Message
				q   core.QList
			}
			var log []sent
			sends := 0
			tokenFaults := map[dme.FaultAction]int{}
			cfg := baseConfig(n, 0.45, 3000, 23)
			cfg.Fault = func(_ float64, _, _ dme.NodeID, msg dme.Message) dme.FaultAction {
				if q, ok := sentQList(msg); ok {
					log = append(log, sent{msg, slices.Clone(q)})
				}
				if !c.faults {
					return dme.Deliver
				}
				sends++
				action := dme.Deliver
				switch {
				case sends%97 == 0:
					action = dme.Drop
				case sends%13 == 0:
					action = dme.Duplicate
				}
				if msg.Kind() == core.KindPrivilege {
					tokenFaults[action]++
				}
				return action
			}
			run(t, c.opts, cfg)
			if c.faults && (tokenFaults[dme.Drop] == 0 || tokenFaults[dme.Duplicate] == 0) {
				t.Fatalf("PRIVILEGE faults: %d dropped, %d duplicated; want some of each",
					tokenFaults[dme.Drop], tokenFaults[dme.Duplicate])
			}
			batches := 0
			for i, s := range log {
				q, _ := sentQList(s.msg)
				if !slices.Equal(q, s.q) {
					t.Fatalf("%s #%d: Q-list changed after it was sent: sent %v, now %v", s.msg.Kind(), i, s.q, q)
				}
				if len(q) > 1 {
					batches++
				}
			}
			if batches == 0 {
				t.Fatalf("none of %d PRIVILEGE/NEW-ARBITER messages carried a batch of two or more", len(log))
			}
		})
	}
}

// sentQList returns the Q-list a PRIVILEGE or NEW-ARBITER carries.
func sentQList(msg dme.Message) (core.QList, bool) {
	switch m := msg.(type) {
	case core.Privilege:
		return m.Q, true
	case core.NewArbiter:
		return m.Q, true
	}
	return nil, false
}
