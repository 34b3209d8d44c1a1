package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// ledgerRow is one line of a workload's latency budget: a per-event cost
// times how often the event sits on one acquire's path.
type ledgerRow struct {
	Row    string  `json:"row"`
	EachUS float64 `json:"each_us"`
	Count  float64 `json:"count"`
	US     float64 `json:"us"`
}

// spanAnalysis is what the traced pass's spans say about each layer
// boundary, all in µs medians.
type spanAnalysis struct {
	acquires    int // client acquires joined to their LockFence on (key, fence)
	sessionSelf float64
	release     float64
	lockFence   float64
	unlock      float64
	unlocks     int
	step        float64
	steps       int
	send        float64
	sends       int
	flight      float64
	flights     int
	// hops is the mean number of inter-node messages on one acquire's
	// path: its own REQUESTs out and the PRIVILEGE in.
	hops float64
}

type nodeKey struct {
	node int
	key  string
}

type keyFence struct {
	key   string
	fence uint64
}

func medianDur(v []int64) float64 {
	slices.Sort(v)
	return percentile(v, .5) / 1e3
}

// countIn is how many of the sorted instants fall in [lo, hi].
func countIn(sorted []int64, lo, hi int64) int {
	a := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
	b := sort.Search(len(sorted), func(i int) bool { return sorted[i] > hi })
	return b - a
}

func analyseSpans(spans []span) spanAnalysis {
	lockFences := make(map[keyFence]span)
	sendStart := make(map[uint64]int64)
	// Per (node, key): when the node sent a REQUEST, and when it began
	// handling a PRIVILEGE.
	reqOut := make(map[nodeKey][]int64)
	privIn := make(map[nodeKey][]int64)
	var release, lockFence, unlock, step, send []int64
	for _, s := range spans {
		d := s.End - s.Start
		switch s.Kind {
		case spanLockFence:
			lockFences[keyFence{s.Key, s.Fence}] = s
			lockFence = append(lockFence, d)
		case spanUnlock:
			unlock = append(unlock, d)
		case spanRelease:
			release = append(release, d)
		case spanSend:
			send = append(send, d)
			sendStart[s.Msg] = s.Start
			if s.MsgKind == "REQUEST" {
				nk := nodeKey{s.Node, s.Key}
				reqOut[nk] = append(reqOut[nk], s.Start)
			}
		case spanHandle:
			step = append(step, d)
			if s.MsgKind == "PRIVILEGE" {
				nk := nodeKey{s.Node, s.Key}
				privIn[nk] = append(privIn[nk], s.Start)
			}
		}
	}
	for _, v := range reqOut {
		slices.Sort(v)
	}
	for _, v := range privIn {
		slices.Sort(v)
	}
	var self, flight []int64
	hops := 0
	for _, s := range spans {
		switch s.Kind {
		case spanAcquire:
			lf, ok := lockFences[keyFence{s.Key, s.Fence}]
			if !ok {
				continue // granted across the window's edge
			}
			self = append(self, (s.End-s.Start)-(lf.End-lf.Start))
			nk := nodeKey{lf.Node, lf.Key}
			hops += countIn(reqOut[nk], lf.Start, lf.End) + countIn(privIn[nk], lf.Start, lf.End)
		case spanHandle:
			if t0, ok := sendStart[s.Msg]; ok {
				flight = append(flight, s.Start-t0)
			}
		}
	}
	return spanAnalysis{
		acquires:    len(self),
		sessionSelf: medianDur(self),
		release:     medianDur(release),
		lockFence:   medianDur(lockFence),
		unlock:      medianDur(unlock),
		unlocks:     len(unlock),
		step:        medianDur(step),
		steps:       len(step),
		send:        medianDur(send),
		sends:       len(send),
		flight:      medianDur(flight),
		flights:     len(flight),
		hops:        ratio(float64(hops), float64(len(self))),
	}
}

// layers publishes the span-derived per-layer metrics.
func (a spanAnalysis) layers() *metricSet {
	m := newMetricSet(perLayerDefs)
	m.set("session.self_us", a.sessionSelf, a.acquires)
	m.set("session.release_us", a.release, a.acquires)
	m.set("live.lockfence_us", a.lockFence, a.acquires)
	m.set("live.unlock_us", a.unlock, a.unlocks)
	m.set("live.step_us", a.step, a.steps)
	m.set("transport.send_us", a.send, a.sends)
	m.set("transport.flight_us", a.flight, a.flights)
	return m
}

// ledger is the budget of one acquire: rows that, with the explicit
// remainder, add up to the traced pass's client p50. Flight is measured
// from Send's entry, so the row charges only the part after Send
// returned.
func (a spanAnalysis) ledger(p50us float64) (rows []ledgerRow, unattributedShare float64) {
	add := func(name string, each, count float64) {
		rows = append(rows, ledgerRow{Row: name, EachUS: each, Count: count, US: each * count})
	}
	add("session.self_us", a.sessionSelf, 1)
	add("core.window_us", protoTreq*1e6, 1)
	add("transport.send_us", a.send, a.hops)
	add("transport.flight_us - send_us", max(0, a.flight-a.send), a.hops)
	add("live.step_us", a.step, a.hops)
	sum := 0.0
	for _, r := range rows {
		sum += r.US
	}
	add("unattributed (timer lateness, grant wake)", p50us-sum, 1)
	return rows, ratio(p50us-sum, p50us)
}

func printLedger(w io.Writer, workload string, rows []ledgerRow, p50us float64) {
	fmt.Fprintf(w, "ledger %s: one acquire, traced pass, client p50 = %.1f us\n", workload, p50us)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-44s %9.1f us x %5.2f = %9.1f us  (%5.1f%%)\n", r.Row, r.EachUS, r.Count, r.US, 100*ratio(r.US, p50us))
	}
}
