package main

import (
	"fmt"
	"sync"
)

// oracle is the load generator's safety checker. Every grant any client
// observes, on any node, passes through enter; every release through
// exit. It asserts the three properties a lock service sells:
//
//   - mutual exclusion: per key, at most one client is between enter and
//     exit at any instant;
//   - fencing: per key, fences are strictly increasing across every
//     client and node, including across §6 token regenerations;
//   - pairing: every enter is matched by exactly one exit.
//
// Clients call exit before they send the release, so a grant the server
// hands to the next waiter the instant the release lands can never
// overlap the previous holder's bracket.
type oracle struct {
	mu   sync.Mutex
	keys map[string]*oracleKey

	exclusion int
	fence     int
	unpaired  int
	first     string // first violation, for the failure message
}

type oracleKey struct {
	inCS      int
	lastFence uint64
	enters    uint64
	exits     uint64
}

func newOracle() *oracle { return &oracle{keys: make(map[string]*oracleKey)} }

func (o *oracle) key(k string) *oracleKey {
	ks := o.keys[k]
	if ks == nil {
		ks = &oracleKey{}
		o.keys[k] = ks
	}
	return ks
}

func (o *oracle) note(format string, args ...any) {
	if o.first == "" {
		o.first = fmt.Sprintf(format, args...)
	}
}

// enter records a grant of key with the given fence.
func (o *oracle) enter(k string, fence uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ks := o.key(k)
	if ks.inCS > 0 {
		o.exclusion++
		o.note("key %q granted with fence %d while fence %d is still held", k, fence, ks.lastFence)
	}
	if fence <= ks.lastFence {
		o.fence++
		o.note("key %q fence %d after fence %d", k, fence, ks.lastFence)
	}
	ks.lastFence = fence
	ks.inCS++
	ks.enters++
}

// exit records the end of the holder's critical section on key.
func (o *oracle) exit(k string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ks := o.key(k)
	if ks.inCS == 0 {
		o.unpaired++
		o.note("key %q released while not held", k)
		return
	}
	ks.inCS--
	ks.exits++
}

// verdict closes the books once every client has stopped: any enter
// still open is an unpaired acquire. It returns nil when all three
// properties held.
func (o *oracle) verdict() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for k, ks := range o.keys {
		if ks.enters != ks.exits {
			o.unpaired += int(ks.enters - ks.exits)
			o.note("key %q: %d acquires but %d releases", k, ks.enters, ks.exits)
		}
	}
	if o.exclusion == 0 && o.fence == 0 && o.unpaired == 0 {
		return nil
	}
	return fmt.Errorf("safety violated: %d mutual-exclusion, %d fence-order, %d unpaired (first: %s)",
		o.exclusion, o.fence, o.unpaired, o.first)
}
