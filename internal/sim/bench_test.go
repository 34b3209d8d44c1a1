package sim

import "testing"

// BenchmarkPostStep is the kernel hot loop in isolation over the
// fire-and-forget path used by message delivery — the hottest producer in
// a real run: post one event, execute one event, with the queue held at a
// steady depth that mirrors a loaded simulation. Run with -benchmem: the
// headline number is allocs/op, which the free-list pool is expected to
// hold near zero. (The cancellable Schedule path is bench/'s
// sim.event_ns.)
func BenchmarkPostStep(b *testing.B) {
	s := New(1)
	var fn func()
	depth := 0
	fn = func() {
		depth--
	}
	refill := func() {
		for depth < 64 {
			s.Post(s.RNG().Float64(), fn)
			depth++
		}
	}
	refill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refill()
		s.Step()
	}
}

// BenchmarkCancelHeavy models timer-heavy protocol phases: most scheduled
// events are cancelled before they fire (retransmit timers that a timely
// ACK disarms). Without compaction the queue grows without bound and every
// Step wades through garbage; with it, cost stays flat.
func BenchmarkCancelHeavy(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keep := s.Schedule(0.5, fn)
		for j := 0; j < 8; j++ {
			ev := s.Schedule(1+s.RNG().Float64(), fn)
			ev.Cancel()
		}
		_ = keep
		s.Step()
	}
	b.StopTimer()
	if p := s.Pending(); p > 1_000_000 {
		b.Fatalf("queue grew without bound: %d pending", p)
	}
}
