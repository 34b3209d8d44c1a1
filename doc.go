// Package tokenarbiter is a Go implementation and full experimental
// reproduction of Banerjee & Chrysanthis, "A New Token Passing
// Distributed Mutual Exclusion Algorithm" (ICDCS 1996).
//
// The module is organized as internal packages (see README.md for the
// map); this root package only anchors the module documentation and the
// paper-reproduction benchmarks in bench_test.go — one testing.B
// benchmark per table/figure of the paper's evaluation:
//
//	go test -bench=. -benchmem
//
// Deployable API: internal/live (live.NewManager, then Lock(ctx, key) /
// Unlock(key) over a transport).
// Simulation & experiments: internal/dme, internal/experiments,
// cmd/mutexsim.
package tokenarbiter
