// Package tokenarbiter is a Go implementation and full experimental
// reproduction of Banerjee & Chrysanthis, "A New Token Passing
// Distributed Mutual Exclusion Algorithm" (ICDCS 1996).
//
// The module is organized as internal packages (see README.md for the
// map); this root package only anchors the module documentation. The
// paper's evaluation regenerates with cmd/mutexsim (one subcommand per
// table/figure), and performance is measured by the benchmark in bench/
// that BENCHMARK.json declares.
//
// Deployable API: internal/live (live.NewManager, then Lock(ctx, key) /
// Unlock(key) over a transport).
// Simulation & experiments: internal/dme, internal/experiments,
// cmd/mutexsim.
package tokenarbiter
