//go:build !race

// Package race reports whether the binary was built with the race
// detector. Allocation-budget tests skip under it: the detector's
// instrumentation allocates on paths that allocate nothing without it.
package race

// Enabled is true in a -race build.
const Enabled = false
