//go:build race

// Package race reports whether the binary was built with the race detector,
// for the allocation gates that count the engine's row chunks: such a build
// compiles append(s, make([]T, n)...) — slices.Grow, which cuts the chunks —
// as a make and an append, two allocations where a normal build makes one.
package race

// Enabled is true in a race-detector build.
const Enabled = true
