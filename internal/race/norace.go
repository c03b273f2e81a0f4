//go:build !race

package race

// Enabled is true in a race-detector build.
const Enabled = false
