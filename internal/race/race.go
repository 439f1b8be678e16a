//go:build race

// Package race tells a test whether it runs under the race detector. The
// race runtime allocates on its own behalf and sync.Pool drops items at
// random there, so an allocation count is not a stable measurement under
// -race: an allocation test still runs its body there, and asserts its
// count only when Enabled is false.
package race

// Enabled reports whether the binary was built with -race.
const Enabled = true
