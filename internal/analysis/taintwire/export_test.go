package taintwire

import "testing"

// SetChokepoints points the chokepoint list at fixture functions until
// the test ends.
func SetChokepoints(t *testing.T, funcs ...string) {
	prev := chokepoints
	chokepoints = make(map[string]bool)
	for _, f := range funcs {
		chokepoints[f] = true
	}
	t.Cleanup(func() { chokepoints = prev })
}
