//go:build race

package graphpart

// raceEnabled: under the race detector sync.Pool drops Puts by design, so the
// evaluator's pooled scratch is reallocated and miss-path allocation counts
// mean nothing.
const raceEnabled = true
