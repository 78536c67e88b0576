//go:build race

package eval

// raceEnabled: under the race detector sync.Pool drops Puts by design, so a
// from-scratch evaluation, which takes its scratch from the evaluator's pool,
// reallocates it and its allocation count means nothing.
const raceEnabled = true
