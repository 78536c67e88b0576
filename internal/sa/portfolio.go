package sa

import (
	"math"

	"gemini/internal/core"
	"gemini/internal/eval"
)

// Portfolio is the outcome of a multi-start annealing run.
type Portfolio struct {
	// Best is the winning restart's full result.
	Best Result
	// BestRestart is the winning restart index (ties go to the lowest
	// index, so the fold is deterministic).
	BestRestart int
	// Costs records every restart's best cost, in restart order. Its length
	// is the number of restarts that actually ran; it is shorter than
	// Planned when the Options.Stop hook abandoned the portfolio.
	Costs []float64
	// Planned is the requested portfolio width.
	Planned int
	// Abandoned reports that the Options.Stop hook interrupted the portfolio
	// between restarts or one restart mid-anneal. Best holds the best result
	// of the restarts that did run,
	// but callers that abandon because the whole cell is dominated typically
	// discard it.
	Abandoned bool
	// Iterations is the total SA iterations attempted across every restart,
	// including the partial iterations of a mid-anneal abandoned restart.
	// The DSE scheduler aggregates it to account for the work in-loop
	// abandonment saves.
	Iterations int
}

// RestartSeed derives the seed of restart i from the base seed. Restart 0
// uses the base seed itself, so a one-restart portfolio is bit-identical to
// a plain Optimize call.
func RestartSeed(base int64, i int) int64 {
	return base + int64(i)
}

// MultiStart anneals the scheme restarts times (<= 1: once) with
// deterministically derived seeds and folds the runs to the best result.
// The restarts share the evaluator — and therefore its group-summary memo or
// shared cache and its intra-core memo — so a later restart's first
// measurement of the input scheme is served from the cache. The fold
// is a pure deterministic reduction: lowest cost wins, ties break to the
// lowest restart index, and NaN costs never beat non-NaN ones, so a fixed
// (scheme, evaluator params, options, restarts) tuple always yields a
// bit-identical winner regardless of cache state. opt.Stop, when set, is
// polled before every restart after the first and on its stride inside each
// restart; when it fires the portfolio is abandoned. Restarts run one after
// another on the caller's goroutine and MultiStart recovers nothing: a
// panicking restart unwinds the whole portfolio to the caller, so a partial
// portfolio is never folded into a result.
func MultiStart(input *core.Scheme, ev *eval.Evaluator, opt Options, restarts int) Portfolio {
	if restarts < 1 {
		restarts = 1
	}
	p := Portfolio{Costs: make([]float64, 0, restarts), Planned: restarts}
	for i := 0; i < restarts; i++ {
		if i > 0 && opt.Stop != nil && opt.Stop() {
			p.Abandoned = true
			break
		}
		o := opt
		o.Seed = RestartSeed(opt.Seed, i)
		r := Optimize(input, ev, o)
		p.Iterations += r.Attempted
		if r.Abandoned {
			// The Stop hook cut this restart off mid-anneal: its partial
			// cost is not a completed restart outcome, so it joins neither
			// Costs nor the fold.
			p.Abandoned = true
			break
		}
		p.Costs = append(p.Costs, r.Cost)
		if i == 0 || betterCost(r.Cost, p.Best.Cost) {
			p.Best = r
			p.BestRestart = i
		}
	}
	return p
}

// betterCost reports whether a strictly improves on b under a total order
// where NaN is worse than everything (including +Inf).
func betterCost(a, b float64) bool {
	if math.IsNaN(a) {
		return false
	}
	if math.IsNaN(b) {
		return true
	}
	return a < b
}
