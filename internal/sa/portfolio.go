package sa

import (
	"math"
	"runtime/debug"

	"gemini/internal/core"
	"gemini/internal/eval"
)

// PanicInfo records a restart that panicked mid-anneal: which restart, the
// recovered value, and the goroutine stack at the panic site.
type PanicInfo struct {
	Restart int
	Value   any
	Stack   string
}

// Portfolio is the outcome of a multi-start annealing run.
type Portfolio struct {
	// Best is the winning restart's full result.
	Best Result
	// BestRestart is the winning restart index (ties go to the lowest
	// index, so the fold is deterministic).
	BestRestart int
	// Costs records every restart's best cost, in restart order. Its length
	// is the number of restarts that actually ran; it is shorter than
	// Planned when patience or an abandon callback stopped the portfolio.
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
	// Panic, when non-nil, records that a restart panicked. The portfolio
	// stops at the panicked restart and is NOT a settled outcome: folding
	// only the restarts that happened to precede the panic would make the
	// result depend on where the fault landed. Callers treat it as a
	// transient cell failure; a retry re-runs the whole portfolio with the
	// same derived seeds, so a successful retry is bit-identical to a
	// fault-free run.
	Panic *PanicInfo
}

// Skipped returns how many planned restarts never ran (a restart abandoned
// mid-anneal counts: it never completed).
func (p Portfolio) Skipped() int { return p.Planned - len(p.Costs) }

// RestartSeed derives the seed of restart i from the base seed. Restart 0
// uses the base seed itself, so a one-restart portfolio is bit-identical to
// a plain Optimize call.
func RestartSeed(base int64, i int) int64 {
	return base + int64(i)
}

// AdaptiveOptions configures early stopping of a multi-start portfolio.
// The zero value disables it, making MultiStartAdaptive bit-identical to
// MultiStart.
type AdaptiveOptions struct {
	// Patience stops the portfolio after this many consecutive restarts
	// that failed to improve the best cost (<= 0: never stop early).
	// Restart 0 always runs, and any Patience >= restarts can never
	// trigger, so such portfolios are bit-identical to the fixed schedule.
	Patience int
}

// MultiStart anneals the scheme restarts times with deterministically
// derived seeds and folds the runs to the best result. The restarts share
// the evaluator — and therefore its group-summary memo or shared cache — so
// later restarts race over mostly warm entries. The fold is a pure
// deterministic reduction: lowest cost wins, ties break to the lowest
// restart index, and NaN costs never beat non-NaN ones, so a fixed
// (scheme, evaluator params, options, restarts) tuple always yields a
// bit-identical winner regardless of cache state.
func MultiStart(input *core.Scheme, ev *eval.Evaluator, opt Options, restarts int) Portfolio {
	return MultiStartAdaptive(input, ev, opt, restarts, AdaptiveOptions{})
}

// MultiStartAdaptive is MultiStart with an adaptive schedule: restarts run
// in the same deterministic order with the same derived seeds, but the
// portfolio stops early after ao.Patience consecutive non-improving seeds,
// and opt.Stop can abandon it. The fold over the restarts that do run is
// identical to MultiStart's, so a portfolio that never stops early
// (Patience <= 0 or >= restarts, Stop never firing) is bit-identical to the
// fixed schedule.
func MultiStartAdaptive(input *core.Scheme, ev *eval.Evaluator, opt Options, restarts int, ao AdaptiveOptions) Portfolio {
	if restarts < 1 {
		restarts = 1
	}
	return MultiStartRange(input, ev, opt, 0, restarts, ao)
}

// MultiStartRange runs the restart window [from, to) of the portfolio the
// base options define: restart i always anneals with RestartSeed(opt.Seed, i)
// regardless of the window, so a portfolio can be widened incrementally — the
// racing scheduler's rungs and checkpoint re-entry rely on folding a stored
// prefix [0, from) with a fresh window [from, to) being bit-identical to one
// [0, to) run. BestRestart is the absolute restart index. opt.Stop is polled
// before every restart except restart 0 of the full portfolio (a window with
// from > 0 resumes mid-portfolio, where the poll already happened between
// restarts) and on its stride inside each restart; ao.Patience counts
// non-improving restarts within the window only. Requires 0 <= from < to;
// out-of-range arguments are clamped to the smallest valid window.
func MultiStartRange(input *core.Scheme, ev *eval.Evaluator, opt Options, from, to int, ao AdaptiveOptions) Portfolio {
	if from < 0 {
		from = 0
	}
	if to <= from {
		to = from + 1
	}
	p := Portfolio{Costs: make([]float64, 0, to-from), Planned: to - from}
	streak := 0
	for i := from; i < to; i++ {
		if i > 0 && opt.Stop != nil && opt.Stop() {
			p.Abandoned = true
			break
		}
		o := opt
		o.Seed = RestartSeed(opt.Seed, i)
		r, pi := optimizeGuarded(input, ev, o, i)
		if pi != nil {
			p.Panic = pi
			break
		}
		p.Iterations += r.Attempted
		if r.Abandoned {
			// The Stop hook cut this restart off mid-anneal: its partial
			// cost is not a completed restart outcome, so it joins neither
			// Costs nor the fold.
			p.Abandoned = true
			break
		}
		p.Costs = append(p.Costs, r.Cost)
		if i == from || BetterCost(r.Cost, p.Best.Cost) {
			p.Best = r
			p.BestRestart = i
			streak = 0
		} else {
			streak++
		}
		if ao.Patience > 0 && streak >= ao.Patience {
			break
		}
	}
	return p
}

// optimizeGuarded runs one restart under a panic guard, so a fault in one
// anneal (a pathological scheme, an injected chaos panic) surfaces as data
// on the portfolio instead of unwinding the scheduler worker.
func optimizeGuarded(input *core.Scheme, ev *eval.Evaluator, o Options, restart int) (r Result, pi *PanicInfo) {
	defer func() {
		if v := recover(); v != nil {
			pi = &PanicInfo{Restart: restart, Value: v, Stack: string(debug.Stack())}
		}
	}()
	return Optimize(input, ev, o), nil
}

// BetterCost reports whether a strictly improves on b under a total order
// where NaN is worse than everything (including +Inf).
func BetterCost(a, b float64) bool {
	if math.IsNaN(a) {
		return false
	}
	if math.IsNaN(b) {
		return true
	}
	return a < b
}
