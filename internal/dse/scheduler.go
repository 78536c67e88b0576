// Sweep scheduler: decides the order (candidate, model) cells are
// dispatched in, owns the live pruning incumbent, and accounts for the work
// the bound gate saved. Cells dispatch in ascending objective-lower-bound
// order (ties keep enumeration order), so the candidates most likely to
// produce a tight incumbent run first and the expensive, hopeless tail is
// pruned without ever being mapped; with pruning off the order only
// schedules, never changes results. On resumed sessions the incumbent is
// additionally seeded from fully checkpointed candidates, so pruning is
// active from the very first task.
package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"gemini/internal/arch"
	"gemini/internal/cost"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// IncumbentStep is one tightening of the pruning incumbent during a sweep.
type IncumbentStep struct {
	// Candidate names the feasible candidate that improved the incumbent;
	// the synthetic name "(checkpoint seed)" marks the initial value
	// restored from checkpointed cells.
	Candidate string
	Obj       float64
}

// SweepStats is the scheduler's per-sweep observability record.
type SweepStats struct {
	// SweepID echoes Options.SweepID (empty for unnamed sweeps).
	SweepID string
	// Candidates is the number of architecture candidates in the sweep.
	Candidates int
	// Cells is the total (candidate, model) grid size.
	Cells int
	// Canceled reports that the sweep's context was canceled before every
	// cell settled; unfinished cells carry errors wrapping the context's
	// error and are never checkpointed.
	Canceled bool

	// ResumedCells counts cells served from the checkpoint this sweep.
	ResumedCells int
	// PrunedCandidates counts candidates the bound gate skipped or cut off.
	PrunedCandidates int
	// AbandonedRestarts counts SA restarts never completed because the live
	// incumbent dominated a cell's candidate mid-portfolio (a restart cut
	// off mid-anneal by the in-loop check counts: it never finished).
	AbandonedRestarts int
	// SAIterations is the total annealing iterations the sweep attempted
	// across every cell, partial abandoned restarts included. With in-loop
	// abandonment active a dominated-cell workload spends strictly fewer
	// iterations than with between-restart checks alone.
	SAIterations int

	// Panics counts recovered panics — each one became a typed CellError on
	// its cell (or cost one candidate's result row) instead of killing the
	// sweep.
	Panics int
	// LastPanic is the most recent recovered panic's message and stack
	// (empty when Panics == 0), so a one-off crash is diagnosable from the
	// sweep record alone.
	LastPanic string
	// PersistenceErrors counts background persistence failures (disk-cache
	// spill saves) during this sweep. The sweep itself keeps running on
	// in-memory state; persistence failures degrade restart cost, never
	// correctness.
	PersistenceErrors int
	// PersistenceDegraded reports that the persistence layer ended the
	// sweep in degraded mode (several consecutive failed saves);
	// LastPersistenceError is the most recent failure.
	PersistenceDegraded  bool
	LastPersistenceError string

	// SeededIncumbent is the incumbent value restored from checkpointed
	// cells before the first task ran (+Inf when nothing seeded).
	SeededIncumbent float64
	// Trajectory records every incumbent improvement in the order it
	// happened, checkpoint seed included.
	Trajectory []IncumbentStep
}

// incumbent is a sweep-scoped best-feasible-objective tracker for pruning.
// It is deliberately NOT session-scoped: two Run calls may use different
// objectives or batches, and an incumbent from one is no bound for the
// other. get is lock-free (it is polled by the SA stop hook and before every
// cell); note serializes improvements and the trajectory. An optional
// external incumbent (Options.Incumbent, set by fleet workers) folds a
// fleet-wide best into get — it only ever carries achieved feasible
// objectives, so the min fold stays a sound pruning bound.
type incumbent struct {
	bits atomic.Uint64 // Float64bits of the current best
	ext  func() float64

	mu    sync.Mutex
	steps []IncumbentStep
}

func newIncumbent(ext func() float64) *incumbent {
	in := &incumbent{ext: ext}
	in.bits.Store(math.Float64bits(math.Inf(1)))
	return in
}

func (in *incumbent) get() float64 {
	best := math.Float64frombits(in.bits.Load())
	if in.ext != nil {
		if ext := in.ext(); ext < best {
			best = ext
		}
	}
	return best
}

func (in *incumbent) note(name string, obj float64) {
	if math.IsNaN(obj) || math.IsInf(obj, 1) {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if obj < math.Float64frombits(in.bits.Load()) {
		in.bits.Store(math.Float64bits(obj))
		in.steps = append(in.steps, IncumbentStep{Candidate: name, Obj: obj})
	}
}

func (in *incumbent) trajectory() []IncumbentStep {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]IncumbentStep, len(in.steps))
	copy(out, in.steps)
	return out
}

// candState tracks one candidate's progress through the scheduler.
type candState struct {
	remaining atomic.Int32
	pruned    atomic.Bool
	lb        float64 // objective lower bound
}

// scheduler runs one sweep's (candidate, model) grid.
type scheduler struct {
	ses    *Session
	ctx    context.Context
	cands  []arch.Config
	models []*dnn.Graph
	opt    Options
	optFP  uint64
	mce    *cost.Evaluator

	// stats is the published per-sweep record, valid after run returns; it
	// is what RunContext hands back.
	stats SweepStats

	prune  bool
	inc    *incumbent
	states []*candState
	order  []int // candidate dispatch order

	seeded    float64
	resumed   atomic.Int64
	pruned    atomic.Int64
	abandoned atomic.Int64
	saIters   atomic.Int64
	panics    atomic.Int64

	panicMu   sync.Mutex
	lastPanic string
}

// notePanic counts a recovered panic, records it as the most recent one for
// SweepStats and logs it — a recovered panic must never be silent.
func (sc *scheduler) notePanic(where, stack string) {
	sc.panics.Add(1)
	sc.panicMu.Lock()
	sc.lastPanic = stack
	sc.panicMu.Unlock()
	sc.ses.logf("dse: recovered panic in %s: %s", where, stack)
}

// newScheduler computes per-candidate bounds, fixes the dispatch order and
// seeds the incumbent from checkpointed cells.
func (s *Session) newScheduler(ctx context.Context, cands []arch.Config, models []*dnn.Graph, opt Options) *scheduler {
	sc := &scheduler{
		ses:    s,
		ctx:    ctx,
		cands:  cands,
		models: models,
		opt:    opt,
		optFP:  optsFingerprint(opt),
		mce:    cost.New(),
		inc:    newIncumbent(opt.Incumbent),
		states: make([]*candState, len(cands)),
		order:  make([]int, len(cands)),
		seeded: math.Inf(1),
	}
	sc.prune = opt.Prune && objMonotone(opt.Objective)
	if opt.Prune && !sc.prune {
		s.logf("dse: pruning disabled: objective %+v is not monotone", opt.Objective)
	}
	params := eval.DefaultParams()
	demands := make([]*modelDemand, len(models))
	for mi, g := range models {
		demands[mi] = computeDemand(g)
	}
	eLBs := make([]float64, len(models))
	dLBs := make([]float64, len(models))
	for ci := range cands {
		st := &candState{}
		st.remaining.Store(int32(len(models)))
		sc.states[ci] = st
		sc.order[ci] = ci
		mc := sc.mce.Evaluate(&cands[ci]).Total()
		for mi, d := range demands {
			eLBs[mi], dLBs[mi] = lowerBoundED(&cands[ci], d, &params, opt)
		}
		st.lb = mixedBound(mc, eLBs, dLBs, nil, opt.Objective)
		if sc.prune {
			// Bound-aware seeding breadth: a partially checkpointed
			// candidate's own bound tightens by substituting the actual
			// (restored-verbatim) energies and delays of its settled
			// cells for their lower bounds. The mix stays a lower bound
			// on the candidate's final objective — never an incumbent:
			// an unachieved value must not prune *other* candidates, but
			// it may prune its own, so partial resumes cut dominated
			// candidates off before their missing cells are mapped.
			if mixed := sc.partialCheckpointBound(ci, mc, eLBs, dLBs); mixed > st.lb {
				st.lb = mixed
			}
		}
	}
	sort.SliceStable(sc.order, func(a, b int) bool {
		return sc.states[sc.order[a]].lb < sc.states[sc.order[b]].lb
	})
	if sc.prune {
		sc.seedIncumbent()
	}
	return sc
}

// mixedBound folds per-model energy/delay values into the candidate
// objective in log space (exactly reduceCandidate's geomean; math.Log(0)
// is -Inf and math.Exp(-Inf) is 0, so zero bounds flow through the mean
// exactly). When rec is non-nil, rec[mi] overrides the bound with a
// checkpointed cell's actual values; a nil entry keeps the lower bound.
func mixedBound(mc float64, eLBs, dLBs []float64, rec []*cellRecord, obj Objective) float64 {
	n := float64(len(eLBs))
	if n == 0 {
		return 0
	}
	var sumLogE, sumLogD float64
	for mi := range eLBs {
		e, d := eLBs[mi], dLBs[mi]
		if rec != nil && rec[mi] != nil {
			e, d = rec[mi].Energy, rec[mi].Delay
		}
		sumLogE += math.Log(e)
		sumLogD += math.Log(d)
	}
	return Score(mc, math.Exp(sumLogE/n), math.Exp(sumLogD/n), obj)
}

// partialCheckpointBound refines a candidate's lower bound from its
// partially checkpointed cells: settled feasible cells contribute their
// achieved energy/delay (they will be restored verbatim, so those values
// are exact), missing cells keep their per-model lower bounds. The result
// is therefore still a lower bound on the candidate's final objective —
// sound for pruning the candidate itself and for ordering, unlike seeding
// the shared incumbent with it, which would unsoundly prune others. It
// returns 0 (no refinement) when nothing is checkpointed, when everything
// is (the full-checkpoint incumbent seed already covers that case and the
// restored candidate must keep reporting its real outcome), or when any
// settled cell is infeasible (the candidate must be reported infeasible,
// not pruned).
func (sc *scheduler) partialCheckpointBound(ci int, mc float64, eLBs, dLBs []float64) float64 {
	if len(sc.models) == 0 {
		return 0
	}
	fp := eval.ConfigFingerprint(&sc.cands[ci])
	recs := make([]*cellRecord, len(sc.models))
	settled := 0
	for mi, g := range sc.models {
		rec, ok := sc.ses.peekCell(cellKey(fp, g.Name, sc.optFP))
		if !ok {
			continue
		}
		if !rec.Feasible {
			return 0
		}
		r := rec
		recs[mi] = &r
		settled++
	}
	if settled == 0 || settled == len(sc.models) {
		return 0
	}
	return mixedBound(mc, eLBs, dLBs, recs, sc.opt.Objective)
}

// seedIncumbent restores the pruning incumbent from the checkpoint: any
// candidate of this sweep whose every (candidate, model) cell is already
// checkpointed feasible will be restored verbatim during the sweep, so its
// folded objective is an achieved value — a sound incumbent before the
// first task runs. Restricting the scan to this sweep's candidates keeps
// the invariant that the sweep's true optimum can never be pruned.
func (sc *scheduler) seedIncumbent() {
	if len(sc.models) == 0 {
		return
	}
	for ci := range sc.cands {
		fp := eval.ConfigFingerprint(&sc.cands[ci])
		per := make([]pairOutcome, len(sc.models))
		complete := true
		for mi, g := range sc.models {
			rec, ok := sc.ses.peekCell(cellKey(fp, g.Name, sc.optFP))
			if !ok || !rec.Feasible {
				complete = false
				break
			}
			per[mi] = rec.outcome()
		}
		if !complete {
			continue
		}
		cr := reduceCandidate(&sc.cands[ci], per, sc.models, sc.mce, sc.opt)
		if cr.Feasible {
			sc.inc.note("(checkpoint seed)", cr.Obj)
		}
	}
	sc.seeded = sc.inc.get()
	if !math.IsInf(sc.seeded, 1) {
		sc.ses.logf("dse: incumbent seeded from checkpoint: %.6g", sc.seeded)
	}
}

// markPruned cuts a candidate off (idempotently) and logs the decision.
func (sc *scheduler) markPruned(ci int, best float64) {
	st := sc.states[ci]
	if st.pruned.CompareAndSwap(false, true) {
		sc.pruned.Add(1)
		sc.ses.logf("dse: pruned %s: objective lower bound %.6g > best feasible %.6g",
			sc.cands[ci].Name, st.lb, best)
	}
}

// run executes the sweep and returns one CandidateResult per candidate, in
// candidate order (unsorted).
func (sc *scheduler) run() []CandidateResult {
	nm := len(sc.models)
	results := make([]CandidateResult, len(sc.cands))
	per := make([][]pairOutcome, len(sc.cands))
	for i := range sc.cands {
		per[i] = make([]pairOutcome, nm)
	}

	var onMu sync.Mutex
	finish := func(ci int) {
		// Backstop recover: reduceCandidate and the OnResult callback run
		// user-adjacent code (custom callbacks, exotic objectives); a panic
		// here must cost one candidate's result row, not the worker pool or
		// — through the sweep service — the server process.
		defer func() {
			if v := recover(); v != nil {
				sc.notePanic(fmt.Sprintf("finishing candidate %s", sc.cands[ci].Name),
					fmt.Sprintf("%v\n%s", v, debug.Stack()))
			}
		}()
		st := sc.states[ci]
		var cr CandidateResult
		if st.pruned.Load() {
			cr = CandidateResult{
				Cfg: sc.cands[ci], MC: sc.mce.Evaluate(&sc.cands[ci]),
				Obj: math.Inf(1), Pruned: true, LowerBound: st.lb,
			}
		} else {
			cr = reduceCandidate(&sc.cands[ci], per[ci], sc.models, sc.mce, sc.opt)
			if cr.Feasible {
				sc.inc.note(cr.Cfg.Name, cr.Obj)
			}
		}
		results[ci] = cr
		if sc.opt.OnResult != nil {
			// Deferred unlock: the recover above fields OnResult panics, and a
			// plain Unlock after the call would be skipped during the unwind —
			// deadlocking every later candidate on a mutex nobody holds usefully.
			onMu.Lock()
			defer onMu.Unlock()
			sc.opt.OnResult(cr)
		}
	}

	total := len(sc.cands) * nm
	if total == 0 {
		for ci := range sc.cands {
			finish(ci)
		}
		sc.publishStats()
		return results
	}

	// The feed walks the schedule candidate-major, so a candidate's cells
	// complete (and its objective lands in the incumbent) as early as
	// possible.
	sc.dispatch(nm, per, func(ci int) {
		if sc.states[ci].remaining.Add(-1) == 0 {
			finish(ci)
		}
	})
	// A wrapped feed may shut before delivering every cell: candidates with
	// undelivered cells never hit remaining == 0, so fill the gaps with a
	// cancellation error and finish them here — an undelivered cell must
	// read as canceled, never as spurious infeasibility (a zero
	// pairOutcome), and every candidate must produce its result row exactly
	// once.
	for _, ci := range sc.order {
		if sc.states[ci].remaining.Load() > 0 {
			sc.fillUndelivered(ci, nm, per)
			finish(ci)
		}
	}
	sc.publishStats()
	return results
}

// fillUndelivered marks one candidate's never-dispatched cells as canceled.
// Only zero outcomes are touched: delivered cells keep their results, and
// pruned candidates need no cell outcomes at all.
func (sc *scheduler) fillUndelivered(ci, nm int, per [][]pairOutcome) {
	if sc.states[ci].pruned.Load() {
		return
	}
	err := sc.ctx.Err()
	if err == nil {
		// The feed was shut without the sweep context being canceled (a
		// dispatcher wrapper withheld cells): still a cancellation from the
		// cell's point of view.
		err = context.Canceled
	}
	for mi := 0; mi < nm; mi++ {
		p := &per[ci][mi]
		if p.mr == nil && p.err == nil && !p.abandoned {
			*p = pairOutcome{err: fmt.Errorf("dse: cell not dispatched: %w", err)}
		}
	}
}

func (sc *scheduler) workerCount(tasks int) int {
	workers := sc.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	return workers
}

// dispatch settles every (candidate, model) cell of the sweep on a worker
// pool and barriers on completion. cellDone runs on the worker after each
// delivered cell with the cell's candidate index; Options.Dispatch may wrap
// the feed.
func (sc *scheduler) dispatch(nm int, per [][]pairOutcome, cellDone func(ci int)) {
	feed := sc.feed(nm)
	var wg sync.WaitGroup
	for w := 0; w < sc.workerCount(len(sc.order)*nm); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, ok := feed.Next()
				if !ok {
					return
				}
				sc.runTaskGuarded(k, nm, per)
				cellDone(k / nm)
			}
		}()
	}
	wg.Wait()
}

// runTaskGuarded is the worker-level panic backstop. The mapping pipeline
// itself is recovered inside Session.runCell, but the scheduler's own cell
// bookkeeping (bound math, checkpoint peeks) runs outside it; a panic there
// records a typed CellError on the cell and keeps the worker — and with it
// the sweep and the serving process — alive.
func (sc *scheduler) runTaskGuarded(k, nm int, per [][]pairOutcome) {
	defer func() {
		if v := recover(); v != nil {
			ci, mi := k/nm, k%nm
			ce := &CellError{
				Candidate: sc.cands[ci].Name, Model: sc.models[mi].Name,
				Stack: string(debug.Stack()), Err: fmt.Errorf("%v", v),
			}
			per[ci][mi] = pairOutcome{err: ce}
			sc.notePanic("scheduler task", ce.trace())
		}
	}()
	sc.runTask(k, nm, per)
}

// runTask executes one (candidate, model) cell under the live bound gate
// and the sweep context.
func (sc *scheduler) runTask(k, nm int, per [][]pairOutcome) {
	ci, mi := k/nm, k%nm
	st := sc.states[ci]
	key := cellKey(eval.ConfigFingerprint(&sc.cands[ci]), sc.models[mi].Name, sc.optFP)
	if err := sc.ctx.Err(); err != nil {
		// Canceled sweep: fail the remaining cells fast. Nothing is stored,
		// so a resumed sweep recomputes exactly these cells.
		per[ci][mi] = pairOutcome{err: fmt.Errorf("dse: cell not run: %w", err)}
		return
	}
	if sc.prune && !st.pruned.Load() {
		// The incumbent is live: re-check before every cell, not just the
		// candidate's first, so a candidate whose remaining cells became
		// hopeless mid-sweep is cut off. Checkpointed cells are exempt:
		// restoring them is free, and discarding a finished result as
		// "pruned" would make a resumed sweep report less than the run
		// that produced the checkpoint.
		if _, done := sc.ses.peekCell(key); !done {
			if best := sc.inc.get(); st.lb > best {
				sc.markPruned(ci, best)
			}
		}
	}
	if st.pruned.Load() {
		return
	}
	// The stop gate is the SA stop hook: it abandons the cell when the sweep
	// is canceled, or — with pruning active — when the live incumbent
	// already dominates this candidate's bound.
	gated := sc.prune && st.lb > 0
	stop := func() bool {
		if sc.ctx.Err() != nil {
			return true
		}
		return gated && st.lb > sc.inc.get()
	}
	out := sc.ses.runCell(&sc.cands[ci], sc.models[mi], sc.opt, key, stop)
	sc.saIters.Add(int64(out.saIterations))
	var ce *CellError
	if errors.As(out.err, &ce) {
		sc.notePanic(fmt.Sprintf("cell %s/%s", sc.cands[ci].Name, sc.models[mi].Name), ce.trace())
	}
	if out.abandoned {
		if err := sc.ctx.Err(); err != nil {
			// Abandoned because the sweep was canceled, not because the
			// candidate is dominated: report the cancellation, never
			// "pruned".
			per[ci][mi] = pairOutcome{err: fmt.Errorf("dse: cell abandoned: %w", err)}
			return
		}
		// The portfolio walked away mid-cell because the incumbent already
		// dominates this candidate's bound; the partial result is not a
		// settled outcome, so it is neither recorded nor checkpointed.
		sc.abandoned.Add(int64(out.abandonedRestarts))
		sc.markPruned(ci, sc.inc.get())
		return
	}
	if out.restored {
		sc.resumed.Add(1)
	}
	per[ci][mi] = out
}

// publishStats folds the counters into the sweep's stats record and logs the
// one-line summary.
func (sc *scheduler) publishStats() {
	stats := SweepStats{
		SweepID:           sc.opt.SweepID,
		Candidates:        len(sc.cands),
		Cells:             len(sc.cands) * len(sc.models),
		Canceled:          sc.ctx.Err() != nil,
		ResumedCells:      int(sc.resumed.Load()),
		PrunedCandidates:  int(sc.pruned.Load()),
		AbandonedRestarts: int(sc.abandoned.Load()),
		SAIterations:      int(sc.saIters.Load()),
		Panics:            int(sc.panics.Load()),
		SeededIncumbent:   sc.seeded,
		Trajectory:        sc.inc.trajectory(),
	}
	sc.panicMu.Lock()
	stats.LastPanic = sc.lastPanic
	sc.panicMu.Unlock()
	sc.stats = stats
	state := "done"
	if stats.Canceled {
		state = "canceled"
	}
	sc.ses.logf("dse: sweep %s %s: %d candidates (%d pruned), %d cells (%d resumed), %d restarts abandoned, incumbent %.6g",
		sweepName(sc.opt.SweepID), state, stats.Candidates, stats.PrunedCandidates, stats.Cells, stats.ResumedCells,
		stats.AbandonedRestarts, sc.inc.get())
	if stats.Panics > 0 {
		sc.ses.logf("dse: sweep %s faults: %d recovered panics", sweepName(sc.opt.SweepID), stats.Panics)
	}
}
