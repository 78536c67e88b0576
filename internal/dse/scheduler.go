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
	Candidate string `json:"candidate"`
	// Obj is the improved incumbent value (always finite).
	Obj float64 `json:"objective"`
}

// SweepStats is the scheduler's per-sweep observability record. It is also
// the wire record: serve's done event and GET /sweeps/{id} carry it as their
// stats, and a fleet worker uploads it when its shard completes, so every
// field is JSON-safe.
type SweepStats struct {
	// Candidates is the number of architecture candidates in the sweep.
	Candidates int `json:"candidates"`
	// Cells is the total (candidate, model) grid size.
	Cells int `json:"cells"`
	// Canceled reports that the sweep's context was canceled before every
	// cell settled; unfinished cells carry errors wrapping the context's
	// error and are never checkpointed.
	Canceled bool `json:"canceled,omitempty"`

	// ResumedCells counts cells served from the checkpoint this sweep.
	ResumedCells int `json:"resumed_cells"`
	// PartitionsReused counts cells whose DP graph partition came from the
	// session's partition memo instead of being recomputed: every mapped
	// cell of a sweep that only reseeds a grid the session already ran.
	PartitionsReused int `json:"partitions_reused,omitempty"`
	// PrunedCandidates counts candidates the bound gate skipped or cut off.
	PrunedCandidates int `json:"pruned_candidates"`
	// AbandonedRestarts counts SA restarts never completed because the live
	// incumbent dominated a cell's candidate mid-portfolio (a restart cut
	// off mid-anneal by the in-loop check counts: it never finished).
	AbandonedRestarts int `json:"abandoned_restarts"`
	// SAIterations is the total annealing iterations the sweep attempted
	// across every cell, partial abandoned restarts included. With in-loop
	// abandonment active a dominated-cell workload spends strictly fewer
	// iterations than with between-restart checks alone.
	SAIterations int `json:"sa_iterations,omitempty"`

	// SeededIncumbent is the incumbent value restored from checkpointed
	// cells before the first task ran (0 when nothing seeded).
	SeededIncumbent float64 `json:"seeded_incumbent,omitempty"`
	// Trajectory records every incumbent improvement in the order it
	// happened, checkpoint seed included.
	Trajectory []IncumbentStep `json:"trajectory,omitempty"`

	// Panics counts recovered panics — each one became a typed CellError on
	// its cell (or cost one candidate's result row) instead of killing the
	// sweep.
	Panics int `json:"panics,omitempty"`
	// LastPanic is the most recent recovered panic's message and stack
	// (empty when Panics == 0), so a one-off crash is diagnosable from the
	// sweep record alone.
	LastPanic string `json:"last_panic,omitempty"`
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

	seeded    float64 // checkpoint-seeded incumbent, 0 when none
	resumed   atomic.Int64
	reused    atomic.Int64
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
		optFP:  optsFingerprint(opt.Mapping),
		mce:    cost.New(),
		inc:    newIncumbent(opt.Incumbent),
		states: make([]*candState, len(cands)),
		order:  make([]int, len(cands)),
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
			sc.seedFromCheckpoint(ci, mc, eLBs, dLBs)
		}
	}
	less := func(a, b int) bool { return sc.states[a].lb < sc.states[b].lb }
	if opt.Dispatch != nil {
		less = opt.Dispatch
	}
	sort.SliceStable(sc.order, func(a, b int) bool { return less(sc.order[a], sc.order[b]) })
	if sc.prune {
		if seed := sc.inc.get(); !math.IsInf(seed, 1) {
			sc.seeded = seed
			s.logf("dse: incumbent seeded from checkpoint: %.6g", seed)
		}
	}
	return sc
}

// mixedBound folds per-model energy/delay lower bounds into a bound on the
// candidate objective with reduceCandidate's fold, foldModels. When rec is
// non-nil, rec[mi] overrides the bound with a checkpointed cell's actual
// values; a nil entry keeps the lower bound.
func mixedBound(mc float64, eLBs, dLBs []float64, rec []*cellRecord, obj Objective) float64 {
	if len(eLBs) == 0 {
		return 0
	}
	_, _, bound := foldModels(mc, len(eLBs), func(mi int) (e, d float64) {
		if rec != nil && rec[mi] != nil {
			return rec[mi].Energy, rec[mi].Delay
		}
		return eLBs[mi], dLBs[mi]
	}, obj)
	return bound
}

// seedFromCheckpoint folds candidate ci's settled cells into the sweep
// before the first task runs, peeking each cell once. Settled feasible cells
// are restored verbatim, so their achieved energies and delays are exact,
// and mixing them with the missing cells' lower bounds gives:
//   - every cell settled feasible: the candidate's achieved objective
//     (mixedBound folds as reduceCandidate does), a sound incumbent.
//     Only this sweep's candidates seed it, so the sweep's true optimum can
//     never be pruned;
//   - some settled feasible, the rest missing: a lower bound on the
//     candidate's final objective, which raises its own bound so a partial
//     resume cuts it off before its missing cells are mapped — never an
//     incumbent, since an unachieved value must not prune other candidates;
//   - any settled cell infeasible: nothing, because the candidate must be
//     reported infeasible, not pruned.
func (sc *scheduler) seedFromCheckpoint(ci int, mc float64, eLBs, dLBs []float64) {
	fp := eval.ConfigFingerprint(&sc.cands[ci])
	recs := make([]*cellRecord, len(sc.models))
	settled := 0
	for mi, g := range sc.models {
		rec, ok := sc.ses.peekCell(cellKey(fp, g.Name, sc.optFP))
		if !ok {
			continue
		}
		if !rec.Feasible {
			return
		}
		recs[mi] = &rec
		settled++
	}
	if settled == 0 {
		return
	}
	mixed := mixedBound(mc, eLBs, dLBs, recs, sc.opt.Objective)
	if settled == len(sc.models) {
		sc.inc.note("(checkpoint seed)", mixed)
	} else if st := sc.states[ci]; mixed > st.lb {
		st.lb = mixed
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

	// Every cell runs exactly once (a canceled sweep's cells fail fast in
	// runTask), so every candidate reaches remaining == 0 and finishes once.
	sc.dispatch(nm, per, func(ci int) {
		if sc.states[ci].remaining.Add(-1) == 0 {
			finish(ci)
		}
	})
	sc.publishStats()
	return results
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
// pool and barriers on completion. Workers claim cells through one atomic
// index into the schedule, walked candidate-major, so a candidate's cells
// complete (and its objective lands in the incumbent) as early as possible.
// cellDone runs on the worker after each cell with its candidate index.
func (sc *scheduler) dispatch(nm int, per [][]pairOutcome, cellDone func(ci int)) {
	total := len(sc.order) * nm
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < sc.workerCount(total); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				ci, mi := sc.order[i/nm], i%nm
				sc.runTaskGuarded(ci, mi, per)
				cellDone(ci)
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
func (sc *scheduler) runTaskGuarded(ci, mi int, per [][]pairOutcome) {
	defer func() {
		if v := recover(); v != nil {
			ce := &CellError{
				Candidate: sc.cands[ci].Name, Model: sc.models[mi].Name,
				Stack: string(debug.Stack()), Err: fmt.Errorf("%v", v),
			}
			per[ci][mi] = pairOutcome{err: ce}
			sc.notePanic("scheduler task", ce.trace())
		}
	}()
	sc.runTask(ci, mi, per)
}

// runTask executes one (candidate, model) cell under the live bound gate
// and the sweep context.
func (sc *scheduler) runTask(ci, mi int, per [][]pairOutcome) {
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
	out := sc.ses.runCell(&sc.cands[ci], sc.models[mi], sc.opt.Mapping, key, stop)
	sc.saIters.Add(int64(out.saIterations))
	if out.partitionReused {
		sc.reused.Add(1)
	}
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
		Candidates:        len(sc.cands),
		Cells:             len(sc.cands) * len(sc.models),
		Canceled:          sc.ctx.Err() != nil,
		ResumedCells:      int(sc.resumed.Load()),
		PartitionsReused:  int(sc.reused.Load()),
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
