// Package sa implements the Gemini LP SPM exploration engine (Sec. V-B1):
// a simulated-annealing search over the optimization space defined by the
// layer-centric encoding, driven by the five operators of internal/core.
// Layer groups are selected with probability proportional to their
// optimization-space size, and every applied move is evaluated through the
// Evaluator's delta path, which recomputes only the layers the move changed
// and stores nothing in the cache, so the search inherently minimizes costly
// D2D traffic.
package sa

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/eval"
	"gemini/internal/space"
)

// Options configures the annealer.
type Options struct {
	// Iterations is the number of SA steps.
	Iterations int
	// Seed makes runs reproducible.
	Seed int64
	// Beta and Gamma are the objective exponents of E^beta * D^gamma.
	Beta, Gamma float64
	// InitTemp is the initial relative temperature: a move that worsens the
	// cost by InitTemp x 100% is accepted with probability 1/e at start.
	InitTemp float64
	// FinalTemp is the relative temperature at the last iteration.
	FinalTemp float64
	// Ops restricts the search to a subset of the five operators
	// (nil/empty = all). Used by the operator ablation.
	Ops []core.Op

	// Stop, when non-nil, is the abandonment hook: it is polled every
	// stopEvery iterations inside a search and, by the multi-start
	// portfolio, before every restart after the first. A true return stops
	// the search immediately (Result.Abandoned / Portfolio.Abandoned). The
	// DSE scheduler uses it to walk a dominated or canceled cell out of the
	// annealing hot loop. The check consumes no randomness and allocates
	// nothing, so a hook that never fires leaves the search bit-identical to
	// an unhooked run.
	Stop func() bool
}

// stopEvery is the Stop polling stride in iterations: frequent enough that a
// dominated cell wastes at most a few dozen group evaluations, rare enough
// to keep the atomic incumbent read off the per-iteration path.
const stopEvery = 32

// DefaultOptions returns the settings used by the experiments.
func DefaultOptions() Options {
	return Options{
		Iterations: 2000,
		Seed:       1,
		Beta:       1,
		Gamma:      1,
		InitTemp:   0.25,
		FinalTemp:  0.002,
	}
}

// Result reports the annealing outcome.
type Result struct {
	Scheme   *core.Scheme
	Eval     eval.Result
	Cost     float64
	InitCost float64

	Attempted, Applied, Accepted int
	OpAccepted                   [5]int

	// Abandoned reports that the Stop hook stopped the search before
	// Iterations completed; Scheme/Cost hold the best state found up to that
	// point (callers that abandon because the cell is dominated typically
	// discard them).
	Abandoned bool
}

// Improvement returns InitCost / Cost (>= 1 when the search helped).
func (r Result) Improvement() float64 {
	if r.Cost <= 0 {
		return 1
	}
	return r.InitCost / r.Cost
}

type state struct {
	energy []float64 // per-group energy (J)
	delay  []float64 // per-group delay (s)
	feas   []bool
}

// cost folds the per-group energy/delay into the scalar SA objective. It
// runs once per move, on the hot path.
func (st *state) cost(beta, gamma float64) float64 {
	var e, d float64
	for i := range st.energy {
		if !st.feas[i] {
			return math.Inf(1)
		}
		e += st.energy[i]
		d += st.delay[i]
	}
	if d <= 0 || e <= 0 {
		return math.Inf(1)
	}
	return math.Pow(e, beta) * math.Pow(d, gamma)
}

// measure evaluates one group from the scheme alone and records the outcome
// in the state's reused slices: the from-scratch seam the annealer starts from
// and the oracles hold its moves against.
func measure(ev *eval.Evaluator, s *core.Scheme, st *state, gi int) {
	st.record(gi, ev.EvaluateGroup(s, gi))
}

// record stores one group's evaluation.
func (st *state) record(gi int, gr eval.GroupResult) {
	st.feas[gi] = gr.Feasible
	st.energy[gi] = gr.Energy.Total()
	st.delay[gi] = gr.Delay
}

// annealer is one SA search in progress: the current scheme with its
// incrementally maintained per-group evaluation, the best scheme seen, and
// everything an iteration needs so that it allocates only when it improves
// the best.
type annealer struct {
	opt Options
	ev  *eval.Evaluator
	rng *rand.Rand
	mu  core.Mutator

	// s is the current state; st and cur are its per-group evaluation and
	// folded cost, re-measured only where a move can have changed them.
	s   *core.Scheme
	st  state
	cur float64
	// spare[gi] is the group LMS a move on gi is tried in: the current LMS
	// is copied into it, mutated and measured there, and on accept the two
	// trade places, so trying a move allocates nothing.
	spare []*core.LMS

	// readers[gi][i] lists the layers of other groups that read the ofmaps
	// of MS i of group gi: where an OF move on it re-sources reads. Group
	// membership is fixed under all five operators, so it is built once.
	readers [][][]msRef
	// deltas[gi] is group gi's delta evaluation: the per-layer pieces a miss
	// recomputes only where the move changed them, in a current/spare pair
	// that is settled with the move as the LMS pair is.
	deltas []*eval.GroupDelta
	// cumW are cumulative group-selection weights, proportional to
	// optimization-space size: a pick is a binary search, not an O(n) scan.
	cumW   []float64
	totalW float64

	best     *core.Scheme
	bestCost float64
	// dirty marks groups where s has drifted from the best snapshot.
	dirty []bool

	temp, cooling float64

	// touched holds the groups a move re-measures with their state entries
	// as the move found them, which a rejected move restores: O(touched)
	// copies per iteration, not O(n).
	touched []saved

	// afterMeasure, when set, is called after each group a move re-measures,
	// with the scheme as the move left it: the oracles' view of the delta
	// path.
	afterMeasure func(op core.Op, gi, gj int)

	res Result
}

// msRef names MS ms of group g.
type msRef struct{ g, ms int }

// saved is group g's state entries before a move re-measured it.
type saved struct {
	g             int
	energy, delay float64
	feas          bool
}

// workingCopy deep-copies a group LMS into core groups with room for all the
// architecture's cores, so OP4 never has to grow one.
func workingCopy(src *core.LMS, cores int) *core.LMS {
	cp := &core.LMS{MSs: make([]*core.MS, len(src.MSs))}
	for i := range cp.MSs {
		cp.MSs[i] = &core.MS{CG: make([]arch.CoreID, 0, cores)}
	}
	cp.CopyFrom(src)
	return cp
}

// newAnnealer evaluates the input scheme and sets up a search over a private
// copy of it. The input scheme is not modified.
func newAnnealer(input *core.Scheme, ev *eval.Evaluator, opt Options) *annealer {
	n := len(input.Groups)
	cores := ev.Cfg.Cores()
	rng := rand.New(rand.NewSource(opt.Seed))
	a := &annealer{
		opt: opt, ev: ev, rng: rng,
		mu:      core.Mutator{Graph: input.Graph, Drams: ev.Cfg.DRAMControllers(), Rng: rng},
		s:       &core.Scheme{Graph: input.Graph, Batch: input.Batch, Groups: make([]*core.LMS, n)},
		st:      state{energy: make([]float64, n), delay: make([]float64, n), feas: make([]bool, n)},
		spare:   make([]*core.LMS, n),
		cumW:    make([]float64, n),
		dirty:   make([]bool, n),
		touched: make([]saved, 0, n),
		temp:    opt.InitTemp, cooling: 1,
	}
	for gi, g := range input.Groups {
		a.s.Groups[gi] = workingCopy(g, cores)
		a.spare[gi] = workingCopy(g, cores)
		a.totalW += space.GroupWeight(cores, len(g.MSs))
		a.cumW[gi] = a.totalW
	}
	a.deltas = make([]*eval.GroupDelta, n)
	for gi := range a.s.Groups {
		measure(ev, a.s, &a.st, gi)
		a.deltas[gi] = ev.NewGroupDelta(a.s, gi)
	}
	a.cur = a.st.cost(opt.Beta, opt.Gamma)
	a.res.InitCost = a.cur
	a.readers = ofReaders(a.s)
	a.best, a.bestCost = a.s.Clone(), a.cur
	if opt.Iterations > 1 && opt.FinalTemp > 0 && opt.InitTemp > 0 {
		a.cooling = math.Pow(opt.FinalTemp/opt.InitTemp, 1/float64(opt.Iterations-1))
	}
	return a
}

// pick draws a group with probability proportional to its weight: the
// smallest gi with cumW[gi] >= x, which is the group a linear subtraction
// scan would land on.
func (a *annealer) pick() int {
	x := a.rng.Float64() * a.totalW
	if gi := sort.SearchFloat64s(a.cumW, x); gi < len(a.cumW) {
		return gi
	}
	return len(a.cumW) - 1
}

// step runs one SA iteration: try one operator on one group, re-measure what
// it can have changed, and accept or undo it. It allocates only when the move
// improves on the best scheme, which is then re-snapshotted.
func (a *annealer) step() {
	s, st, opt := a.s, &a.st, &a.opt
	gi := a.pick()
	a.res.Attempted++
	old, cand := s.Groups[gi], a.spare[gi]
	cand.CopyFrom(old)
	s.Groups[gi] = cand
	var op core.Op
	var ok bool
	if len(opt.Ops) > 0 {
		op = opt.Ops[a.rng.Intn(len(opt.Ops))]
		ok = a.mu.ApplyOp(cand, op)
	} else {
		op, ok = a.mu.Apply(cand)
	}
	if !ok {
		s.Groups[gi] = old
		a.temp *= a.cooling
		return
	}
	a.res.Applied++

	// A move changes the mutated group. An OF move also re-sources the
	// layers that read the moved ofmap, and their groups are the only others
	// it can change.
	touched := append(a.touched[:0], saved{g: gi})
	if op == core.OpFD {
		x := a.mu.Changed()[0]
		a.deltas[gi].ChangedFD(x)
		if a.mu.ChangedOF() {
			for _, r := range a.readers[gi][x] {
				a.deltas[r.g].ChangedFD(r.ms)
				if !slices.ContainsFunc(touched, func(t saved) bool { return t.g == r.g }) {
					touched = append(touched, saved{g: r.g})
				}
			}
		}
	} else {
		for _, x := range a.mu.Changed() {
			a.deltas[gi].Changed(x)
		}
	}
	for i := range touched {
		t := &touched[i]
		t.energy, t.delay, t.feas = st.energy[t.g], st.delay[t.g], st.feas[t.g]
		st.record(t.g, a.ev.EvaluateGroupDelta(a.deltas[t.g], s))
		if a.afterMeasure != nil {
			a.afterMeasure(op, gi, t.g)
		}
	}
	next := st.cost(opt.Beta, opt.Gamma)

	accept := false
	if next <= a.cur {
		accept = true
	} else if !math.IsInf(next, 1) {
		rel := (next - a.cur) / a.cur
		accept = a.rng.Float64() < math.Exp(-rel/a.temp)
	}
	for _, t := range touched {
		a.deltas[t.g].Settle(accept)
	}
	if accept {
		a.cur = next
		a.spare[gi] = old
		a.res.Accepted++
		a.res.OpAccepted[int(op)]++
		a.dirty[gi] = true
		if a.cur < a.bestCost {
			a.bestCost = a.cur
			// Sync best with s by re-cloning only the groups that have
			// diverged since the last snapshot. The best scheme is returned
			// to the caller, so these are real clones: the move path's one
			// allocation, and only on improvement.
			for gj, d := range a.dirty {
				if d {
					a.best.Groups[gj] = s.Groups[gj].Clone()
					a.dirty[gj] = false
				}
			}
		}
	} else {
		s.Groups[gi] = old
		for _, t := range touched {
			st.energy[t.g], st.delay[t.g], st.feas[t.g] = t.energy, t.delay, t.feas
		}
	}
	a.temp *= a.cooling
}

// Optimize anneals a copy of the scheme and returns the best scheme found.
// The input scheme is not modified.
func Optimize(input *core.Scheme, ev *eval.Evaluator, opt Options) Result {
	a := newAnnealer(input, ev, opt)
	for it := 0; it < opt.Iterations; it++ {
		// In-loop abandonment: poll the Stop hook on a fixed stride. The
		// check reads no randomness and touches no search state, so runs
		// where the hook never fires stay bit-identical to unhooked runs.
		if opt.Stop != nil && it != 0 && it%stopEvery == 0 && opt.Stop() {
			a.res.Abandoned = true
			break
		}
		a.step()
	}
	res := a.res
	res.Scheme = a.best
	res.Cost = a.bestCost
	res.Eval = ev.Evaluate(a.best)
	return res
}

// ofReaders returns, for each MS of each group, the layers of other groups
// that read its ofmaps: what an OF change on it re-sources.
func ofReaders(s *core.Scheme) [][][]msRef {
	at := make(map[int]msRef)
	readers := make([][][]msRef, len(s.Groups))
	for gi, g := range s.Groups {
		readers[gi] = make([][]msRef, len(g.MSs))
		for i, ms := range g.MSs {
			at[ms.Layer] = msRef{gi, i}
		}
	}
	for _, l := range s.Graph.Layers {
		c, ok := at[l.ID]
		if !ok {
			continue
		}
		for _, in := range l.Inputs {
			if p, ok := at[in.Src]; ok && in.Src >= 0 && p.g != c.g {
				readers[p.g][p.ms] = append(readers[p.g][p.ms], c)
			}
		}
	}
	return readers
}
