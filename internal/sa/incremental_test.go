package sa

import (
	"math"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
)

// splitScheme stripes g into groups of at most per layers, so OP5 moves in one
// group re-source the reads of the next.
func splitScheme(t testing.TB, g *dnn.Graph, cfg *arch.Config, per, bu, batch int) *core.Scheme {
	t.Helper()
	var groups [][]int
	var bus []int
	for lo := 0; lo < len(g.Layers); lo += per {
		var grp []int
		for id := lo; id < min(lo+per, len(g.Layers)); id++ {
			grp = append(grp, id)
		}
		groups = append(groups, grp)
		bus = append(bus, bu)
	}
	s, err := core.StripeScheme(g, cfg, groups, bus, batch)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fromScratch folds a fresh evaluator's EvaluateGroup over every group of s
// the way state.cost folds the annealer's incremental entries, and holds the
// per-group numbers against st when one is given.
func fromScratch(t testing.TB, what string, s *core.Scheme, cfg *arch.Config, st *state, opt Options) float64 {
	t.Helper()
	if err := s.Validate(cfg); err != nil {
		t.Fatalf("%s scheme invalid: %v", what, err)
	}
	fresh := eval.New(cfg)
	n := len(s.Groups)
	ref := state{energy: make([]float64, n), delay: make([]float64, n), feas: make([]bool, n)}
	for gi := range s.Groups {
		measure(fresh, s, &ref, gi)
		if st != nil && (st.energy[gi] != ref.energy[gi] || st.delay[gi] != ref.delay[gi] || st.feas[gi] != ref.feas[gi]) {
			t.Fatalf("%s group %d: incremental energy/delay/feasible %v/%v/%v, from scratch %v/%v/%v",
				what, gi, st.energy[gi], st.delay[gi], st.feas[gi], ref.energy[gi], ref.delay[gi], ref.feas[gi])
		}
	}
	return ref.cost(opt.Beta, opt.Gamma)
}

// checkIncremental holds the annealer's incrementally maintained numbers —
// per-group energy, delay and feasibility of the current state, its cost, and
// the cost of the best state — against from-scratch evaluations, bit for bit.
func checkIncremental(t testing.TB, a *annealer, cfg *arch.Config) {
	t.Helper()
	if cur := fromScratch(t, "current", a.s, cfg, &a.st, a.opt); cur != a.cur {
		t.Fatalf("current cost: incremental %v, from scratch %v", a.cur, cur)
	}
	if best := fromScratch(t, "best", a.best, cfg, nil, a.opt); best != a.bestCost {
		t.Fatalf("best cost: incremental %v, from scratch %v", a.bestCost, best)
	}
	for gi, lms := range a.s.Groups {
		if lms == a.spare[gi] {
			t.Fatalf("group %d: the current LMS is also its spare", gi)
		}
	}
}

// runIncremental anneals s for iters steps of all five operators, checking
// incremental against from-scratch every `every` steps and at the end, and
// reports how many OP5 moves were accepted and how many moves were rejected.
func runIncremental(t testing.TB, s *core.Scheme, cfg *arch.Config, seed int64, iters, every int) (fdAccepted, rejected int) {
	t.Helper()
	opt := DefaultOptions()
	opt.Seed, opt.Iterations = seed, iters
	opt.InitTemp = 1 // hot enough that worsening moves are taken and undone alike
	a := newAnnealer(s, eval.New(cfg), opt)
	checkIncremental(t, a, cfg)
	for it := 0; it < iters; it++ {
		a.step()
		if (it+1)%every == 0 {
			checkIncremental(t, a, cfg)
		}
	}
	checkIncremental(t, a, cfg)
	if math.IsNaN(a.cur) || a.bestCost > a.res.InitCost {
		t.Fatalf("cost %v, best %v, initial %v", a.cur, a.bestCost, a.res.InitCost)
	}
	return a.res.OpAccepted[core.OpFD], a.res.Applied - a.res.Accepted
}

// TestIncrementalMatchesFromScratch is the oracle under the annealer's
// incremental evaluation: after seeded sequences of all five operators —
// accepted OP5 moves that invalidate consumer groups and rejected moves that
// restore saved entries among them — on multi-group TinyCNN and
// TinyTransformer schemes and on the partitioned ResNet-50, the annealer's
// per-group energy, delay and feasibility and its cost equal a fresh
// evaluator's EvaluateGroup over the scheme, folded as state.cost folds it,
// for the current and for the best state.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	cfg := arch.GArch72()
	fd, rejected := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, g := range []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()} {
			f, r := runIncremental(t, splitScheme(t, g, &cfg, 3, 2, 8), &cfg, seed, 400, 25)
			fd, rejected = fd+f, rejected+r
		}
	}
	part, err := graphpart.Partition(dnn.ResNet50(), &cfg, eval.New(&cfg), 64, graphpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, r := runIncremental(t, part.Scheme, &cfg, 9, 1500, 250)
	fd, rejected = fd+f, rejected+r
	t.Logf("%d accepted OP5 moves, %d rejected moves", fd, rejected)
	if fd == 0 || rejected == 0 {
		t.Errorf("%d accepted OP5 moves and %d rejected moves: consumer invalidation or restore went unexercised", fd, rejected)
	}
}

// FuzzSAIncremental fuzzes the seed, the length of the operator sequence, the
// model and how finely its layers are grouped.
func FuzzSAIncremental(f *testing.F) {
	f.Add(int64(1), uint16(60), uint8(0))
	f.Add(int64(42), uint16(300), uint8(3))
	f.Add(int64(-5), uint16(7), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, iters uint16, shape uint8) {
		cfg := arch.GArch72()
		g := dnn.TinyCNN()
		if shape&1 == 1 {
			g = dnn.TinyTransformer()
		}
		per := 1 + int(shape>>1)%4
		runIncremental(t, splitScheme(t, g, &cfg, per, 2, 8), &cfg, seed, int(iters)%512, 64)
	})
}
