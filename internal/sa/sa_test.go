package sa

import (
	"math"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

func allLayers(g *dnn.Graph) []int {
	ids := make([]int, len(g.Layers))
	for i := range g.Layers {
		ids[i] = i
	}
	return ids
}

func setup(t *testing.T) (*core.Scheme, *eval.Evaluator, *arch.Config) {
	t.Helper()
	cfg := arch.GArch72()
	g := dnn.TinyCNN()
	s, err := core.StripeScheme(g, &cfg, [][]int{allLayers(g)}, []int{2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return s, eval.New(&cfg), &cfg
}

func TestOptimizeImproves(t *testing.T) {
	s, ev, cfg := setup(t)
	opt := DefaultOptions()
	opt.Iterations = 800
	r := Optimize(s, ev, opt)
	if r.Scheme == nil {
		t.Fatal("no scheme returned")
	}
	if err := r.Scheme.Validate(cfg); err != nil {
		t.Fatalf("optimized scheme invalid: %v", err)
	}
	if r.Cost > r.InitCost {
		t.Errorf("SA worsened cost: %v -> %v", r.InitCost, r.Cost)
	}
	if r.Improvement() < 1 {
		t.Errorf("improvement = %v", r.Improvement())
	}
	if r.Accepted == 0 {
		t.Error("SA accepted no moves in 800 iterations")
	}
}

func TestOptimizeDeterministicBySeed(t *testing.T) {
	s, ev, _ := setup(t)
	opt := DefaultOptions()
	opt.Iterations = 300
	a := Optimize(s, ev, opt)
	b := Optimize(s, ev, opt)
	if a.Cost != b.Cost || a.Accepted != b.Accepted {
		t.Errorf("same seed diverged: %v/%d vs %v/%d", a.Cost, a.Accepted, b.Cost, b.Accepted)
	}
	opt.Seed = 99
	c := Optimize(s, ev, opt)
	if c.Attempted != a.Attempted {
		t.Errorf("attempt counts differ: %d vs %d", c.Attempted, a.Attempted)
	}
}

func TestOptimizeDoesNotMutateInput(t *testing.T) {
	s, ev, _ := setup(t)
	before := s.Clone()
	opt := DefaultOptions()
	opt.Iterations = 200
	Optimize(s, ev, opt)
	for gi, g := range s.Groups {
		for mi, ms := range g.MSs {
			want := before.Groups[gi].MSs[mi]
			if ms.Part != want.Part || ms.FD != want.FD || len(ms.CG) != len(want.CG) {
				t.Fatal("input scheme was mutated")
			}
			for ci := range ms.CG {
				if ms.CG[ci] != want.CG[ci] {
					t.Fatal("input CG mutated")
				}
			}
		}
	}
}

// objective is a whole-scheme evaluation's E^beta * D^gamma, +Inf when
// infeasible: what the annealer's cost folds from its per-group entries.
func objective(r eval.Result, beta, gamma float64) float64 {
	if !r.Feasible || r.Delay <= 0 {
		return math.Inf(1)
	}
	return math.Pow(r.Energy.Total(), beta) * math.Pow(r.Delay, gamma)
}

func TestOptimizeCostMatchesEvaluator(t *testing.T) {
	s, ev, _ := setup(t)
	opt := DefaultOptions()
	opt.Iterations = 300
	r := Optimize(s, ev, opt)
	full := ev.Evaluate(r.Scheme)
	want := objective(full, opt.Beta, opt.Gamma)
	if math.Abs(r.Cost-want) > want*1e-9 {
		t.Errorf("incremental cost %v != full evaluation %v", r.Cost, want)
	}
}

func TestOptimizeReducesD2DOnChipletArch(t *testing.T) {
	// Paper Sec. V-B1: the SA process inherently optimizes D2D
	// communication. Compare D2D byte-hops before and after on a 2-chiplet
	// architecture.
	cfg := arch.GArch72()
	g := dnn.TinyTransformer()
	s, err := core.StripeScheme(g, &cfg, [][]int{allLayers(g)}, []int{1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	ev := eval.New(&cfg)
	before := ev.Evaluate(s)
	opt := DefaultOptions()
	opt.Iterations = 1500
	r := Optimize(s, ev, opt)
	after := r.Eval
	if !after.Feasible {
		t.Fatal("optimized scheme infeasible")
	}
	var d2dBefore, d2dAfter float64
	for _, gr := range before.Groups {
		d2dBefore += gr.D2DBytes
	}
	for _, gr := range after.Groups {
		d2dAfter += gr.D2DBytes
	}
	if d2dAfter > d2dBefore {
		t.Errorf("SA increased D2D bytes: %v -> %v", d2dBefore, d2dAfter)
	}
	if objective(after, 1, 1) > objective(before, 1, 1) {
		t.Errorf("SA worsened E*D: %v -> %v", objective(before, 1, 1), objective(after, 1, 1))
	}
}

func TestOptimizeMultiGroup(t *testing.T) {
	cfg := arch.GArch72()
	g := dnn.TinyCNN()
	s, err := core.StripeScheme(g, &cfg, [][]int{{0, 1, 2, 3}, {4, 5, 6}}, []int{2, 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	ev := eval.New(&cfg)
	opt := DefaultOptions()
	opt.Iterations = 500
	r := Optimize(s, ev, opt)
	if err := r.Scheme.Validate(&cfg); err != nil {
		t.Fatalf("multi-group result invalid: %v", err)
	}
	if len(r.Scheme.Groups) != 2 {
		t.Fatal("group structure changed")
	}
	if r.Cost > r.InitCost {
		t.Errorf("cost worsened: %v -> %v", r.InitCost, r.Cost)
	}
}

func TestZeroIterationsReturnsInitial(t *testing.T) {
	s, ev, _ := setup(t)
	opt := DefaultOptions()
	opt.Iterations = 0
	r := Optimize(s, ev, opt)
	if r.Cost != r.InitCost {
		t.Errorf("0 iterations changed cost: %v vs %v", r.Cost, r.InitCost)
	}
	if r.Attempted != 0 {
		t.Errorf("attempted %d moves", r.Attempted)
	}
}

func TestDelayOnlyObjective(t *testing.T) {
	s, ev, _ := setup(t)
	opt := DefaultOptions()
	opt.Iterations = 400
	opt.Beta, opt.Gamma = 0, 1
	r := Optimize(s, ev, opt)
	if math.Abs(r.Cost-r.Eval.Delay) > r.Cost*1e-9 {
		t.Errorf("delay-only cost %v != delay %v", r.Cost, r.Eval.Delay)
	}
}
