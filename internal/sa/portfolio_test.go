package sa

import (
	"math"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

func portfolioScheme(t testing.TB, cfg *arch.Config) *core.Scheme {
	t.Helper()
	g := dnn.TinyTransformer()
	ids := make([]int, len(g.Layers))
	for i := range ids {
		ids[i] = i
	}
	s, err := core.StripeScheme(g, cfg, [][]int{ids}, []int{2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMultiStartDeterministic pins the portfolio acceptance property:
// identical seeds yield a bit-identical best, regardless of cache warmth.
func TestMultiStartDeterministic(t *testing.T) {
	cfg := arch.GArch72()
	s := portfolioScheme(t, &cfg)
	opt := DefaultOptions()
	opt.Iterations = 120

	run := func() Portfolio { return MultiStart(s, eval.New(&cfg), opt, 4) }
	a, b := run(), run()
	if a.Best.Cost != b.Best.Cost || a.BestRestart != b.BestRestart {
		t.Fatalf("portfolio not deterministic: (%v, %d) vs (%v, %d)",
			a.Best.Cost, a.BestRestart, b.Best.Cost, b.BestRestart)
	}
	if len(a.Costs) != 4 {
		t.Fatalf("costs = %d, want 4", len(a.Costs))
	}
	for i := range a.Costs {
		if a.Costs[i] != b.Costs[i] {
			t.Errorf("restart %d: %v vs %v", i, a.Costs[i], b.Costs[i])
		}
	}

	// Warm evaluator (shared across both portfolios): still bit-identical.
	ev := eval.New(&cfg)
	c, d := MultiStart(s, ev, opt, 4), MultiStart(s, ev, opt, 4)
	if c.Best.Cost != a.Best.Cost || d.Best.Cost != a.Best.Cost {
		t.Errorf("warm-cache portfolio diverged: %v, %v vs %v", c.Best.Cost, d.Best.Cost, a.Best.Cost)
	}
}

func TestMultiStartSingleEqualsOptimize(t *testing.T) {
	cfg := arch.GArch72()
	s := portfolioScheme(t, &cfg)
	opt := DefaultOptions()
	opt.Iterations = 100
	want := Optimize(s, eval.New(&cfg), opt)
	for _, restarts := range []int{1, 0, -3} {
		got := MultiStart(s, eval.New(&cfg), opt, restarts)
		if got.Best.Cost != want.Cost || got.BestRestart != 0 {
			t.Errorf("restarts=%d: cost %v (restart %d), want %v (restart 0)",
				restarts, got.Best.Cost, got.BestRestart, want.Cost)
		}
		if len(got.Costs) != 1 {
			t.Errorf("restarts=%d: %d costs", restarts, len(got.Costs))
		}
	}
}

// TestMultiStartFoldsBest: the winner must be the minimum over restart
// costs, and each restart must equal a standalone run with its derived seed.
func TestMultiStartFoldsBest(t *testing.T) {
	cfg := arch.GArch72()
	s := portfolioScheme(t, &cfg)
	opt := DefaultOptions()
	opt.Iterations = 120
	p := MultiStart(s, eval.New(&cfg), opt, 4)

	best := math.Inf(1)
	for i, c := range p.Costs {
		o := opt
		o.Seed = RestartSeed(opt.Seed, i)
		solo := Optimize(s, eval.New(&cfg), o)
		if solo.Cost != c {
			t.Errorf("restart %d cost %v, standalone %v", i, c, solo.Cost)
		}
		if c < best {
			best = c
		}
	}
	if p.Best.Cost != best {
		t.Errorf("best %v, want min %v", p.Best.Cost, best)
	}
	if p.Costs[p.BestRestart] != p.Best.Cost {
		t.Errorf("BestRestart %d does not match Best", p.BestRestart)
	}
}

func TestBetterCostNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		a, b float64
		want bool
	}{
		{1, 2, true},
		{2, 1, false},
		{nan, 1, false},
		{nan, math.Inf(1), false},
		{1, nan, true},
		{math.Inf(1), nan, true},
		{nan, nan, false},
		{1, 1, false},
	}
	for _, c := range cases {
		if got := betterCost(c.a, c.b); got != c.want {
			t.Errorf("betterCost(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestAdaptiveStopAbandons: the Stop hook abandons the portfolio between
// restarts — a restart too short for an in-loop poll always completes, and
// a constantly-true Stop cuts everything after restart 0.
func TestAdaptiveStopAbandons(t *testing.T) {
	cfg := arch.GArch72()
	s := portfolioScheme(t, &cfg)
	opt := DefaultOptions()
	opt.Iterations = stopEvery

	polls := 0
	stopping := opt
	stopping.Stop = func() bool { polls++; return true }
	p := MultiStart(s, eval.New(&cfg), stopping, 4)
	if !p.Abandoned {
		t.Fatal("portfolio not marked abandoned")
	}
	if len(p.Costs) != 1 || p.Planned != 4 {
		t.Fatalf("ran %d of %d planned restarts, want 1 of 4", len(p.Costs), p.Planned)
	}
	if polls != 1 {
		t.Errorf("Stop polled %d times, want 1", polls)
	}

	// A Stop that never fires changes nothing.
	inert := opt
	inert.Stop = func() bool { return false }
	q := MultiStart(s, eval.New(&cfg), inert, 4)
	w := MultiStart(s, eval.New(&cfg), opt, 4)
	if q.Abandoned || q.Best.Cost != w.Best.Cost || len(q.Costs) != len(w.Costs) {
		t.Errorf("inert Stop diverged: %+v vs %+v", q, w)
	}
}

// TestMultiStartRecoversPanic: a panicking restart must surface as PanicInfo
// data on the portfolio — restart index, value, stack — instead of unwinding
// the caller, and the portfolio is not settled (no costs fold).
func TestMultiStartRecoversPanic(t *testing.T) {
	cfg := arch.GArch72()
	opt := DefaultOptions()
	opt.Iterations = 40
	// A nil scheme panics inside Optimize; the guard must catch it.
	p := MultiStart(nil, eval.New(&cfg), opt, 3)
	if p.Panic == nil {
		t.Fatal("panicking restart produced no PanicInfo")
	}
	if p.Panic.Restart != 0 {
		t.Errorf("Restart = %d, want 0", p.Panic.Restart)
	}
	if p.Panic.Value == nil || p.Panic.Stack == "" {
		t.Errorf("PanicInfo incomplete: value=%v stack %d bytes", p.Panic.Value, len(p.Panic.Stack))
	}
	if len(p.Costs) != 0 {
		t.Errorf("panicked portfolio folded %d costs; it is not a settled outcome", len(p.Costs))
	}
}
