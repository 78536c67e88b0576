package sa

import (
	"testing"

	"gemini/internal/eval"
)

// TestStopHookNeverFiringBitIdentical pins the in-loop abandonment
// contract: a hooked run whose Stop callback never returns true must be
// bit-identical to an unhooked run — same costs, counters, acceptance
// pattern and best scheme — because the check consumes no randomness and
// touches no search state.
func TestStopHookNeverFiringBitIdentical(t *testing.T) {
	s, cfg := annealInput(t)
	opt := DefaultOptions()
	opt.Iterations = 500
	opt.Seed = 42

	plain := Optimize(s, eval.New(cfg), opt)

	hooked := opt
	polls := 0
	hooked.Stop = func() bool {
		polls++
		return false
	}
	h := Optimize(s, eval.New(cfg), hooked)

	if want := (opt.Iterations - 1) / stopEvery; polls != want {
		t.Fatalf("Stop hook polled %d times, want %d", polls, want)
	}
	if h.Abandoned {
		t.Fatal("never-firing hook abandoned the run")
	}
	if h.Cost != plain.Cost || h.InitCost != plain.InitCost {
		t.Fatalf("costs differ: %v/%v vs %v/%v", h.Cost, h.InitCost, plain.Cost, plain.InitCost)
	}
	if h.Attempted != plain.Attempted || h.Applied != plain.Applied || h.Accepted != plain.Accepted {
		t.Fatalf("counters differ: %+v vs %+v", h, plain)
	}
	if h.OpAccepted != plain.OpAccepted {
		t.Fatalf("per-op acceptance differs: %v vs %v", h.OpAccepted, plain.OpAccepted)
	}
	if sh, sp := schemeJSON(t, h.Scheme), schemeJSON(t, plain.Scheme); sh != sp {
		t.Fatal("best schemes differ between hooked and plain runs")
	}
}

// TestStopHookStopsMidAnneal: a firing hook must stop the search within one
// polling stride and report Abandoned with the iteration count actually
// spent.
func TestStopHookStopsMidAnneal(t *testing.T) {
	s, cfg := annealInput(t)
	opt := DefaultOptions()
	opt.Iterations = 500
	opt.Seed = 7
	fireAfter := 3
	polls := 0
	opt.Stop = func() bool {
		polls++
		return polls > fireAfter
	}

	r := Optimize(s, eval.New(cfg), opt)
	if !r.Abandoned {
		t.Fatal("firing hook did not abandon")
	}
	wantIters := (fireAfter + 1) * stopEvery // stops at the (fireAfter+1)-th poll
	if r.Attempted != wantIters {
		t.Errorf("attempted %d iterations, want exactly %d (abandon on the poll boundary)", r.Attempted, wantIters)
	}
	if r.Scheme == nil {
		t.Error("abandoned run lost its best-so-far scheme")
	}
}

// TestPortfolioPropagatesMidAnnealAbandon: a restart abandoned mid-anneal
// must abandon the whole portfolio, keep the partial restart out of Costs,
// and account every iteration spent.
func TestPortfolioPropagatesMidAnnealAbandon(t *testing.T) {
	s, cfg := annealInput(t)
	opt := DefaultOptions()
	opt.Iterations = 200
	opt.Seed = 3

	full := MultiStart(s, eval.New(cfg), opt, 2)
	if full.Abandoned || len(full.Costs) != 2 {
		t.Fatalf("baseline portfolio: %+v", full)
	}

	// Fire during the second restart: restart 0's in-loop polls, then the
	// between-restart poll, then the second in-loop poll of restart 1.
	polls := 0
	firstRestartPolls := (opt.Iterations - 1) / stopEvery
	hooked := opt
	hooked.Stop = func() bool {
		polls++
		return polls > firstRestartPolls+2
	}
	p := MultiStart(s, eval.New(cfg), hooked, 2)
	if !p.Abandoned {
		t.Fatal("portfolio ignored the mid-anneal abandon")
	}
	if len(p.Costs) != 1 {
		t.Fatalf("partial restart leaked into Costs: %v", p.Costs)
	}
	if p.Planned != 2 {
		t.Errorf("Planned = %d, want 2 (the interrupted restart still counts as planned)", p.Planned)
	}
	if want := opt.Iterations + 2*stopEvery; p.Iterations != want {
		t.Errorf("iterations %d, want %d (one full restart plus two strides)", p.Iterations, want)
	}
}
