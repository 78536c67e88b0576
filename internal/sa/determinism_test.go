package sa

import (
	"slices"
	"strings"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

func annealInput(t *testing.T) (*core.Scheme, *arch.Config) {
	t.Helper()
	cfg := arch.GArch72()
	g := dnn.TinyTransformer()
	ids := make([]int, len(g.Layers))
	for i := range ids {
		ids[i] = i
	}
	s, err := core.StripeScheme(g, &cfg, [][]int{ids}, []int{2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return s, &cfg
}

func schemeJSON(t *testing.T, s *core.Scheme) string {
	t.Helper()
	var b strings.Builder
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSameSeedTwice verifies the incremental-evaluation machinery (group
// memoization, re-measuring only the groups a move changed, dirty-group best
// cloning) keeps the annealer fully deterministic: two runs with the same seed
// must agree bit-for-bit on costs, acceptance counters, and the returned
// scheme.
func TestSameSeedTwice(t *testing.T) {
	s, cfg := annealInput(t)
	opt := DefaultOptions()
	opt.Iterations = 500
	opt.Seed = 42

	a := Optimize(s, eval.New(cfg), opt)
	b := Optimize(s, eval.New(cfg), opt)

	if a.Cost != b.Cost || a.InitCost != b.InitCost {
		t.Fatalf("costs differ: %v/%v vs %v/%v", a.Cost, a.InitCost, b.Cost, b.InitCost)
	}
	if a.Attempted != b.Attempted || a.Applied != b.Applied || a.Accepted != b.Accepted {
		t.Fatalf("counters differ: %+v vs %+v", a, b)
	}
	if a.OpAccepted != b.OpAccepted {
		t.Fatalf("per-op acceptance differs: %v vs %v", a.OpAccepted, b.OpAccepted)
	}
	if sa, sb := schemeJSON(t, a.Scheme), schemeJSON(t, b.Scheme); sa != sb {
		t.Fatal("best schemes differ between same-seed runs")
	}
	if a.Eval.Delay != b.Eval.Delay || a.Eval.Energy.Total() != b.Eval.Energy.Total() {
		t.Fatal("best evaluations differ between same-seed runs")
	}
}

// TestSharedEvaluatorMatchesFresh verifies memoization is purely a cache:
// reusing one evaluator across two runs gives the same result as fresh
// evaluators per run.
func TestSharedEvaluatorMatchesFresh(t *testing.T) {
	s, cfg := annealInput(t)
	opt := DefaultOptions()
	opt.Iterations = 300
	opt.Seed = 9

	shared := eval.New(cfg)
	a := Optimize(s, shared, opt)
	b := Optimize(s, shared, opt)
	c := Optimize(s, eval.New(cfg), opt)
	if a.Cost != b.Cost || a.Cost != c.Cost {
		t.Fatalf("shared-evaluator runs diverge: %v, %v, %v", a.Cost, b.Cost, c.Cost)
	}
}

// TestMoveRemeasuresChangedGroups holds each applied move's re-measured
// groups to what the move changed: the mutated group gi alone for OP1-4 and
// for an OP5 that leaves every ofmap destination in place, and for an OF move
// gi plus the groups holding a layer that reads the moved layer's ofmaps —
// read off the graph here, not off the annealer's tables. The schemes give
// gi consumer groups, so a rule that re-measured every consumer group on
// every OP5 fails.
func TestMoveRemeasuresChangedGroups(t *testing.T) {
	cfg := arch.GArch72()
	var fdKept, fdMoved int
	for _, g := range []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()} {
		for per := 1; per <= 2; per++ {
			s := splitScheme(t, g, &cfg, per, 2, 8)
			opt := DefaultOptions()
			opt.InitTemp = 1
			a := newAnnealer(s, eval.New(&cfg), opt)
			var got []int
			var op core.Op
			var gi int
			a.afterMeasure = func(o core.Op, i, gj int) { op, gi, got = o, i, append(got, gj) }
			for it := 0; it < 400; it++ {
				got = got[:0]
				a.step()
				if len(got) == 0 {
					continue
				}
				want := []int{gi}
				if op == core.OpFD && a.mu.ChangedOF() {
					fdMoved++
					src := a.s.Groups[gi].MSs[a.mu.Changed()[0]].Layer
					for gj, lms := range a.s.Groups {
						for _, ms := range lms.MSs {
							if gj != gi && !slices.Contains(want, gj) && slices.ContainsFunc(g.Layers[ms.Layer].Inputs,
								func(in dnn.Input) bool { return in.Src == src }) {
								want = append(want, gj)
							}
						}
					}
				} else if op == core.OpFD {
					fdKept++
				}
				slices.Sort(want)
				if slices.Sort(got); !slices.Equal(got, want) {
					t.Fatalf("%s in groups of %d, iteration %d: %v move on group %d (OF moved: %v) re-measured %v, want %v",
						g.Name, per, it, op, gi, a.mu.ChangedOF(), got, want)
				}
			}
		}
	}
	if fdKept == 0 || fdMoved == 0 {
		t.Errorf("%d OP5 moves kept every ofmap destination, %d moved one: each must occur", fdKept, fdMoved)
	}
}
