package sa

import (
	"reflect"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
)

// deltaArchs are the arrays the delta oracle runs on: G-Arch-72's
// multi-chiplet mesh, the same array as one monolithic mesh, and the
// folded-torus G-Arch.
func deltaArchs() []arch.Config {
	mono := arch.GArch72()
	mono.Name, mono.XCut, mono.YCut = "G-Arch-mono", 1, 1
	return []arch.Config{arch.GArch72(), mono, arch.GArchTorus()}
}

// The oracle's anneal temperatures: hot enough that worsening moves are taken
// and undone alike, and as cold as the default schedule ends.
const hot, cold = 1, 0.002

// deltaTally counts what the delta oracle saw: applied moves by operator,
// delta-computed summaries checked, the OP5 summaries computed in the mutated
// group and in a group reading a re-sourced ofmap, and the rejected moves that
// re-measured a group no move had yet been kept on, whose current state is
// still the one NewGroupDelta computed.
type deltaTally struct {
	applied                              [5]int
	checked, fdOwn, fdRead, rejectedCold int
}

// runDelta anneals s from relative temperature temp for iters steps and,
// after every group a move re-measures, holds the summary the delta path
// computed for it against a fresh evaluator's SummarizeGroup of the scheme as
// the move left it, with == on every field.
func runDelta(t testing.TB, s *core.Scheme, cfg *arch.Config, seed int64, iters int, temp float64, tally *deltaTally) {
	t.Helper()
	opt := DefaultOptions()
	opt.Seed, opt.Iterations, opt.InitTemp = seed, iters, temp
	ev, ref := eval.New(cfg), eval.New(cfg)
	a := newAnnealer(s, ev, opt)
	kept := make([]bool, len(s.Groups)) // by group: a move on it was kept
	var measured []int
	a.afterMeasure = func(op core.Op, gi, gj int) {
		measured = append(measured, gj)
		if gj == gi {
			tally.applied[op]++
		}
		if got, want := a.deltas[gj].Computed(), ref.SummarizeGroup(a.s, gj); got != want {
			t.Fatalf("%s on %s, seed %d: %v move on group %d, group %d: delta summary\n%+v\nfrom scratch\n%+v",
				s.Graph.Name, cfg.Name, seed, op, gi, gj, got, want)
		}
		tally.checked++
		switch {
		case op != core.OpFD:
		case gj == gi:
			tally.fdOwn++
		case a.mu.ChangedOF():
			tally.fdRead++
		}
	}
	for it := 0; it < iters; it++ {
		accepted := a.res.Accepted
		measured = measured[:0]
		a.step()
		for _, g := range measured {
			if a.res.Accepted > accepted {
				kept[g] = true
			} else if !kept[g] {
				tally.rejectedCold++
			}
		}
	}
}

// TestDeltaMatchesFromScratch is the oracle under the annealer's delta path:
// hot anneals of ResNet-50, the Transformer, TinyCNN and TinyTransformer, and
// a cold one of TinyTransformer, on a multi-chiplet mesh, a monolithic mesh
// and a folded torus, and one of ResNet-50 on small GLBs, where every summary
// the delta path computes from the pieces the move changed — after accepted
// moves and rejected ones — equals summarizeGroup's from scratch bit for bit.
// All five operators must occur, OP5 summaries both in the mutated group and
// in a group reading the layer whose ofmap destination moved, and, even under
// -short, rejected moves on groups no move has been kept on: a rejection must
// leave the state NewGroupDelta computed intact for the next move to start
// from.
func TestDeltaMatchesFromScratch(t *testing.T) {
	var tally deltaTally
	for _, cfg := range deltaArchs() {
		for _, g := range []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()} {
			for seed := int64(1); seed <= 3; seed++ {
				runDelta(t, splitScheme(t, g, &cfg, 3, 2, 8), &cfg, seed, 300, hot, &tally)
			}
		}
		// Cold and finely grouped: many groups have their first move rejected.
		runDelta(t, splitScheme(t, dnn.TinyTransformer(), &cfg, 2, 2, 8), &cfg, 4, 300, cold, &tally)
		if testing.Short() {
			continue
		}
		for _, g := range []*dnn.Graph{dnn.ResNet50(), dnn.Transformer()} {
			part, err := graphpart.Partition(g, &cfg, eval.New(&cfg), 64, graphpart.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			runDelta(t, part.Scheme, &cfg, 5, 600, hot, &tally)
		}
	}
	// On 256 KB GLBs, where weights only just fit, a move can leave a layer's
	// weight flow as it was while one of its cores changes residency, and the
	// flow must be re-split. The 2 MB GLBs above never showed it.
	small := arch.GArch72()
	small.Name, small.GLBPerCore = "G-Arch-256KB", 256*arch.KB
	part, err := graphpart.Partition(dnn.ResNet50(), &small, eval.New(&small), 64, graphpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	runDelta(t, part.Scheme, &small, 5, 1500, hot, &tally)
	t.Logf("%+v", tally)
	for op, n := range tally.applied {
		if n == 0 {
			t.Errorf("no %v move was applied", core.Op(op))
		}
	}
	if tally.fdOwn == 0 || tally.fdRead == 0 {
		t.Errorf("%d OP5 summaries in the mutated group, %d in a reading group: each must occur",
			tally.fdOwn, tally.fdRead)
	}
	if tally.rejectedCold == 0 {
		t.Error("no move was rejected on a group before any move on it was kept")
	}
}

// FuzzDeltaSummary fuzzes the seed, the length of the operator sequence, the
// model, how finely its layers are grouped and the array.
func FuzzDeltaSummary(f *testing.F) {
	f.Add(int64(1), uint16(60), uint8(0), uint8(0))
	f.Add(int64(42), uint16(300), uint8(1), uint8(5))
	f.Add(int64(-5), uint16(7), uint8(2), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, iters uint16, model, grouping uint8) {
		archs := deltaArchs()
		cfg := archs[int(grouping>>2)%len(archs)]
		g := dnn.TinyCNN()
		if model&1 == 1 {
			g = dnn.TinyTransformer()
		}
		per := 1 + int(grouping&3)
		runDelta(t, splitScheme(t, g, &cfg, per, 2, 8), &cfg, seed, int(iters)%512, hot, new(deltaTally))
	})
}

// TestAnnealStoresNoMoveSummaries: an anneal starts, moves and ends on its
// group deltas alone, so on a fresh cache it asks nothing and stores nothing,
// however many moves it applies and however many restarts it runs.
func TestAnnealStoresNoMoveSummaries(t *testing.T) {
	cfg := arch.GArch72()
	s := splitScheme(t, dnn.TinyCNN(), &cfg, 3, 2, 8)
	for _, iters := range []int{0, 600} {
		cache := eval.NewCache()
		opt := DefaultOptions()
		opt.Iterations = iters
		p := MultiStart(s, eval.NewWithCache(&cfg, cache), opt, 2)
		if st := cache.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
			t.Errorf("%d iterations x 2 restarts (%d moves applied): cache %+v, want no hits, misses or entries",
				iters, p.Best.Applied, st)
		}
		if iters > 0 && p.Best.Applied < iters/2 {
			t.Errorf("%d of %d moves applied: too few to tell", p.Best.Applied, iters)
		}
	}
}

// TestAnnealResultMatchesEvaluate holds what an anneal reports against the
// pipeline: its Eval deep-equals a fresh evaluator's Evaluate of the scheme it
// returns, and its InitCost is the input's cost from scratch. The cases run no
// move, a few, many, a search its Stop hook cuts short and a portfolio of
// three restarts, on every delta oracle array, over TinyTransformer in groups
// of two layers, so OF moves re-measure reading groups whose LMS they leave
// alone and the best snapshot must take their evaluations too.
func TestAnnealResultMatchesEvaluate(t *testing.T) {
	for _, cfg := range deltaArchs() {
		s := splitScheme(t, dnn.TinyTransformer(), &cfg, 2, 2, 8)
		opt := DefaultOptions()
		opt.InitTemp = hot
		initCost := fromScratch(t, "input", s, &cfg, nil, opt)
		cases := []struct {
			name string
			run  func(ev *eval.Evaluator) Result
		}{
			{"0 iterations", func(ev *eval.Evaluator) Result { o := opt; o.Iterations = 0; return Optimize(s, ev, o) }},
			{"150 iterations", func(ev *eval.Evaluator) Result { o := opt; o.Iterations = 150; return Optimize(s, ev, o) }},
			{"1500 iterations", func(ev *eval.Evaluator) Result { o := opt; o.Iterations = 1500; return Optimize(s, ev, o) }},
			{"stopped", func(ev *eval.Evaluator) Result {
				o, polls := opt, 0
				o.Iterations = 1500
				o.Stop = func() bool { polls++; return polls == 10 }
				r := Optimize(s, ev, o)
				if !r.Abandoned {
					t.Error("the Stop hook did not stop the search")
				}
				return r
			}},
			{"3 restarts", func(ev *eval.Evaluator) Result { o := opt; o.Iterations = 400; return MultiStart(s, ev, o, 3).Best }},
		}
		for _, c := range cases {
			r := c.run(eval.New(&cfg))
			if want := eval.New(&cfg).Evaluate(r.Scheme); !reflect.DeepEqual(r.Eval, want) {
				t.Errorf("%s, %s: Result.Eval\n%+v\nEvaluate of Result.Scheme\n%+v", cfg.Name, c.name, r.Eval, want)
			}
			if r.InitCost != initCost {
				t.Errorf("%s, %s: InitCost %v, input from scratch %v", cfg.Name, c.name, r.InitCost, initCost)
			}
		}
	}
}
