package sa

import (
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

// deltaTally counts what the delta oracle saw: applied moves by operator,
// delta-computed summaries checked, and the OP5 summaries computed in the
// mutated group and in a group reading a re-sourced ofmap.
type deltaTally struct {
	applied                [5]int
	checked, fdOwn, fdRead int
}

// runDelta anneals s hot for iters steps and, after every group a move
// re-measures, holds the summary the delta path computed for it against a
// fresh evaluator's SummarizeGroup of the scheme as the move left it, with ==
// on every field.
func runDelta(t testing.TB, s *core.Scheme, cfg *arch.Config, seed int64, iters int, tally *deltaTally) {
	t.Helper()
	opt := DefaultOptions()
	opt.Seed, opt.Iterations = seed, iters
	opt.InitTemp = 1 // hot enough that worsening moves are taken and undone alike
	ev, ref := eval.New(cfg), eval.New(cfg)
	a := newAnnealer(s, ev, opt)
	a.afterMeasure = func(op core.Op, gi, gj int) {
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
		a.step()
	}
}

// TestDeltaMatchesFromScratch is the oracle under the annealer's delta path:
// hot anneals of ResNet-50, the Transformer, TinyCNN and TinyTransformer on a
// multi-chiplet mesh, a monolithic mesh and a folded torus, where every
// summary the delta path computes from the pieces the move changed — after
// accepted moves and rejected ones — equals summarizeGroup's from scratch bit
// for bit. All five operators must occur, and OP5 summaries both in the
// mutated group and in a group reading the layer whose ofmap destination
// moved.
func TestDeltaMatchesFromScratch(t *testing.T) {
	var tally deltaTally
	for _, cfg := range deltaArchs() {
		for _, g := range []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()} {
			for seed := int64(1); seed <= 3; seed++ {
				runDelta(t, splitScheme(t, g, &cfg, 3, 2, 8), &cfg, seed, 300, &tally)
			}
		}
		if testing.Short() {
			continue
		}
		for _, g := range []*dnn.Graph{dnn.ResNet50(), dnn.Transformer()} {
			part, err := graphpart.Partition(g, &cfg, eval.New(&cfg), 64, graphpart.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			runDelta(t, part.Scheme, &cfg, 5, 600, &tally)
		}
	}
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
		runDelta(t, splitScheme(t, g, &cfg, per, 2, 8), &cfg, seed, int(iters)%512, new(deltaTally))
	})
}

// TestAnnealStoresNoMoveSummaries: a move is evaluated through the delta path
// alone, so an anneal stores in the shared cache only what its start measures
// and what the final evaluation of its best scheme adds — at most one entry
// per group beyond an anneal of zero iterations — however many moves it
// applies.
func TestAnnealStoresNoMoveSummaries(t *testing.T) {
	cfg := arch.GArch72()
	s := splitScheme(t, dnn.TinyCNN(), &cfg, 3, 2, 8)
	anneal := func(iters int) (Result, int) {
		cache := eval.NewCache()
		opt := DefaultOptions()
		opt.Iterations = iters
		r := Optimize(s, eval.NewWithCache(&cfg, cache), opt)
		return r, cache.Stats().Entries
	}
	_, base := anneal(0)
	r, entries := anneal(600)
	if entries > base+len(s.Groups) {
		t.Errorf("600 iterations (%d moves applied) left %d cache entries, want at most %d from 0 iterations + %d groups",
			r.Applied, entries, base, len(s.Groups))
	}
	if r.Applied < 300 {
		t.Errorf("%d of 600 moves applied: too few to tell", r.Applied)
	}
}
