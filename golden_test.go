package gemini

import (
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
	"gemini/internal/sa"
)

// Golden fixed-seed SA outcomes, captured on the pre-optimization engine
// (allocating Analyze, per-call Traffic, full re-measure on OP5, full
// best-scheme clones). The incremental-evaluation machinery must reproduce
// them bit-for-bit: it is a pure caching/scheduling change, not a model
// change. If an intentional model change breaks these, recapture the
// constants in the same commit and say so. They were recaptured once when
// byte-hops began to be summed per noc boundary class in one canonical order
// instead of per link traversal: the ResNet-50 init cost and seed-7 best moved
// from 0.0027616015894533059, the seed-1 best from 0.0027483307773398294 and
// the TinyTransformer init cost from 1.2292062812569601e-10 — in the last
// bits, on the same schemes. They were recaptured again when traffic began to
// be counted exactly in 1/d-byte units: the ResNet-50 init cost and seed-7
// best moved from 0.0027616015894533063, in the last bits, on the same
// scheme; the other three did not move.
const (
	goldenResNetInitCost = 0.0027616015894533072
	goldenResNetSeed1    = 0.0027483307773398303
	goldenResNetSeed7    = 0.0027616015894533072
	goldenTinyTfInit     = 1.2292062812569599e-10
	goldenTinyTfSeed3    = 7.5628224184320007e-11
)

// TestGoldenSAResNet50 pins the resnet50-on-GArch72 annealing outcome for
// two seeds at 150 iterations.
func TestGoldenSAResNet50(t *testing.T) {
	cfg := arch.GArch72()
	g := dnn.ResNet50()
	part, err := graphpart.Partition(g, &cfg, eval.New(&cfg), 64, graphpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for seed, want := range map[int64]float64{1: goldenResNetSeed1, 7: goldenResNetSeed7} {
		opt := sa.DefaultOptions()
		opt.Iterations = 150
		opt.Seed = seed
		r := sa.Optimize(part.Scheme, eval.New(&cfg), opt)
		if r.InitCost != goldenResNetInitCost {
			t.Errorf("seed %d: init cost %.17g, golden %.17g", seed, r.InitCost, goldenResNetInitCost)
		}
		if r.Cost != want {
			t.Errorf("seed %d: best cost %.17g, golden %.17g", seed, r.Cost, want)
		}
	}
}

// TestGoldenSATinyTransformer pins the stripe-scheme annealing outcome used
// by the micro-benchmarks (seed 3, 400 iterations).
func TestGoldenSATinyTransformer(t *testing.T) {
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
	opt := sa.DefaultOptions()
	opt.Iterations = 400
	opt.Seed = 3
	r := sa.Optimize(s, eval.New(&cfg), opt)
	if r.InitCost != goldenTinyTfInit {
		t.Errorf("init cost %.17g, golden %.17g", r.InitCost, goldenTinyTfInit)
	}
	if r.Cost != goldenTinyTfSeed3 {
		t.Errorf("best cost %.17g, golden %.17g", r.Cost, goldenTinyTfSeed3)
	}
}
