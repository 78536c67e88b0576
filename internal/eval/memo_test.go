package eval_test

import (
	"reflect"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// TestCacheSharesExploreMemo: the Explore memo belongs to the cache, so two
// evaluators on one Cache whose architectures share their cores but not their
// chiplet cut or NoC bandwidth read one memo, and two evaluators with caches
// of their own do not. The second evaluator's explorations are all the
// first's, and its results equal a private evaluator's.
func TestCacheSharesExploreMemo(t *testing.T) {
	a := arch.GArch72()
	b := a
	b.Name, b.XCut, b.NoCBW = "G-Arch-mono-64", 1, 64
	cache := eval.NewCache()
	ea, eb := eval.NewWithCache(&a, cache), eval.NewWithCache(&b, cache)
	if ea.Memo() != eb.Memo() {
		t.Fatal("two evaluators on one cache hold different Explore memos")
	}
	if eval.New(&a).Memo() == eval.New(&a).Memo() {
		t.Fatal("two evaluators with caches of their own share an Explore memo")
	}
	g := dnn.TinyCNN()
	var groups [][]int
	for id := range g.Layers {
		groups = append(groups, []int{id})
	}
	bus := make([]int, len(groups))
	for i := range bus {
		bus[i] = 2
	}
	for _, c := range []struct {
		cfg *arch.Config
		ev  *eval.Evaluator
	}{{&a, ea}, {&b, eb}} {
		s, err := core.StripeScheme(g, c.cfg, groups, bus, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.ev.Evaluate(s), eval.New(c.cfg).Evaluate(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s on a shared cache: %+v, want %+v", c.cfg.Name, got, want)
		}
	}
}
