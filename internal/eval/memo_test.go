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

// TestCacheSharesRouteTables: a cache keeps one noc route table per core
// array and topology, so two evaluators on one Cache whose architectures
// differ only in cut and bandwidth route on one table, an evaluator of
// another array on the same Cache does not, and neither do two evaluators
// with caches of their own. Results on the shared table equal a private
// evaluator's.
func TestCacheSharesRouteTables(t *testing.T) {
	a := arch.GArch72()
	b := a
	b.Name, b.XCut, b.YCut, b.NoCBW, b.D2DBW = "G-Arch-3x2", 3, 2, 64, 8
	wide := a
	wide.Name, wide.CoresX = "G-Arch-12x6", 12
	torus := a
	torus.Name, torus.Topology = "G-Arch-torus", arch.FoldedTorus
	cache := eval.NewCache()
	ea, eb := eval.NewWithCache(&a, cache), eval.NewWithCache(&b, cache)
	if !eval.SharesRoutes(ea, eb) {
		t.Fatal("two cuts of one array on one cache hold different route tables")
	}
	for _, other := range []*arch.Config{&wide, &torus} {
		if eval.SharesRoutes(ea, eval.NewWithCache(other, cache)) {
			t.Errorf("%s shares %s's route table", other.Name, a.Name)
		}
	}
	if eval.SharesRoutes(eval.New(&a), eval.New(&a)) {
		t.Fatal("two evaluators with caches of their own share a route table")
	}
	s, err := core.StripeScheme(dnn.TinyCNN(), &b, [][]int{{0, 1}, {2, 3}}, []int{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eb.Evaluate(s), eval.New(&b).Evaluate(s); !want.Feasible || !reflect.DeepEqual(got, want) {
		t.Errorf("%s on a shared route table: %+v, want %+v", b.Name, got, want)
	}
}
