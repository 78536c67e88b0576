package eval

import (
	"sync"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
)

// TestConcurrentEvaluateGroup hammers one shared Evaluator — and therefore
// one shared route table, scratch pool, Explore memo and segment store — from
// many goroutines, each evaluating the group from scratch and asking for it by
// segment name. Run with -race it proves the documented "safe for concurrent
// use" contract survives the allocation-free scratch machinery; the store
// ends with the one segment, computed once.
func TestConcurrentEvaluateGroup(t *testing.T) {
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
	ev := New(&cfg)
	want := ev.EvaluateGroup(s, 0)
	if !want.Feasible {
		t.Fatal("reference evaluation infeasible")
	}
	key := ev.SegmentKey(g, s.Batch, 0, len(ids), 2)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := ev.EvaluateGroup(s, 0)
				if got != want {
					errs <- "concurrent evaluation diverged from reference"
					return
				}
				if r := ev.Evaluate(s); r.Delay != want.Delay {
					errs <- "full evaluation diverged from reference"
					return
				}
				var named GroupResult
				if !ev.LookupGroup(key, s.Batch, &named) {
					named = ev.EvaluateGroupAs(key, s, 0)
				}
				if named != want {
					errs <- "named evaluation diverged from reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := ev.cache.Stats(); st.Misses != 1 || st.Entries != 1 || st.Hits != 8*50-1 {
		t.Errorf("%d named asks for one segment: %+v, want 1 miss, 1 entry and the rest hits", 8*50, st)
	}
}
