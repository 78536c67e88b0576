package eval

import (
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
)

// TestEvaluateGroupAllocFree pins the evaluator side of the SA hot loop
// allocation-free: after warm-up, the hit path (EvaluateGroup, which is a
// memoized summary lookup plus finish) and the pipeline summarizeGroup runs
// behind a memo miss (core.AnalyzeInto into warm scratch, then
// summarizeAnalysis with AddActivations and noc's Traffic.Digest,
// Traffic.ClassLoads, Traffic.DRAMLoad and Network.Resolve) perform zero heap
// allocations, through the private memo and through a shared cache alike.
// The scratch is held across runs rather than cycled through summarizeGroup's
// sync.Pool, which under -race drops Puts by design. The sa-side helpers are
// pinned in internal/sa/alloc_test.go.
func TestEvaluateGroupAllocFree(t *testing.T) {
	cfg := arch.GArch72()
	s, private := tinyOn(t, &cfg, 4, 2)
	for name, ev := range map[string]*Evaluator{"private": private, "shared": NewWithCache(&cfg, NewCache())} {
		if !ev.EvaluateGroup(s, 0).Feasible { // warm the memos and scratch pools
			t.Fatalf("%s: group 0 infeasible", name)
		}
		sc := ev.scratch.Get().(*evalScratch)
		allocs := testing.AllocsPerRun(200, func() {
			_ = ev.EvaluateGroup(s, 0)
			var sum groupSummary
			var res GroupResult
			ev.summary(s, 0, &sum)
			ev.finish(&sum, s.Batch, &res)
			if err := core.AnalyzeInto(sc.an, s, 0, ev.Cfg); err != nil {
				t.Fatal(err)
			}
			_ = ev.summarizeAnalysis(sc)
		})
		ev.scratch.Put(sc)
		if allocs != 0 {
			t.Fatalf("%s: group evaluation allocates %.0f times per call, want 0", name, allocs)
		}
	}
}
