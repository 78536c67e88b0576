package eval

import (
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
)

// TestEvaluateGroupAllocFree pins the //gemini:noalloc annotations on the
// evaluator side of the SA hot loop: after warm-up, both a memoized
// EvaluateGroup and the pipeline computeGroup runs behind a memo miss
// (core.AnalyzeInto into warm scratch, then evaluateAnalysis) perform zero
// heap allocations. The scratch is held across runs rather than cycled
// through computeGroup's sync.Pool, which under -race drops Puts by design.
// The sa-side helpers are pinned in internal/sa/alloc_test.go.
func TestEvaluateGroupAllocFree(t *testing.T) {
	cfg := arch.GArch72()
	s, ev := tinyOn(t, &cfg, 4, 2)
	if !ev.EvaluateGroup(s, 0).Feasible { // warm the memos and scratch pools
		t.Fatal("group 0 infeasible")
	}
	sc := ev.scratch.Get().(*evalScratch)
	defer ev.scratch.Put(sc)
	allocs := testing.AllocsPerRun(200, func() {
		_ = ev.EvaluateGroup(s, 0)
		if err := core.AnalyzeInto(sc.an, s, 0, ev.Cfg); err != nil {
			t.Fatal(err)
		}
		_ = ev.evaluateAnalysis(sc, s.Batch)
	})
	if allocs != 0 {
		t.Fatalf("group evaluation allocates %.0f times per call, want 0", allocs)
	}
}
