package eval

import (
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
)

// TestEvaluateGroupAllocFree pins the from-scratch group evaluation
// allocation-free: after warm-up, the pipeline behind EvaluateGroup
// (core.AnalyzeInto into warm scratch, then summarizeAnalysis with
// AddActivations and noc's Traffic.Digest, then finish) performs zero heap
// allocations, through the private memo and through a shared cache's alike,
// and so does EvaluateGroup itself, which takes that scratch from the
// evaluator's sync.Pool. Under -race the pool drops Puts by design, so there
// the pipeline is counted over scratch held across runs and EvaluateGroup is
// not counted. The sa-side helpers are pinned in internal/sa/alloc_test.go.
func TestEvaluateGroupAllocFree(t *testing.T) {
	cfg := arch.GArch72()
	s, private := tinyOn(t, &cfg, 4, 2)
	for name, ev := range map[string]*Evaluator{"private": private, "shared": NewWithCache(&cfg, NewCache())} {
		if !ev.EvaluateGroup(s, 0).Feasible { // warm the memos and scratch pools
			t.Fatalf("%s: group 0 infeasible", name)
		}
		sc := ev.scratch.Get().(*evalScratch)
		allocs := testing.AllocsPerRun(200, func() {
			if err := core.AnalyzeInto(sc.an, s, 0, ev.Cfg); err != nil {
				t.Fatal(err)
			}
			sum := ev.summarizeAnalysis(sc)
			var res GroupResult
			ev.finish(&sum, s.Batch, &res)
		})
		ev.scratch.Put(sc)
		if allocs != 0 {
			t.Fatalf("%s: the evaluation pipeline allocates %.0f times per call, want 0", name, allocs)
		}
		if pooled := testing.AllocsPerRun(200, func() { _ = ev.EvaluateGroup(s, 0) }); pooled != 0 && !raceEnabled {
			t.Fatalf("%s: EvaluateGroup allocates %.0f times per call, want 0", name, pooled)
		}
	}
}
