package sa

import "testing"

// TestMovePathAllocFree pins the //gemini:noalloc annotations on measure and
// (*state).cost: after warm-up, one SA move's re-measurement and cost fold
// perform zero heap allocations. internal/eval/alloc_test.go pins the
// evaluator side of the hot loop; this covers the sa-side helpers so the
// hotpathalloc analyzer's annotation set stays tied to measured behavior.
func TestMovePathAllocFree(t *testing.T) {
	s, ev, _ := setup(t)
	n := len(s.Groups)
	st := &state{energy: make([]float64, n), delay: make([]float64, n), feas: make([]bool, n)}
	for gi := 0; gi < n; gi++ {
		measure(ev, s, st, gi) // warm the evaluator memo and scratch pools
	}
	allocs := testing.AllocsPerRun(200, func() {
		measure(ev, s, st, 0)
		_ = st.cost(1, 1)
	})
	if allocs != 0 {
		t.Fatalf("SA move path allocates %.0f times per move, want 0", allocs)
	}
}
