package graphpart

import (
	"math"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// TestSegmentCostAllocations pins what scoring one DP segment allocates: on
// an evaluator-memo hit, exactly the segment's stripe LMS — the snake order,
// the [j,i) layer-ID slice and the one-group scheme are per-Partition
// invariants owned by the segmenter. The pins are relative to core.Stripes
// so they hold across Go versions' map and slice growth policies.
func TestSegmentCostAllocations(t *testing.T) {
	cfg := arch.GArch72()
	g := dnn.ResNet50()
	sg := newSegmenter(g, &cfg, eval.New(&cfg), 64, DefaultOptions())
	// Layers [2,6) at batch unit 1 is a group the ResNet-50 partition on
	// GArch72 chooses.
	const j, i, bu = 2, 6, 1
	if math.IsInf(sg.cost(j, i, bu), 1) { // warm the evaluator memo
		t.Fatal("segment infeasible")
	}
	want, err := core.Stripes(g, sg.ids[j:i], &cfg, bu)
	if err != nil {
		t.Fatal(err)
	}
	if got := sg.scheme.Groups[0]; got.BatchUnit != want.BatchUnit || len(got.MSs) != len(want.MSs) {
		t.Fatalf("segment LMS diverged from core.Stripes: %+v vs %+v", got, want)
	}

	perCost := testing.AllocsPerRun(100, func() { _ = sg.cost(j, i, bu) })
	perStriper := testing.AllocsPerRun(100, func() { _, _ = sg.striper.Stripes(g, sg.ids[j:i], bu) })
	perStripes := testing.AllocsPerRun(100, func() { _, _ = core.Stripes(g, sg.ids[j:i], &cfg, bu) })
	t.Logf("allocations per segment: cost %.0f, Striper.Stripes %.0f, core.Stripes %.0f", perCost, perStriper, perStripes)
	if perCost != perStriper {
		t.Errorf("segment cost allocates %.0f times, its stripe LMS alone %.0f: the segmenter rebuilds a per-call invariant", perCost, perStriper)
	}
	if perStriper != perStripes-1 {
		t.Errorf("Striper.Stripes allocates %.0f times, core.Stripes %.0f: want exactly the snake order saved", perStriper, perStripes)
	}
}
