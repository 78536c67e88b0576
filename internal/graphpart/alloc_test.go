package graphpart

import (
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// allocSegment is a group the ResNet-50 partition on G-Arch-72 chooses:
// layers [2,6) at batch unit 1.
const allocJ, allocI, allocBU = 2, 6, 1

func allocSegmenter(t *testing.T) (*segmenter, *arch.Config) {
	t.Helper()
	cfg := arch.GArch72()
	sg := newSegmenter(dnn.ResNet50(), &cfg, eval.New(&cfg), 64, DefaultOptions())
	if !sg.evaluate(allocJ, allocI, allocBU).Feasible { // fill the cache, warm the scratch
		t.Fatal("segment infeasible")
	}
	return sg, &cfg
}

// TestSegmentHitAllocFree pins the //gemini:noalloc annotations on the named
// lookup: a segment the evaluator's cache holds is scored — name, lookup,
// finish — without a heap allocation, so without a stripe LMS.
func TestSegmentHitAllocFree(t *testing.T) {
	sg, _ := allocSegmenter(t)
	allocs := testing.AllocsPerRun(200, func() {
		_ = sg.evaluate(allocJ, allocI, allocBU)
		var res eval.GroupResult
		key := sg.ev.SegmentKey(sg.g, sg.scheme.Batch, allocJ, allocI, allocBU)
		if !sg.ev.LookupGroup(key, sg.scheme.Batch, &res) {
			t.Fatal("stored segment missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("scoring a cached segment allocates %.0f times, want 0", allocs)
	}
}

// TestSegmentCostAllocations pins what scoring one DP segment allocates: on
// a cache hit nothing, on a miss exactly the segment's stripe LMS — the snake
// order, the [j,i) layer-ID slice and the one-group scheme are per-Partition
// invariants owned by the segmenter. The pins are relative to core.Stripes
// so they hold across Go versions' map and slice growth policies.
func TestSegmentCostAllocations(t *testing.T) {
	sg, cfg := allocSegmenter(t)
	const j, i, bu = allocJ, allocI, allocBU
	want, err := core.Stripes(sg.g, sg.ids[j:i], cfg, bu)
	if err != nil {
		t.Fatal(err)
	}
	if got := sg.scheme.Groups[0]; got.BatchUnit != want.BatchUnit || len(got.MSs) != len(want.MSs) {
		t.Fatalf("segment LMS diverged from core.Stripes: %+v vs %+v", got, want)
	}

	key := sg.ev.SegmentKey(sg.g, sg.scheme.Batch, j, i, bu)
	perHit := testing.AllocsPerRun(100, func() { _ = sg.cost(j, i, bu) })
	// evaluateMiss overwrites the entry the first call stored, so every run
	// is the whole miss path without growing the cache.
	perMiss := testing.AllocsPerRun(100, func() { _ = sg.evaluateMiss(key, j, i, bu) })
	perStriper := testing.AllocsPerRun(100, func() { _, _ = sg.striper.Stripes(sg.g, sg.ids[j:i], bu) })
	perStripes := testing.AllocsPerRun(100, func() { _, _ = core.Stripes(sg.g, sg.ids[j:i], cfg, bu) })
	t.Logf("allocations per segment: hit %.0f, miss %.0f, Striper.Stripes %.0f, core.Stripes %.0f", perHit, perMiss, perStriper, perStripes)
	if perHit != 0 {
		t.Errorf("segment cost allocates %.0f times on a hit, want 0", perHit)
	}
	if perMiss != perStriper && !raceEnabled {
		t.Errorf("a segment miss allocates %.0f times, its stripe LMS alone %.0f: the segmenter rebuilds a per-call invariant", perMiss, perStriper)
	}
	if perStriper != perStripes-1 {
		t.Errorf("Striper.Stripes allocates %.0f times, core.Stripes %.0f: want exactly the snake order saved", perStriper, perStripes)
	}
}
