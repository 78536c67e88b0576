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

// TestSegmentHitAllocFree pins the named lookup allocation-free: a segment the
// evaluator's cache holds is scored by segmenter.evaluate — SegmentKey,
// LookupGroup, resolve under the asker's cut, finish — without a heap
// allocation, so without a stripe LMS.
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
// a cache hit nothing, and on a miss only the class loads of the cut-free
// entry it stores, whatever the segment's length — the snake order, the [j,i)
// layer-ID slice, the one-group scheme and the buffers the stripe LMS is built
// in are all owned by the segmenter, and the core allocator sorts through a
// sort.Interface instead of sort.Slice's closure. Striper.Stripes, which
// returns an LMS the caller keeps, is pinned relative to a fresh Striper's
// Stripes so the pin holds across Go versions' growth policies: it saves
// exactly the snake order.
func TestSegmentCostAllocations(t *testing.T) {
	sg, cfg := allocSegmenter(t)
	const j, i, bu = allocJ, allocI, allocBU
	fresh := func() (*core.LMS, error) {
		st := core.NewStriper(cfg)
		return st.Stripes(sg.g, sg.ids[j:i], bu)
	}
	want, err := fresh()
	if err != nil {
		t.Fatal(err)
	}
	if got := sg.scheme.Groups[0]; got.BatchUnit != want.BatchUnit || len(got.MSs) != len(want.MSs) {
		t.Fatalf("segment LMS diverged from a fresh Striper's: %+v vs %+v", got, want)
	}

	perHit := testing.AllocsPerRun(100, func() { _ = sg.cost(j, i, bu) })
	perStriper := testing.AllocsPerRun(100, func() { _, _ = sg.striper.Stripes(sg.g, sg.ids[j:i], bu) })
	perFresh := testing.AllocsPerRun(100, func() { _, _ = fresh() })
	t.Logf("allocations per segment: hit %.0f, Striper.Stripes %.0f, fresh Striper %.0f", perHit, perStriper, perFresh)
	if perHit != 0 {
		t.Errorf("segment cost allocates %.0f times on a hit, want 0", perHit)
	}
	if perStriper != perFresh-1 {
		t.Errorf("Striper.Stripes allocates %.0f times, a fresh Striper %.0f: want exactly the snake order saved", perStriper, perFresh)
	}
	// evaluateMiss overwrites the entry an earlier call stored, so every run
	// is the whole miss path without growing the cache.
	for _, seg := range [][2]int{{j, i}, {j, j + 1}, {20, 36}} {
		key := sg.ev.SegmentKey(sg.g, sg.scheme.Batch, seg[0], seg[1], bu)
		if !sg.evaluateMiss(key, seg[0], seg[1], bu).Feasible { // grow the scratch to this length
			t.Fatalf("segment [%d,%d) infeasible", seg[0], seg[1])
		}
		perMiss := testing.AllocsPerRun(100, func() { _ = sg.evaluateMiss(key, seg[0], seg[1], bu) })
		if perMiss > 1 && !raceEnabled {
			t.Errorf("a miss on segment [%d,%d) allocates %.0f times, want at most its entry's at every length", seg[0], seg[1], perMiss)
		}
	}
}

// TestSegmentMissAllocs pins the miss path, segmenter.evaluateMiss:
// striping a segment into the Striper's scratch buffers (Striper.Scratch,
// stripeBufs.stripes and stripeBufs.allocateCores) allocates
// nothing once they have grown, and the evaluation around it allocates only
// what it stores — on a multi-chiplet array one slice, the class loads of a
// feasible segment's cut-free entry; nothing for an infeasible segment, which
// stores no class loads, and nothing on a monolithic array, whose entries
// hold their Digests by value.
func TestSegmentMissAllocs(t *testing.T) {
	sg, cfg := allocSegmenter(t)
	stripe := testing.AllocsPerRun(200, func() {
		if _, err := sg.striper.Scratch(sg.g, sg.ids[allocJ:allocI], allocBU); err != nil {
			t.Fatal(err)
		}
	})
	if stripe != 0 {
		t.Fatalf("scratch striping allocates %.0f times, want 0", stripe)
	}
	mono, small := *cfg, *cfg
	mono.XCut, mono.YCut = 1, 1
	small.GLBPerCore = 1 << 10
	for _, tc := range []struct {
		name     string
		cfg      *arch.Config
		feasible bool
		want     float64
	}{{"cut-free", cfg, true, 1}, {"monolithic", &mono, true, 0}, {"infeasible", &small, false, 0}} {
		cache := eval.NewCache()
		sg := newSegmenter(dnn.ResNet50(), tc.cfg, eval.NewWithCache(tc.cfg, cache), 64, DefaultOptions())
		key := sg.ev.SegmentKey(sg.g, sg.scheme.Batch, allocJ, allocI, allocBU)
		// Store the entry and warm the scratch.
		if sg.evaluateMiss(key, allocJ, allocI, allocBU).Feasible != tc.feasible || cache.Stats().Entries != 1 {
			t.Fatalf("%s: segment feasibility is not %t, or no entry was stored", tc.name, tc.feasible)
		}
		miss := testing.AllocsPerRun(200, func() { _ = sg.evaluateMiss(key, allocJ, allocI, allocBU) })
		if miss > tc.want && !raceEnabled {
			t.Errorf("%s: a whole miss allocates %.0f times, want at most %.0f", tc.name, miss, tc.want)
		}
	}
}
