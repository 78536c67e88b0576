package eval_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
	"gemini/internal/sa"
)

// TestDiskV2FileLoadsCold: testdata/evalcache_v2_parent.ndjson is the spill
// the commit before the fingerprint moved onto dnn.Graph wrote after
// partitioning TinyCNN on G-Arch-72 at batch 4. Its 84 entries are Partition
// segments under content-addressed keys; the partitioner now asks for
// segments by name, so a version-2 file carries nothing it would find and
// loads as a cold cache. Repeating that partition computes everything and
// still lands on the parent's delay, and on its energy but for the last bits
// (2.559942488e-05 before traffic was counted in 1/d-byte units).
func TestDiskV2FileLoadsCold(t *testing.T) {
	cache := eval.NewCache()
	n, err := cache.LoadDisk(filepath.Join("testdata", "evalcache_v2_parent.ndjson"))
	if err != nil || n != 0 || cache.Stats().Entries != 0 {
		t.Fatalf("v2 file: loaded %d entries (%d resident), err %v; want a cold cache", n, cache.Stats().Entries, err)
	}
	cfg := arch.GArch72()
	res, err := graphpart.Partition(dnn.TinyCNN(), &cfg, eval.NewWithCache(&cfg, cache), 4, graphpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 84 || st.Entries != 84 {
		t.Errorf("partition after a v2 load: %+v; want the fixture's 84 segments, all computed", st)
	}
	r := eval.New(&cfg).Evaluate(res.Scheme)
	if r.Delay != 6.282199999999999e-06 || r.Energy.Total() != 2.5599424879999995e-05 {
		t.Errorf("partition diverged from the parent's: delay %v energy %v", r.Delay, r.Energy.Total())
	}
}

// TestDiskV3FileLoadsCold: testdata/evalcache_v3_parent.ndjson is the spill
// the commit before the miss path was rewritten (dense analysis tables,
// unsorted activation flows, scratch striping) wrote after partitioning
// TinyCNN on G-Arch-72 at batch 4 and annealing the result for 150 iterations
// at the default seed: 187 entries, named segments and SA content keys alike.
// Version 3 summed byte-hops per link traversal and held its segments under
// cut-dependent names, so the file loads as a cold cache. Repeating both
// computes everything again — what the same partition and anneal store on an
// empty cache — and lands on the SA cost the version-3 evaluator computed,
// and on its partition cost but for the last bit (1.2625220656183211e-05
// before traffic was counted in 1/d-byte units).
func TestDiskV3FileLoadsCold(t *testing.T) {
	checkParentSpillLoadsCold(t, "evalcache_v3_parent.ndjson", 1.262522065618321e-05, 1.5747418970994997e-10)
}

// TestDiskV4FileLoadsCold: testdata/evalcache_v4_parent.ndjson is the same
// partition and anneal spilled by the commit before traffic was counted in
// 1/d-byte units. Its summaries differ from today's in the last bits under
// the same keys, so the file loads as a cold cache, and repeating both
// computes what they store on an empty cache.
func TestDiskV4FileLoadsCold(t *testing.T) {
	checkParentSpillLoadsCold(t, "evalcache_v4_parent.ndjson", 1.262522065618321e-05, 1.5747418970994997e-10)
}

// checkParentSpillLoadsCold loads the parent commit's spill of a TinyCNN
// partition on G-Arch-72 at batch 4 and a 150-iteration anneal of it, wants a
// cold cache, repeats both, and wants every entry computed — as many as both
// store on an empty cache — and the given partition and SA costs.
func checkParentSpillLoadsCold(t *testing.T, file string, partitionCost, saCost float64) {
	t.Helper()
	cache := eval.NewCache()
	n, err := cache.LoadDisk(filepath.Join("testdata", file))
	if err != nil || n != 0 || cache.Stats().Entries != 0 {
		t.Fatalf("%s: loaded %d entries (%d resident), err %v; want a cold cache", file, n, cache.Stats().Entries, err)
	}
	cfg := arch.GArch72()
	run := func(cache *eval.Cache) (*graphpart.Result, sa.Result) {
		ev := eval.NewWithCache(&cfg, cache)
		res, err := graphpart.Partition(dnn.TinyCNN(), &cfg, ev, 4, graphpart.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		opt := sa.DefaultOptions()
		opt.Iterations = 150
		return res, sa.Optimize(res.Scheme, ev, opt)
	}
	res, r := run(cache)
	empty := eval.NewCache()
	run(empty)
	if st, want := cache.Stats(), empty.Stats(); st != want || st.Misses != int64(st.Entries) {
		t.Errorf("partition + SA after loading %s: %+v; want what they store on an empty cache, all computed: %+v", file, st, want)
	}
	if res.Cost != partitionCost || r.Cost != saCost {
		t.Errorf("partition cost %v, SA cost %v; want %v and %v", res.Cost, r.Cost, partitionCost, saCost)
	}
}

// TestDiskRoundTripServesPartition: named segment entries — cut-free ones on
// G-Arch-72's two-chiplet array — survive the disk round trip like
// content-addressed ones. A fresh cache loaded from the spill of one Partition
// repeats it, and partitions the same core array under another cut, without a
// single miss, and returns what a private evaluator returns.
func TestDiskRoundTripServesPartition(t *testing.T) {
	cfg := arch.GArch72()
	recut := cfg
	recut.XCut, recut.YCut = 3, 2
	partition := func(cfg *arch.Config, c *eval.Cache) *graphpart.Result {
		t.Helper()
		res, err := graphpart.Partition(dnn.TinyCNN(), cfg, eval.NewWithCache(cfg, c), 4, graphpart.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := eval.NewCache()
	partition(&cfg, first)
	path := filepath.Join(t.TempDir(), "evalcache.ndjson")
	if err := first.SaveDisk(path); err != nil {
		t.Fatal(err)
	}

	second := eval.NewCache()
	if n, err := second.LoadDisk(path); err != nil || n != first.Stats().Entries {
		t.Fatalf("loaded %d of %d entries, err %v", n, first.Stats().Entries, err)
	}
	for _, c := range []*arch.Config{&cfg, &recut} {
		want := partition(c, eval.NewCache())
		got := partition(c, second)
		if st := second.Stats(); st.Misses != 0 || st.Hits == 0 {
			t.Errorf("cut %dx%d: partition was not served from the spill: %+v", c.XCut, c.YCut, st)
		}
		if !reflect.DeepEqual(got.Groups, want.Groups) || !reflect.DeepEqual(got.BatchUnits, want.BatchUnits) || got.Cost != want.Cost {
			t.Errorf("cut %dx%d: partition from the spill diverged: %v %v %v vs %v %v %v", c.XCut, c.YCut,
				got.Groups, got.BatchUnits, got.Cost, want.Groups, want.BatchUnits, want.Cost)
		}
	}
}
