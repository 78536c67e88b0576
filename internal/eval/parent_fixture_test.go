package eval_test

import (
	"path/filepath"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
)

// TestParentCommitDiskCacheServes: testdata/evalcache_v2_parent.ndjson is the
// spill the commit before the fingerprint moved onto dnn.Graph wrote after
// partitioning TinyCNN on G-Arch-72 at batch 4. Its keys must still be the
// keys the evaluator asks for, so repeating that partition on the loaded
// cache recomputes nothing.
func TestParentCommitDiskCacheServes(t *testing.T) {
	cache := eval.NewCache()
	n, err := cache.LoadDisk(filepath.Join("testdata", "evalcache_v2_parent.ndjson"))
	if err != nil || n != 84 {
		t.Fatalf("loaded %d entries, err %v; want 84, nil", n, err)
	}
	cfg := arch.GArch72()
	res, err := graphpart.Partition(dnn.TinyCNN(), &cfg, eval.NewWithCache(&cfg, cache), 4, graphpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 0 || st.DiskHits != st.Hits || st.Hits == 0 {
		t.Errorf("repeat partition was not served from the parent's spill: %+v", st)
	}
	r := eval.New(&cfg).Evaluate(res.Scheme)
	if r.Delay != 6.282199999999999e-06 || r.Energy.Total() != 2.559942488e-05 {
		t.Errorf("partition diverged from the parent's: delay %v energy %v", r.Delay, r.Energy.Total())
	}
}
