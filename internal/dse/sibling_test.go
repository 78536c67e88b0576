package dse

import (
	"reflect"
	"slices"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// bandwidthSiblings groups the reduced 72-TOPs grid by analysis fingerprint:
// each group is one geometry at every bandwidth setting the grid gives it.
func bandwidthSiblings(t *testing.T) [][]arch.Config {
	t.Helper()
	byKey := map[uint64][]arch.Config{}
	var keys []uint64
	for _, c := range Space72().Reduced().Enumerate() {
		k := eval.AnalysisFingerprint(&c)
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], c)
	}
	slices.Sort(keys)
	groups := make([][]arch.Config, len(keys))
	for i, k := range keys {
		groups[i] = byKey[k]
		if len(groups[i]) != 2 || eval.ConfigFingerprint(&groups[i][0]) == eval.ConfigFingerprint(&groups[i][1]) {
			t.Fatalf("geometry %s has %d candidates, want one NoC 32 / NoC 64 pair", groups[i][0].Name, len(groups[i]))
		}
	}
	return groups
}

// TestSiblingInvarianceOnRealZoo is the oracle behind bandwidth-free group
// summaries: for every bandwidth-sibling pair of the reduced 72-TOPs grid and
// both real models, the scheme SA returns for one sibling, evaluated through
// a shared cache the *other* sibling primed, costs zero misses and equals a
// private-memo evaluation bit for bit — and so does the evaluation the
// mapping itself reported, which ran on a cache every geometry and sibling
// writes to in whatever order the parallel subtests interleave.
func TestSiblingInvarianceOnRealZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("maps real zoo models")
	}
	models := []*dnn.Graph{dnn.ResNet50(), dnn.Transformer()}
	opt := DefaultOptions()
	opt.SAIterations = 40
	opt.MaxGroupLayers = 8 // bounds the partitioner, which is most of a cell
	mapCache := eval.NewCache()
	for _, sibs := range bandwidthSiblings(t) {
		t.Run(sibs[0].Name, func(t *testing.T) {
			t.Parallel()
			for _, g := range models {
				for i := range sibs {
					siblingOracle(t, &sibs[i], &sibs[1-i], g, opt, mapCache)
				}
			}
		})
	}
}

// siblingOracle maps g on asker and checks the SA output against primer.
func siblingOracle(t *testing.T, asker, primer *arch.Config, g *dnn.Graph, opt Options, mapCache *eval.Cache) {
	mr, err := mapModelEval(eval.NewWithCache(asker, mapCache), asker, g, opt, nil)
	if err != nil {
		t.Fatalf("%s/%s: %v", asker.Name, g.Name, err)
	}
	scheme := mr.SA.Scheme
	want := eval.New(asker).Evaluate(scheme)
	if !want.Feasible || !reflect.DeepEqual(mr.Eval, want) {
		t.Errorf("%s/%s: the mapping's evaluation differs from a private evaluator's", asker.Name, g.Name)
	}

	cache := eval.NewCache()
	eval.NewWithCache(primer, cache).Evaluate(scheme)
	primed := cache.Stats()
	got := eval.NewWithCache(asker, cache).Evaluate(scheme)
	if st := cache.Stats(); st.Misses != primed.Misses || st.Hits-primed.Hits != int64(len(scheme.Groups)) {
		t.Errorf("%s/%s: primed by %s, %d groups cost %d misses and %d hits", asker.Name, g.Name, primer.Name,
			len(scheme.Groups), st.Misses-primed.Misses, st.Hits-primed.Hits)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s/%s: primed by %s, result differs from a private evaluator's:\n got %+v\nwant %+v", asker.Name, g.Name, primer.Name, got, want)
	}
}

// TestSweepOrderInvariance: which sibling pays for a summary and which one
// finishes a stored one is decided by dispatch order, so a one-worker session
// sweep of the whole grid fed in candidate order and the same sweep fed in
// reversed order — every sibling pair primed the other way round — must
// return identical CandidateResults, per-group evaluation detail included.
func TestSweepOrderInvariance(t *testing.T) {
	fwd := Space72().Reduced().Enumerate()
	rev := slices.Clone(fwd)
	slices.Reverse(rev)
	models := []*dnn.Graph{testCNN, testTF}
	opt := testOptions()
	opt.Workers = 1
	opt.Prune = false
	opt.Dispatch = gridOrder

	sesF, sesR := NewSession(), NewSession()
	want, got := sesF.Run(fwd, models, opt), sesR.Run(rev, models, opt)
	resultsEqual(t, want, got, "forward vs reversed feed")
	for i := range want {
		w, g := &want[i], &got[i]
		if w.MC != g.MC || len(w.PerModel) != len(g.PerModel) {
			t.Fatalf("%s: cost or model count differs", w.Cfg.Name)
		}
		for m := range w.PerModel {
			if !reflect.DeepEqual(w.PerModel[m].Eval, g.PerModel[m].Eval) {
				t.Errorf("%s/%s: evaluation differs between feeds", w.Cfg.Name, w.PerModel[m].Model)
			}
		}
	}
	// The two feeds look up the same multiset of keys, so with one worker the
	// accounting is order-free too: misses are the distinct keys.
	if f, r := sesF.CacheStats(), sesR.CacheStats(); f != r || f.Hits == 0 || f.Flushes != 0 {
		t.Errorf("cache accounting differs between feeds: %+v vs %+v", f, r)
	}
}
