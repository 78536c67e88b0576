package dse

import (
	"reflect"
	"slices"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
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
// both real models, every group of the scheme SA returns for one sibling has
// the summary the *other* sibling computes for it, bit for bit, and the
// evaluation the mapping reported equals a private evaluator's — though its
// partition was served by name from a cache every geometry and sibling writes
// to in whatever order the parallel subtests interleave.
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
// Whichever sibling computes a summary, the other finishes it: the two must
// compute the same one.
func siblingOracle(t *testing.T, asker, primer *arch.Config, g *dnn.Graph, opt Options, mapCache *eval.Cache) {
	mr, err := mapModelEval(&cellRun{warmArch: newWarmArch(eval.NewWithCache(asker, mapCache))}, asker, g, opt.Mapping, nil)
	if err != nil {
		t.Fatalf("%s/%s: %v", asker.Name, g.Name, err)
	}
	scheme := mr.SA.Scheme
	want := eval.New(asker).Evaluate(scheme)
	if !want.Feasible || !reflect.DeepEqual(mr.Eval, want) {
		t.Errorf("%s/%s: the mapping's evaluation differs from a private evaluator's", asker.Name, g.Name)
	}

	pe, ae := eval.New(primer), eval.New(asker)
	for gi := range scheme.Groups {
		if p, a := pe.SummarizeGroup(scheme, gi), ae.SummarizeGroup(scheme, gi); p != a {
			t.Errorf("%s/%s: group %d's summary on %s differs from %s's:\n got %+v\nwant %+v", asker.Name, g.Name, gi, primer.Name, asker.Name, p, a)
		}
	}
}

// cutVariants groups the multi-chiplet candidates of a reduced grid by core
// array: each group is every cut of one array, at the first bandwidth setting
// the grid gives that cut, in candidate order.
func cutVariants(sp Space) [][]arch.Config {
	byArray := map[uint64][]arch.Config{}
	var arrays []uint64
	seen := map[uint64]bool{}
	for _, c := range sp.Reduced().Enumerate() {
		if c.Chiplets() == 1 || seen[eval.AnalysisFingerprint(&c)] {
			continue
		}
		seen[eval.AnalysisFingerprint(&c)] = true
		mono := c
		mono.XCut, mono.YCut = 1, 1
		k := eval.AnalysisFingerprint(&mono)
		if byArray[k] == nil {
			arrays = append(arrays, k)
		}
		byArray[k] = append(byArray[k], c)
	}
	groups := make([][]arch.Config, len(arrays))
	for i, k := range arrays {
		groups[i] = byArray[k]
	}
	return groups
}

// TestCutSiblingInvarianceOnRealZoo is the oracle behind cut-free segment
// entries: for every core array of the reduced 72- and 128-TOPs grids and
// both real models, Partition on each multi-chiplet cut of the array through
// one shared cache returns what a private evaluator's Partition returns —
// groups, batch units and cost — and every chosen group, served by name from
// the entry the array's first cut stored and resolved under this cut, equals
// a private evaluation of its stripe LMS, bit for bit. Only the first cut
// adds cache misses.
func TestCutSiblingInvarianceOnRealZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("partitions real zoo models")
	}
	models := []*dnn.Graph{dnn.ResNet50(), dnn.Transformer()}
	opt := DefaultOptions()
	gp := graphpart.DefaultOptions()
	gp.Beta, gp.Gamma = opt.Objective.Beta, opt.Objective.Gamma
	gp.MaxGroupLayers = 8 // bounds the partitioner, which is all of this test
	for _, sp := range []Space{Space72(), Space128()} {
		for _, cuts := range cutVariants(sp) {
			if len(cuts) < 2 {
				t.Fatalf("%s: core array of %s has %d multi-chiplet cuts, want several", sp.Name, cuts[0].Name, len(cuts))
			}
			t.Run(sp.Name+"/"+cuts[0].Name, func(t *testing.T) {
				t.Parallel()
				shared := eval.NewCache()
				for ci := range cuts {
					cfg := &cuts[ci]
					paid := shared.Stats().Misses
					for _, g := range models {
						cutSiblingOracle(t, cfg, g, opt.Batch, gp, shared)
					}
					if added := shared.Stats().Misses - paid; (ci == 0) != (added > 0) {
						t.Errorf("cut %dx%d (variant %d of %d) added %d cache misses; only the first may pay",
							cfg.XCut, cfg.YCut, ci+1, len(cuts), added)
					}
				}
			})
		}
	}
}

// cutSiblingOracle partitions g on cfg through shared and checks the result
// against a private evaluator's.
func cutSiblingOracle(t *testing.T, cfg *arch.Config, g *dnn.Graph, batch int, gp graphpart.Options, shared *eval.Cache) {
	ev := eval.NewWithCache(cfg, shared)
	got, err := graphpart.Partition(g, cfg, ev, batch, gp)
	if err != nil {
		t.Fatalf("%s/%s: %v", cfg.Name, g.Name, err)
	}
	private := eval.New(cfg)
	want, err := graphpart.Partition(g, cfg, private, batch, gp)
	if err != nil {
		t.Fatalf("%s/%s: private: %v", cfg.Name, g.Name, err)
	}
	if got.Cost != want.Cost || !reflect.DeepEqual(got.Groups, want.Groups) || !reflect.DeepEqual(got.BatchUnits, want.BatchUnits) {
		t.Fatalf("%s/%s: shared-cache partition (cost %v) differs from a private evaluator's (cost %v)", cfg.Name, g.Name, got.Cost, want.Cost)
	}
	st := core.NewStriper(cfg)
	for k, grp := range got.Groups {
		j, i, bu := grp[0], grp[len(grp)-1]+1, got.BatchUnits[k]
		var res eval.GroupResult
		if !ev.LookupGroup(ev.SegmentKey(g, batch, j, i, bu), batch, &res) {
			t.Fatalf("%s/%s: chosen group [%d,%d) bu %d is not stored", cfg.Name, g.Name, j, i, bu)
		}
		lms, err := st.Stripes(g, grp, bu)
		if err != nil {
			t.Fatal(err)
		}
		if w := private.EvaluateGroup(&core.Scheme{Graph: g, Batch: batch, Groups: []*core.LMS{lms}}, 0); res != w {
			t.Errorf("%s/%s: group [%d,%d) bu %d served %+v, private evaluation %+v", cfg.Name, g.Name, j, i, bu, res, w)
		}
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
