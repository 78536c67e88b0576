package graphpart

import (
	"reflect"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// segmentConfigs are G-Arch-72 (6x6, four chiplets), a 6x3 two-chiplet
// array and a 3x3 monolithic one, whose nine cores leave some ResNet-50
// segments infeasible.
func segmentConfigs() []arch.Config {
	two := arch.GArch72()
	two.Name, two.CoresX, two.CoresY, two.XCut, two.YCut = "6x3-2chiplet", 6, 3, 2, 1
	mono := arch.GArch72()
	mono.Name, mono.CoresX, mono.CoresY, mono.XCut, mono.YCut = "3x3-mono", 3, 3, 1, 1
	return []arch.Config{arch.GArch72(), two, mono}
}

// TestSegmentPathMatchesLMSPath: asking the evaluator for a DP segment by
// name returns, on the miss that computes it and on the hit that follows,
// exactly what the content-addressed path returns for the freshly striped
// LMS — bit for bit, feasible and infeasible alike — for every segment and
// batch unit Partition can propose. And Partition itself returns the same
// groups, batch units and cost through one cache shared by every graph and
// configuration as on a private evaluator.
func TestSegmentPathMatchesLMSPath(t *testing.T) {
	const batch = 64
	opt := DefaultOptions()
	shared := eval.NewCache()
	feasible, infeasible := 0, 0
	for _, g := range []*dnn.Graph{dnn.ResNet50(), dnn.Transformer()} {
		for _, cfg := range segmentConfigs() {
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			named := newSegmenter(g, &cfg, eval.New(&cfg), batch, opt)
			st := core.NewStriper(&cfg)
			byContent := eval.New(&cfg)
			maxLen := min(cfg.Cores(), 20)
			for j := 0; j < len(g.Layers); j++ {
				for i := j + 1; i <= len(g.Layers) && i-j <= maxLen; i++ {
					for _, bu := range opt.BatchUnits {
						lms, err := st.Stripes(g, named.ids[j:i], bu)
						if err != nil {
							t.Fatalf("%s on %s: stripes [%d,%d) bu %d: %v", g.Name, cfg.Name, j, i, bu, err)
						}
						want := byContent.EvaluateGroup(&core.Scheme{Graph: g, Batch: batch, Groups: []*core.LMS{lms}}, 0)
						if miss := named.evaluate(j, i, bu); miss != want {
							t.Fatalf("%s on %s: segment [%d,%d) bu %d computed by name: %+v, by content: %+v", g.Name, cfg.Name, j, i, bu, miss, want)
						}
						if hit := named.evaluate(j, i, bu); hit != want {
							t.Fatalf("%s on %s: segment [%d,%d) bu %d served by name: %+v, by content: %+v", g.Name, cfg.Name, j, i, bu, hit, want)
						}
						if want.Feasible {
							feasible++
						} else {
							infeasible++
						}
					}
				}
			}

			want, err := Partition(g, &cfg, eval.New(&cfg), batch, opt)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ { // cold, then served
				got, err := Partition(g, &cfg, eval.NewWithCache(&cfg, shared), batch, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != want.Cost || !reflect.DeepEqual(got.Groups, want.Groups) || !reflect.DeepEqual(got.BatchUnits, want.BatchUnits) {
					t.Fatalf("%s on %s pass %d: shared-cache partition (cost %v) differs from a private evaluator's (cost %v)", g.Name, cfg.Name, pass, got.Cost, want.Cost)
				}
			}
		}
	}
	t.Logf("%d feasible and %d infeasible segments compared", feasible, infeasible)
	if feasible == 0 || infeasible == 0 {
		t.Errorf("%d feasible, %d infeasible segments: the comparison is one-sided", feasible, infeasible)
	}
}
