package eval_test

import (
	"testing"

	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
)

// TestSegmentFingerprintIsSegmentKeyArch: SegmentFingerprint is the one
// definition of a segment key's Arch half. On every candidate of the reduced
// 72-TOPs grid, monolithic and multi-chiplet, every name an evaluator asks
// the cache for carries it, so candidates the fleet groups by it share
// exactly the segments a shared cache would serve.
func TestSegmentFingerprintIsSegmentKeyArch(t *testing.T) {
	g := dnn.TinyCNN()
	cache := eval.NewCache()
	var mono, multi int
	for _, cfg := range dse.Space72().Reduced().Enumerate() {
		ev := eval.NewWithCache(&cfg, cache)
		want := eval.SegmentFingerprint(&cfg)
		for _, seg := range [][3]int{{0, 1, 1}, {0, len(g.Layers), 1}, {1, 3, 2}} {
			if got := ev.SegmentKey(g, 4, seg[0], seg[1], seg[2]).Arch; got != want {
				t.Fatalf("%s: SegmentKey%v Arch = %#x, SegmentFingerprint = %#x", cfg.Name, seg, got, want)
			}
		}
		if cfg.Chiplets() > 1 {
			multi++
		} else {
			mono++
			if want != eval.AnalysisFingerprint(&cfg) {
				t.Errorf("%s: a monolithic segment fingerprint is not the AnalysisFingerprint", cfg.Name)
			}
		}
	}
	if mono == 0 || multi == 0 {
		t.Fatalf("grid has %d monolithic and %d multi-chiplet candidates, want both kinds", mono, multi)
	}
}
