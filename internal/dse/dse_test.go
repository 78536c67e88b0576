package dse

import (
	"math"
	"strings"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

func TestGridFor(t *testing.T) {
	cases := []struct{ cores, w, h int }{
		{36, 6, 6}, {18, 6, 3}, {9, 3, 3}, {70, 10, 7}, {1, 1, 1}, {64, 8, 8}, {12, 4, 3},
	}
	for _, c := range cases {
		w, h := GridFor(c.cores)
		if w != c.w || h != c.h {
			t.Errorf("GridFor(%d) = %dx%d, want %dx%d", c.cores, w, h, c.w, c.h)
		}
		if w*h != c.cores {
			t.Errorf("GridFor(%d) loses cores", c.cores)
		}
	}
}

func TestCoresFor(t *testing.T) {
	sp := Space72()
	// Paper: 1024 MACs -> 36 cores (6x6); 2048 -> 18 (6x3); 4096 -> 9 (3x3).
	for macs, want := range map[int]int{1024: 36, 2048: 18, 4096: 9} {
		if got := sp.CoresFor(macs); got != want {
			t.Errorf("CoresFor(%d) = %d, want %d", macs, got, want)
		}
	}
}

func TestEnumerateValidates(t *testing.T) {
	sp := Space72().Reduced()
	cands := sp.Enumerate()
	if len(cands) == 0 {
		t.Fatal("empty candidate list")
	}
	for i := range cands {
		if err := cands[i].Validate(); err != nil {
			t.Errorf("candidate %s invalid: %v", cands[i].Name, err)
		}
		if tops := cands[i].TOPS(); math.Abs(tops-72) > 8 {
			t.Errorf("candidate %s TOPS = %.1f, want ~72", cands[i].Name, tops)
		}
	}
}

func TestEnumerateSkipsInvalidCuts(t *testing.T) {
	sp := Space72()
	sp.MACs = []int{2048} // 18 cores -> 6x3: YCut 6 invalid
	for _, c := range sp.Enumerate() {
		if c.CoresY%c.YCut != 0 || c.CoresX%c.XCut != 0 {
			t.Errorf("invalid cut survived: %s", c.Name)
		}
		if c.YCut == 6 {
			t.Errorf("YCut=6 should be invalid for 6x3 array")
		}
	}
}

func TestEnumerateDedupesMonolithicD2D(t *testing.T) {
	sp := Space72()
	sp.MACs = []int{1024}
	sp.DRAMPerTOPS = []float64{2}
	sp.NoCBWs = []float64{32}
	sp.GLBs = []int{1024 * arch.KB}
	mono := 0
	for _, c := range sp.Enumerate() {
		if c.Chiplets() == 1 {
			mono++
		}
	}
	if mono != 1 {
		t.Errorf("monolithic candidates = %d, want 1 (D2D ratio dedup)", mono)
	}
}

func TestScaleUp(t *testing.T) {
	base := arch.GArch72() // 6x6, 2x1 cuts
	quad, err := ScaleUp(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if quad.Cores() != 4*base.Cores() {
		t.Errorf("cores = %d, want %d", quad.Cores(), 4*base.Cores())
	}
	if quad.Chiplets() != 4*base.Chiplets() {
		t.Errorf("chiplets = %d, want %d", quad.Chiplets(), 4*base.Chiplets())
	}
	// Chiplet geometry is preserved: that is the whole point of reuse.
	if quad.ChipletW() != base.ChipletW() || quad.ChipletH() != base.ChipletH() {
		t.Error("chiplet geometry changed under scaling")
	}
	if quad.DRAMBW != 4*base.DRAMBW {
		t.Errorf("DRAM BW = %v, want %v", quad.DRAMBW, 4*base.DRAMBW)
	}
	if _, err := ScaleUp(base, 0); err == nil {
		t.Error("factor 0 should fail")
	}
	same, err := ScaleUp(base, 1)
	if err != nil || same.Cores() != base.Cores() {
		t.Error("factor 1 should be identity")
	}
}

func testOptions() Options {
	opt := DefaultOptions()
	opt.Batch = 4
	opt.SAIterations = 60
	opt.MaxGroupLayers = 7
	opt.BatchUnits = []int{1, 2}
	return opt
}

func TestMapModelPipeline(t *testing.T) {
	cfg := arch.GArch72()
	mr, err := NewSession().MapModel(&cfg, dnn.TinyCNN(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mr.Energy <= 0 || mr.Delay <= 0 {
		t.Fatalf("degenerate mapping result: %+v", mr)
	}
	if mr.Groups < 1 || mr.AvgLayersPerGroup <= 0 {
		t.Errorf("group stats missing: %+v", mr)
	}
}

func TestRunRanksByObjective(t *testing.T) {
	cands := []arch.Config{arch.GArch72(), arch.Simba()}
	models := []*dnn.Graph{dnn.TinyCNN()}
	results := NewSession().Run(cands, models, testOptions())
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i-1].Feasible && results[i].Feasible && results[i-1].Obj > results[i].Obj {
			t.Error("results not sorted by objective")
		}
	}
	best := Best(results)
	if best == nil {
		t.Fatal("no feasible candidate")
	}
	if got := Score(best.MC.Total(), best.Energy, best.Delay, MCED); math.Abs(got-best.Obj) > best.Obj*1e-9 {
		t.Errorf("objective mismatch: %v vs %v", got, best.Obj)
	}
}

func TestWriteCSV(t *testing.T) {
	cands := []arch.Config{arch.GArch72()}
	results := NewSession().Run(cands, []*dnn.Graph{dnn.TinyCNN()}, testOptions())
	var sb strings.Builder
	if err := WriteCSV(&sb, results); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "arch,chiplets") {
		t.Error("missing header")
	}
	if strings.Count(out, "\n") != len(results)+1 {
		t.Errorf("row count mismatch:\n%s", out)
	}
	if !strings.Contains(out, "true") {
		t.Error("no feasible row serialized")
	}
}

func TestJointRun(t *testing.T) {
	bases := []arch.Config{arch.GArch72()}
	models := []*dnn.Graph{dnn.TinyCNN()}
	res := NewSession().JointRun(bases, []int{1, 4}, models, testOptions())
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	jr := res[0]
	if !jr.Feasible {
		t.Fatal("joint result infeasible")
	}
	if len(jr.Scaled) != 2 {
		t.Fatalf("scaled results = %d", len(jr.Scaled))
	}
	wantProduct := jr.Scaled[0].Obj * jr.Scaled[1].Obj
	if math.Abs(jr.Product-wantProduct) > wantProduct*1e-9 {
		t.Errorf("product = %v, want %v", jr.Product, wantProduct)
	}
}

func TestSpaceSizesRoughlyTableI(t *testing.T) {
	// The full 72 TOPs grid should be in the thousands of candidates after
	// validity filtering — the scale the paper's 38-minute DSE implies.
	n := len(Space72().Enumerate())
	if n < 1000 || n > 50000 {
		t.Errorf("72 TOPs candidates = %d, expected thousands", n)
	}
	if rn := len(Space72().Reduced().Enumerate()); rn >= n || rn == 0 {
		t.Errorf("reduced space = %d, full = %d", rn, n)
	}
}
