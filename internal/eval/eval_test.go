package eval

import (
	"math"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
)

func allLayers(g *dnn.Graph) []int {
	ids := make([]int, len(g.Layers))
	for i := range g.Layers {
		ids[i] = i
	}
	return ids
}

func tinyOn(t *testing.T, cfg *arch.Config, batch, bu int) (*core.Scheme, *Evaluator) {
	t.Helper()
	g := dnn.TinyCNN()
	s, err := core.StripeScheme(g, cfg, [][]int{allLayers(g)}, []int{bu}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	return s, New(cfg)
}

func TestEvaluateBasics(t *testing.T) {
	cfg := arch.GArch72()
	s, ev := tinyOn(t, &cfg, 4, 2)
	r := ev.Evaluate(s)
	if !r.Feasible {
		t.Fatal("tiny scheme should be feasible")
	}
	if r.Delay <= 0 || r.Energy.Total() <= 0 {
		t.Fatalf("delay=%v energy=%v", r.Delay, r.Energy.Total())
	}
	if r.Groups[0].Passes != 2 {
		t.Errorf("passes = %d, want 2", r.Groups[0].Passes)
	}
	for _, f := range []float64{r.Energy.MAC, r.Energy.GLB, r.Energy.NoC, r.Energy.DRAM} {
		if f <= 0 {
			t.Errorf("breakdown component missing: %+v", r.Energy)
		}
	}
	if got := r.EDP(); math.Abs(got-r.Energy.Total()*r.Delay) > 1e-18 {
		t.Errorf("EDP inconsistent")
	}
}

func TestMonolithicHasNoD2D(t *testing.T) {
	cfg := arch.GArch72()
	cfg.XCut, cfg.YCut = 1, 1
	s, ev := tinyOn(t, &cfg, 4, 2)
	r := ev.Evaluate(s)
	if !r.Feasible {
		t.Fatal("infeasible")
	}
	if r.Energy.D2D != 0 {
		t.Errorf("monolithic D2D energy = %v, want 0", r.Energy.D2D)
	}
}

func TestMoreChipletsMoreD2DEnergy(t *testing.T) {
	mono := arch.GArch72()
	mono.XCut, mono.YCut = 1, 1
	fine := arch.Simba() // 36 chiplets

	sm, evm := tinyOn(t, &mono, 4, 2)
	rm := evm.Evaluate(sm)
	sf, evf := tinyOn(t, &fine, 4, 2)
	rf := evf.Evaluate(sf)
	if !rm.Feasible || !rf.Feasible {
		t.Fatal("infeasible")
	}
	if rf.Energy.D2D <= rm.Energy.D2D {
		t.Errorf("36-chiplet D2D %v should exceed monolithic %v", rf.Energy.D2D, rm.Energy.D2D)
	}
	// With the same mapping, total network energy is strictly worse on the
	// fine-grained partition (paper insight 1).
	if rf.Energy.Network() <= rm.Energy.Network() {
		t.Errorf("network energy %v should exceed monolithic %v", rf.Energy.Network(), rm.Energy.Network())
	}
}

func TestEnergyScalesWithBatch(t *testing.T) {
	cfg := arch.GArch72()
	s4, ev := tinyOn(t, &cfg, 4, 1)
	r4 := ev.Evaluate(s4)
	s8, _ := tinyOn(t, &cfg, 8, 1)
	r8 := ev.Evaluate(s8)
	if r8.Energy.MAC <= r4.Energy.MAC*1.5 {
		t.Errorf("batch 8 MAC energy %v should be ~2x batch 4 %v", r8.Energy.MAC, r4.Energy.MAC)
	}
	if r8.Delay <= r4.Delay {
		t.Errorf("batch 8 delay %v should exceed batch 4 %v", r8.Delay, r4.Delay)
	}
}

func TestLPReducesDRAMVersusSplitGroups(t *testing.T) {
	// One fused group keeps inter-layer feature maps on-chip; splitting the
	// same layers into two groups forces a DRAM round trip (the core LP
	// benefit, paper Sec. II-B).
	cfg := arch.GArch72()
	g := dnn.TinyCNN()
	one, err := core.StripeScheme(g, &cfg, [][]int{allLayers(g)}, []int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	two, err := core.StripeScheme(g, &cfg, [][]int{{0, 1, 2, 3}, {4, 5, 6}}, []int{1, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ev := New(&cfg)
	r1, r2 := ev.Evaluate(one), ev.Evaluate(two)
	if !r1.Feasible || !r2.Feasible {
		t.Fatal("infeasible")
	}
	if r2.DRAMBytes <= r1.DRAMBytes {
		t.Errorf("split groups DRAM %v should exceed fused %v", r2.DRAMBytes, r1.DRAMBytes)
	}
	if r2.Energy.DRAM <= r1.Energy.DRAM {
		t.Errorf("split groups DRAM energy should be higher")
	}
}

func TestSerDesModelBurnsIdlePower(t *testing.T) {
	cfg := arch.GArch72()
	s, ev := tinyOn(t, &cfg, 4, 2)
	grs := ev.Evaluate(s)

	ev2 := New(&cfg)
	ev2.Params.D2DModel = SerDes
	sd := ev2.Evaluate(s)
	if sd.Energy.D2D <= 0 {
		t.Fatal("serdes D2D energy missing")
	}
	if sd.Energy.D2D == grs.Energy.D2D {
		t.Error("serdes and GRS models should differ")
	}
	// SerDes energy scales with delay, not volume: doubling batch doubles
	// both, so the ratio stays ~constant.
	s8, _ := tinyOn(t, &cfg, 8, 2)
	sd8 := ev2.Evaluate(s8)
	ratio := sd8.Energy.D2D / sd.Energy.D2D
	dratio := sd8.Delay / sd.Delay
	if math.Abs(ratio-dratio) > 0.05*dratio {
		t.Errorf("serdes energy ratio %v should track delay ratio %v", ratio, dratio)
	}
}

func TestInfeasibleTinyGLB(t *testing.T) {
	cfg := arch.GArch72()
	cfg.GLBPerCore = 512 // bytes; nothing fits
	s, ev := tinyOn(t, &cfg, 4, 2)
	r := ev.Evaluate(s)
	if r.Feasible {
		t.Fatal("expected infeasible")
	}
}

func TestHigherBandwidthNeverSlower(t *testing.T) {
	slow := arch.GArch72()
	slow.NoCBW, slow.D2DBW = 8, 4
	fast := arch.GArch72()
	fast.NoCBW, fast.D2DBW = 128, 64

	ss, evs := tinyOn(t, &slow, 4, 2)
	rs := evs.Evaluate(ss)
	sf, evf := tinyOn(t, &fast, 4, 2)
	rf := evf.Evaluate(sf)
	if rf.Delay > rs.Delay {
		t.Errorf("faster NoC slower: %v > %v", rf.Delay, rs.Delay)
	}
}

func TestBatchUnitTradeoff(t *testing.T) {
	// Larger batch units mean fewer passes; stage time grows but fill/drain
	// amortizes. Both must produce the same total MAC energy.
	cfg := arch.GArch72()
	s1, ev := tinyOn(t, &cfg, 8, 1)
	r1 := ev.Evaluate(s1)
	s4, _ := tinyOn(t, &cfg, 8, 4)
	r4 := ev.Evaluate(s4)
	if !r1.Feasible || !r4.Feasible {
		t.Fatal("infeasible")
	}
	if math.Abs(r1.Energy.MAC-r4.Energy.MAC) > r1.Energy.MAC*1e-9 {
		t.Errorf("MAC energy should not depend on batch unit: %v vs %v", r1.Energy.MAC, r4.Energy.MAC)
	}
	if r4.Groups[0].Passes != 2 || r1.Groups[0].Passes != 8 {
		t.Errorf("passes = %d/%d, want 2/8", r4.Groups[0].Passes, r1.Groups[0].Passes)
	}
}

func TestAvgLayersPerGroup(t *testing.T) {
	cfg := arch.GArch72()
	g := dnn.TinyCNN()
	s, err := core.StripeScheme(g, &cfg, [][]int{{0, 1, 2, 3}, {4, 5, 6}}, []int{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := AvgLayersPerGroup(s); got != 3.5 {
		t.Errorf("avg layers per group = %v, want 3.5", got)
	}
}

func TestTransformerEvaluates(t *testing.T) {
	cfg := arch.GArch72()
	g := dnn.TinyTransformer()
	s, err := core.StripeScheme(g, &cfg, [][]int{allLayers(g)}, []int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ev := New(&cfg)
	r := ev.Evaluate(s)
	if !r.Feasible {
		t.Fatal("transformer stripes infeasible")
	}
	if r.Energy.Total() <= 0 || r.Delay <= 0 {
		t.Fatal("degenerate evaluation")
	}
}
