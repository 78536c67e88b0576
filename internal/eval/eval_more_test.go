package eval

import (
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
)

func TestWeightStreamingRaisesDRAMTraffic(t *testing.T) {
	// With a generous GLB the FC layer's weights are resident (loaded once
	// per run); with a small GLB they stream every pass, multiplying the
	// DRAM traffic by the pass count.
	g := dnn.NewBuilder("fcnet")
	in := g.Input(1, 1, 4096)
	g.FC("fc1", in, 4096)
	graph := g.MustBuild()

	big := arch.GArch72()
	big.GLBPerCore = 32 * arch.MB
	small := arch.GArch72()
	small.GLBPerCore = 256 * arch.KB

	mk := func(cfg *arch.Config) Result {
		s, err := core.StripeScheme(graph, cfg, [][]int{{0}}, []int{1}, 8)
		if err != nil {
			t.Fatal(err)
		}
		return New(cfg).Evaluate(s)
	}
	rb, rs := mk(&big), mk(&small)
	if !rb.Feasible || !rs.Feasible {
		t.Fatal("infeasible")
	}
	// 16 MB of weights, batch 8: streaming should cost ~8x the resident
	// weight traffic.
	if rs.DRAMBytes < rb.DRAMBytes*3 {
		t.Errorf("streaming DRAM %v should far exceed resident %v", rs.DRAMBytes, rb.DRAMBytes)
	}
	if rs.Energy.DRAM <= rb.Energy.DRAM {
		t.Error("streaming should cost more DRAM energy")
	}
}

func TestWeightPreloadAddsDelayOnce(t *testing.T) {
	// Doubling the batch doubles pass-dependent delay but not the one-time
	// weight preload: delay(2B) < 2*delay(B) when preload is significant.
	g := dnn.NewBuilder("wide")
	in := g.Input(1, 1, 2048)
	g.FC("fc1", in, 2048)
	graph := g.MustBuild()
	cfg := arch.GArch72()
	cfg.GLBPerCore = 16 * arch.MB

	ev := New(&cfg)
	mk := func(batch int) Result {
		s, err := core.StripeScheme(graph, &cfg, [][]int{{0}}, []int{1}, batch)
		if err != nil {
			t.Fatal(err)
		}
		return ev.Evaluate(s)
	}
	d1, d2 := mk(8).Delay, mk(16).Delay
	if d2 >= 2*d1 {
		t.Errorf("preload should amortize: delay(16)=%v vs 2*delay(8)=%v", d2, 2*d1)
	}
	if d2 <= d1 {
		t.Errorf("more batch must still take longer: %v vs %v", d2, d1)
	}
}

func TestLowerD2DBandwidthNeverFaster(t *testing.T) {
	fast := arch.GArch72()
	slow := arch.GArch72()
	slow.D2DBW = 2
	sf, evf := tinyOn(t, &fast, 4, 2)
	rf := evf.Evaluate(sf)
	ss, evs := tinyOn(t, &slow, 4, 2)
	rs := evs.Evaluate(ss)
	if rs.Delay < rf.Delay {
		t.Errorf("slower D2D produced faster result: %v < %v", rs.Delay, rf.Delay)
	}
}

func TestEvaluateEmptySchemeIsInfeasible(t *testing.T) {
	cfg := arch.GArch72()
	ev := New(&cfg)
	s := &core.Scheme{Graph: dnn.TinyCNN(), Batch: 1}
	r := ev.Evaluate(s)
	// No groups: nothing computed, so no objective is finite.
	if r.Feasible && r.Delay > 0 {
		t.Errorf("empty scheme is feasible with delay %v, want no positive delay", r.Delay)
	}
}

func TestUtilizationReported(t *testing.T) {
	cfg := arch.GArch72()
	s, ev := tinyOn(t, &cfg, 4, 2)
	r := ev.Evaluate(s)
	for gi, gr := range r.Groups {
		if gr.AvgUtil <= 0 || gr.AvgUtil > 1 {
			t.Errorf("group %d utilization = %v", gi, gr.AvgUtil)
		}
	}
}

func TestEnergyBreakdownAccessors(t *testing.T) {
	b := EnergyBreakdown{MAC: 1, GLB: 2, NoC: 3, D2D: 4, DRAM: 5}
	if b.Total() != 15 {
		t.Errorf("Total = %v", b.Total())
	}
	if b.IntraCore() != 3 {
		t.Errorf("IntraCore = %v", b.IntraCore())
	}
	if b.Network() != 7 {
		t.Errorf("Network = %v", b.Network())
	}
}
