package dse

import (
	"bytes"
	"math"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

func TestScoreObjectives(t *testing.T) {
	mc, e, d := 30.0, 0.1, 0.01
	cases := []struct {
		o    Objective
		want float64
	}{
		{Objective{1, 1, 1}, 30 * 0.1 * 0.01},
		{Objective{0, 1, 1}, 0.1 * 0.01},
		{Objective{1, 0, 1}, 30 * 0.01},
		{Objective{1, 1, 0}, 30 * 0.1},
		{Objective{2, 1, 1}, 900 * 0.1 * 0.01},
	}
	for _, c := range cases {
		if got := Score(mc, e, d, c.o); math.Abs(got-c.want) > c.want*1e-12 {
			t.Errorf("Score(%+v) = %v, want %v", c.o, got, c.want)
		}
	}
}

func TestObjectiveChangesWinner(t *testing.T) {
	// A cheap slow arch and an expensive fast arch: MC-heavy objectives
	// pick the former, delay-heavy the latter. Bandwidth drives both the
	// delay gap (tiny models are communication-bound) and the cost gap
	// (NoC area, DRAM dies).
	cheap := arch.GArch72()
	cheap.NoCBW, cheap.D2DBW, cheap.DRAMBW = 4, 2, 64
	cheap.Name = "zcheap" // alphabetically last: ties cannot favor it
	fast := arch.GArch72()
	fast.NoCBW, fast.D2DBW, fast.DRAMBW = 128, 64, 288
	fast.Name = "fast"
	models := []*dnn.Graph{dnn.TinyCNN()}

	run := func(o Objective) string {
		opt := testOptions()
		opt.Objective = o
		rs := NewSession().Run([]arch.Config{cheap, fast}, models, opt)
		b := Best(rs)
		if b == nil {
			t.Fatal("no feasible result")
		}
		return b.Cfg.Name
	}
	mcWinner := run(Objective{Alpha: 4, Beta: 0, Gamma: 0.1})
	dWinner := run(Objective{Alpha: 0, Beta: 0, Gamma: 1})
	if mcWinner != "zcheap" {
		t.Errorf("MC-heavy objective picked %s", mcWinner)
	}
	if dWinner != "fast" {
		t.Errorf("delay objective picked %s", dWinner)
	}
}

func TestGeometricMeanAggregation(t *testing.T) {
	cfg := arch.GArch72()
	models := []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()}
	rs := NewSession().Run([]arch.Config{cfg}, models, testOptions())
	if len(rs) != 1 || !rs[0].Feasible {
		t.Fatal("run failed")
	}
	r := rs[0]
	if len(r.PerModel) != 2 {
		t.Fatalf("per-model results = %d", len(r.PerModel))
	}
	wantE := math.Sqrt(r.PerModel[0].Energy * r.PerModel[1].Energy)
	wantD := math.Sqrt(r.PerModel[0].Delay * r.PerModel[1].Delay)
	if math.Abs(r.Energy-wantE) > wantE*1e-12 || math.Abs(r.Delay-wantD) > wantD*1e-12 {
		t.Errorf("geomean mismatch: %v/%v vs %v/%v", r.Energy, r.Delay, wantE, wantD)
	}
}

// TestRunInfeasibleCandidateRankedLast: an infeasible candidate ranks last,
// and its cell is a settled outcome — checkpointed, and restored on resume
// as infeasible, never as an error.
func TestRunInfeasibleCandidateRankedLast(t *testing.T) {
	ok := arch.GArch72()
	bad := arch.GArch72()
	bad.GLBPerCore = 512 // nothing fits
	bad.Name = "bad"
	cands, models := []arch.Config{bad, ok}, []*dnn.Graph{dnn.TinyCNN()}
	ses := NewSession()
	rs := ses.Run(cands, models, testOptions())
	if !rs[0].Feasible {
		t.Fatal("feasible candidate should sort first")
	}
	if rs[1].Feasible {
		t.Fatal("512-byte GLB should be infeasible")
	}
	if !math.IsInf(rs[1].Obj, 1) {
		t.Errorf("infeasible objective = %v", rs[1].Obj)
	}
	var ckpt bytes.Buffer
	if err := ses.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	resumed := NewSession()
	if err := resumed.LoadCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	again := resumed.Run(cands, models, testOptions())
	if resumed.ResumedCells() != 2 || again[1].Status() != "infeasible" {
		t.Errorf("resume restored %d of 2 cells, infeasible candidate status %q", resumed.ResumedCells(), again[1].Status())
	}
}

func TestMapModelLatencyScenario(t *testing.T) {
	// Batch 1 (latency scenario, Sec. VI-A1) must work end to end.
	cfg := arch.GArch72()
	opt := testOptions()
	opt.Batch = 1
	mr, err := NewSession().MapModel(&cfg, dnn.TinyCNN(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range mr.Eval.Groups {
		if gr.Passes != 1 {
			t.Errorf("batch 1 should give single-pass groups, got %d", gr.Passes)
		}
	}
}
