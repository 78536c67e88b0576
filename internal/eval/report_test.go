package eval

import (
	"strings"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

func TestReportStructure(t *testing.T) {
	cfg := arch.GArch72()
	s, ev := tinyOn(t, &cfg, 4, 2)
	rep, err := ev.Report(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != "tinycnn" || rep.Batch != 4 {
		t.Errorf("header wrong: %+v", rep)
	}
	if len(rep.Groups) != len(s.Groups) {
		t.Fatalf("groups = %d", len(rep.Groups))
	}
	g := rep.Groups[0]
	if len(g.Layers) != len(s.Groups[0].MSs) {
		t.Errorf("layer rows = %d, want %d", len(g.Layers), len(s.Groups[0].MSs))
	}
	for _, l := range g.Layers {
		if l.Cores < 1 {
			t.Errorf("layer %s cores = %d", l.Name, l.Cores)
		}
		if l.Kind == dnn.Conv && l.MACs <= 0 {
			t.Errorf("conv %s has no MACs", l.Name)
		}
	}
	// Stage time equals the max of the three attributed terms.
	maxTerm := g.ComputeTime
	if g.NetTime > maxTerm {
		maxTerm = g.NetTime
	}
	if g.DRAMTime > maxTerm {
		maxTerm = g.DRAMTime
	}
	// Weight streaming can add to the per-pass traffic beyond the split
	// attribution, so stage >= maxTerm.
	if g.StageTime < maxTerm*(1-1e-9) {
		t.Errorf("stage %v below attributed max %v", g.StageTime, maxTerm)
	}
	switch g.Bottleneck {
	case ComputeBound, NetworkBound, DRAMBound:
	default:
		t.Errorf("unknown bottleneck %q", g.Bottleneck)
	}
}

func TestReportPrintAndHistogram(t *testing.T) {
	cfg := arch.GArch72()
	s, ev := tinyOn(t, &cfg, 4, 2)
	rep, err := ev.Report(s)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rep.Print(&sb)
	out := sb.String()
	if !strings.Contains(out, "mapping report") || !strings.Contains(out, "group 0") {
		t.Error("print output incomplete")
	}
	h := map[Bottleneck]int{}
	for _, g := range rep.Groups {
		h[g.Bottleneck]++
	}
	if total := h[ComputeBound] + h[NetworkBound] + h[DRAMBound]; total != len(rep.Groups) {
		t.Errorf("histogram covers %d of %d groups", total, len(rep.Groups))
	}
}

func TestReportInfeasible(t *testing.T) {
	cfg := arch.GArch72()
	cfg.GLBPerCore = 512
	s, ev := tinyOn(t, &cfg, 4, 2)
	if _, err := ev.Report(s); err == nil {
		t.Fatal("expected infeasible error")
	}
}
