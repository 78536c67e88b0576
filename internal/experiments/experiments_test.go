package experiments

import (
	"reflect"
	"strings"
	"testing"

	"gemini/internal/dse"
)

func quick() Options {
	o := QuickOptions()
	o.SAIterations = 80
	o.Batches = []int{2}
	return o
}

func TestFig5Quick(t *testing.T) {
	r, err := Fig5(quick())
	if err != nil {
		t.Fatal(err)
	}
	// 2 models x 1 batch x 3 settings.
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Setting == "S-Arch+T-Map" && (row.NormDelay != 1 || row.NormEnergy != 1) {
			t.Errorf("baseline not normalized to 1: %+v", row)
		}
		if row.Delay <= 0 || row.Energy.Total() <= 0 {
			t.Errorf("degenerate row: %+v", row)
		}
	}
	// The co-exploration shape: G wins on both axes vs the baseline.
	if r.PerfGain < 1 {
		t.Errorf("perf gain %.2f < 1", r.PerfGain)
	}
	if r.EnergyGain < 1 {
		t.Errorf("energy gain %.2f < 1", r.EnergyGain)
	}
	// Mapping-only gains cannot exceed... they can, but must be >= 1 since
	// SA starts from the baseline scheme.
	if r.MapOnlyPerfGain < 1 || r.MapOnlyEnergyGain < 1 {
		t.Errorf("mapping-only gains below 1: %v / %v", r.MapOnlyPerfGain, r.MapOnlyEnergyGain)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "headline") {
		t.Error("print output missing headline")
	}
}

func TestTArchQuick(t *testing.T) {
	r, err := TArch(quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.PerfGain < 1 {
		t.Errorf("perf gain %.2f < 1 (paper: 1.74)", r.PerfGain)
	}
	if r.MCReduction <= 0 {
		t.Errorf("MC reduction %.2f, want positive (paper: 40.1%%)", r.MCReduction)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "folded torus") {
		t.Error("missing print output")
	}
}

func TestFig6Quick(t *testing.T) {
	o := quick()
	r, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no scatter points")
	}
	// Every point is normalized to the optimum, so >= some point near 1.
	minEDP := r.Points[0].EDP
	for _, p := range r.Points {
		if p.EDP < minEDP {
			minEDP = p.EDP
		}
		if p.EDP <= 0 || p.MC <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	if minEDP > 1.0001 {
		t.Errorf("min normalized EDP = %v, want <= 1", minEDP)
	}
	if len(r.Optima) != 8 { // 2 spaces x 4 objectives
		t.Errorf("optima = %d, want 8", len(r.Optima))
	}
	for k, ch := range r.OptimaChiplets {
		if ch < 1 {
			t.Errorf("%s: chiplets = %d", k, ch)
		}
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "objective optima") {
		t.Error("print incomplete")
	}
}

func TestFig7Quick(t *testing.T) {
	r, err := Fig7(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 objectives", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Delay <= 0 || row.DRAMBytes <= 0 || row.AvgLayersPerGroup <= 0 {
			t.Errorf("degenerate row %+v", row)
		}
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "MC*E*D") {
		t.Error("print incomplete")
	}
}

func TestFig8Quick(t *testing.T) {
	r, err := Fig8(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(r.Rows))
	}
	byScheme := map[string]map[float64]float64{}
	for _, row := range r.Rows {
		if byScheme[row.Scheme] == nil {
			byScheme[row.Scheme] = map[float64]float64{}
		}
		byScheme[row.Scheme][row.TOPS] = row.MCED
	}
	for tops, v := range byScheme["Optimal"] {
		if v < 0.999 || v > 1.001 {
			t.Errorf("Optimal at %.0f TOPs normalized to %v, want 1", tops, v)
		}
		// Paper shape: Simba-chiplet constructions are far worse than the
		// per-scale optimum, and worse than the joint optimum.
		if byScheme["Simba-chiplets"][tops] <= v {
			t.Errorf("Simba construction at %.0f TOPs should be worse than Optimal", tops)
		}
		if byScheme["Simba-chiplets"][tops] < byScheme["JointOptimal"][tops] {
			t.Errorf("Joint optimal should beat Simba construction at %.0f TOPs", tops)
		}
	}
	if r.JointGap < 0 {
		t.Errorf("joint gap %v, want >= 0 (joint cannot beat per-scale optimum)", r.JointGap)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "joint-optimal gap") {
		t.Error("print incomplete")
	}
}

func TestFig9Quick(t *testing.T) {
	r, err := Fig9(quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.TangramHops <= 0 || r.GeminiHops <= 0 {
		t.Fatal("missing hop counts")
	}
	// The paper's Fig. 9 claim: Gemini reduces hops and especially D2D hops.
	if r.HopReduction < 0 {
		t.Errorf("hop reduction %.2f negative", r.HopReduction)
	}
	if r.GeminiD2DHops > r.TangramD2DHops {
		t.Errorf("SA increased D2D hops: %v -> %v", r.TangramD2DHops, r.GeminiD2DHops)
	}
	if !strings.Contains(r.TangramASCII, "|") || !strings.Contains(r.GeminiASCII, "|") {
		t.Error("heatmaps missing chiplet markers")
	}
	if !strings.HasPrefix(r.TangramCSV, "from_x") {
		t.Error("csv malformed")
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "hop reduction") {
		t.Error("print incomplete")
	}
}

func TestSpaceSizesTable(t *testing.T) {
	rows := SpaceSizes()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.AdvantageLog10 <= 0 {
			t.Errorf("M=%d N=%d: Gemini space should dwarf Tangram's", r.M, r.N)
		}
	}
	var sb strings.Builder
	PrintSpaceSizes(&sb)
	if !strings.Contains(sb.String(), "Sec. IV-B") {
		t.Error("print incomplete")
	}
}

// TestSharedSessionAcrossFigures pins the cross-figure session reuse: Fig. 6
// and Fig. 7 sweep the same tiny space, so running them through one session
// must produce identical results to sessionless runs while the second
// figure's sweep reuses the first's work.
func TestSharedSessionAcrossFigures(t *testing.T) {
	plain := quick()
	want6, err := Fig6(plain)
	if err != nil {
		t.Fatal(err)
	}
	want7, err := Fig7(plain)
	if err != nil {
		t.Fatal(err)
	}

	shared := quick()
	shared.Session = dse.NewSession()
	got6, err := Fig6(shared)
	if err != nil {
		t.Fatal(err)
	}
	afterFig6 := shared.Session.CacheStats()
	got7, err := Fig7(shared)
	if err != nil {
		t.Fatal(err)
	}
	afterFig7 := shared.Session.CacheStats()

	if len(got6.Points) != len(want6.Points) {
		t.Fatalf("fig6 points: %d vs %d", len(got6.Points), len(want6.Points))
	}
	for i := range want6.Points {
		if want6.Points[i] != got6.Points[i] {
			t.Errorf("fig6 point %d differs: %+v vs %+v", i, want6.Points[i], got6.Points[i])
		}
	}
	if len(got7.Rows) != len(want7.Rows) {
		t.Fatalf("fig7 rows: %d vs %d", len(got7.Rows), len(want7.Rows))
	}
	for i := range want7.Rows {
		if want7.Rows[i] != got7.Rows[i] {
			t.Errorf("fig7 row %d differs: %+v vs %+v", i, want7.Rows[i], got7.Rows[i])
		}
	}

	// Fig. 7 re-sweeps Fig. 6's 128 TOPs space under identical options, so
	// its cells resume from the session checkpoint.
	if shared.Session.ResumedCells() == 0 && afterFig7.Hits <= afterFig6.Hits {
		t.Errorf("fig7 reused nothing: resumed=%d, hits %d -> %d",
			shared.Session.ResumedCells(), afterFig6.Hits, afterFig7.Hits)
	}
}

// TestFiguresSessionParity pins that a figure's result depends on its
// options only: each figure at quick() returns the same result with Session
// nil (one session of its own per call) as on one session shared by every
// figure and already warm from the figures before it.
func TestFiguresSessionParity(t *testing.T) {
	shared := quick()
	shared.Session = dse.NewSession()
	for _, f := range []struct {
		name string
		run  func(Options) (any, error)
	}{
		{"fig5", func(o Options) (any, error) { return Fig5(o) }},
		{"tarch", func(o Options) (any, error) { return TArch(o) }},
		{"fig8", func(o Options) (any, error) { return Fig8(o) }},
		{"chiplet granularity", func(o Options) (any, error) { return ChipletGranularity(o) }},
		{"core granularity", func(o Options) (any, error) { return CoreGranularity(o) }},
	} {
		want, err := f.run(quick())
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		got, err := f.run(shared)
		if err != nil {
			t.Fatalf("%s on the shared session: %v", f.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s differs on the shared session:\n got %+v\nwant %+v", f.name, got, want)
		}
	}
}
