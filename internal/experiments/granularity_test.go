package experiments

import (
	"strings"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dse"
)

func TestChipletGranularityQuick(t *testing.T) {
	r, err := ChipletGranularity(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byChiplets := map[int]GranularityRow{}
	for _, row := range r.Rows {
		byChiplets[row.Chiplets] = row
		if row.Yield <= 0 || row.Yield > 1 {
			t.Errorf("%d chiplets: yield %v", row.Chiplets, row.Yield)
		}
	}
	// Paper insight 1 shape: finer partitioning raises the D2D share and
	// per-chiplet yield, and 36 chiplets are strictly worse than 2 under
	// MC*E*D.
	if byChiplets[36].D2DShare <= byChiplets[2].D2DShare {
		t.Error("finer chiplets should spend more area on D2D")
	}
	if byChiplets[36].Yield <= byChiplets[1].Yield {
		t.Error("smaller chiplets must yield better")
	}
	if byChiplets[36].MCED <= byChiplets[2].MCED {
		t.Errorf("36 chiplets (%.2f) should be worse than 2 (%.2f) under MC*E*D",
			byChiplets[36].MCED, byChiplets[2].MCED)
	}
	if byChiplets[36].MC.Total() <= byChiplets[2].MC.Total() {
		t.Error("36 chiplets should cost more than 2")
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "chiplet granularity") {
		t.Error("print incomplete")
	}
}

func TestCoreGranularityQuick(t *testing.T) {
	// Pipeline-length benefits need the throughput scenario: with tiny
	// batches, fill/drain overhead legitimately suppresses fusion.
	o := quick()
	o.Batches = []int{16}
	r, err := CoreGranularity(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// MC rises with core count (insight 2's monotone claim).
	byCores := map[int]CoreGranularityRow{}
	maxCores, minCores := 0, 1<<30
	for _, row := range r.Rows {
		byCores[row.Cores] = row
		if row.Cores > maxCores {
			maxCores = row.Cores
		}
		if row.Cores < minCores {
			minCores = row.Cores
		}
	}
	if byCores[maxCores].MC <= byCores[minCores].MC {
		t.Errorf("MC should rise with core count: %v @%d vs %v @%d",
			byCores[maxCores].MC, maxCores, byCores[minCores].MC, minCores)
	}
	// More cores enable longer pipelines.
	if byCores[maxCores].AvgLayersPerGroup < byCores[minCores].AvgLayersPerGroup {
		t.Errorf("more cores should allow longer pipelines: %.1f @%d vs %.1f @%d",
			byCores[maxCores].AvgLayersPerGroup, maxCores,
			byCores[minCores].AvgLayersPerGroup, minCores)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "core granularity") {
		t.Error("print incomplete")
	}
}

// TestChipletGranularityHoldsItsGrid: ChipletGranularity maps its cuts one
// MapModel call at a time and holds its grid across the calls, so cuts
// sharing a segment group compute its segments once. The cuts fall in two
// groups (the monolithic cut and the cut-free rest), so the sweep misses
// the cache exactly as often as mapping the 1x1 and 2x1 cuts alone.
func TestChipletGranularityHoldsItsGrid(t *testing.T) {
	misses := func(run func(o Options) error) int64 {
		t.Helper()
		o := quick()
		o.Session = dse.NewSession()
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		return o.Session.CacheStats().Misses
	}
	got := misses(func(o Options) error { _, err := ChipletGranularity(o); return err })
	want := misses(func(o Options) error {
		for _, cut := range [][2]int{{1, 1}, {2, 1}} {
			cfg := arch.GArch72()
			cfg.XCut, cfg.YCut = cut[0], cut[1]
			cfg.Name = cfg.String()
			if _, err := o.Session.MapModel(&cfg, o.transformer(), o.dseOptions(o.batch())); err != nil {
				return err
			}
		}
		return nil
	})
	if got != want {
		t.Errorf("ChipletGranularity missed %d times, its two segment groups alone %d", got, want)
	}
}
