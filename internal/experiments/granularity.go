package experiments

import (
	"fmt"
	"io"

	"gemini/internal/arch"
	"gemini/internal/cost"
	"gemini/internal/dnn"
	"gemini/internal/dse"
)

// GranularityRow is one point of the chiplet-granularity sweep
// (paper Fig. 8(a) and insight 1).
type GranularityRow struct {
	Chiplets   int
	XCut, YCut int

	MC        cost.Breakdown
	Energy    float64
	Delay     float64
	MCED      float64 // normalized to the best row
	Yield     float64
	TotalArea float64
	D2DShare  float64
}

// GranularityResult is the Fig. 8(a)-style sweep.
type GranularityResult struct {
	Arch string
	Rows []GranularityRow
	// BestChiplets is the chiplet count minimizing MC*E*D; the paper's
	// insight 1 expects a moderate value with the extremes worse.
	BestChiplets int
}

// ChipletGranularity sweeps the chiplet partitioning of the 72 TOPs
// G-Arch-class accelerator from monolithic to one-core-per-chiplet,
// holding all other resources fixed (paper Fig. 8(a), Sec. VII-A1).
func ChipletGranularity(opt Options) (*GranularityResult, error) {
	base := arch.GArch72()
	model := opt.transformer()
	d := opt.dseOptions(opt.batch())
	ses := opt.session()
	mce := cost.New()

	cuts := []struct{ x, y int }{{1, 1}, {2, 1}, {2, 2}, {3, 3}, {6, 3}, {6, 6}}
	var cfgs []arch.Config
	for _, c := range cuts {
		cfg := base
		cfg.XCut, cfg.YCut = c.x, c.y
		cfg.Name = cfg.String()
		if cfg.Validate() == nil {
			cfgs = append(cfgs, cfg)
		}
	}
	// Every multi-chiplet cut shares one cut-free segment group: hold it
	// across the sweep so each cut after the first finds its segments.
	defer ses.Hold(cfgs, []*dnn.Graph{model})()
	res := &GranularityResult{Arch: base.Name}
	for i := range cfgs {
		cfg := &cfgs[i]
		chiplets := cfg.XCut * cfg.YCut
		mr, err := ses.MapModel(cfg, model, d)
		if err != nil {
			return nil, fmt.Errorf("granularity: %d chiplets: %w", chiplets, err)
		}
		b := mce.Evaluate(cfg)
		row := GranularityRow{
			Chiplets: chiplets, XCut: cfg.XCut, YCut: cfg.YCut,
			MC: b, Energy: mr.Energy, Delay: mr.Delay,
			MCED:      b.Total() * mr.Energy * mr.Delay,
			Yield:     b.ComputeYield,
			TotalArea: b.TotalSiliconArea,
			D2DShare:  b.D2DAreaFraction,
		}
		res.Rows = append(res.Rows, row)
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("granularity: no valid cut")
	}
	best := res.Rows[0].MCED
	for _, r := range res.Rows {
		if r.MCED < best {
			best = r.MCED
		}
	}
	for i := range res.Rows {
		res.Rows[i].MCED /= best
		if res.Rows[i].MCED == 1 {
			res.BestChiplets = res.Rows[i].Chiplets
		}
	}
	return res, nil
}

// Print writes the Fig. 8(a)-style table.
func (r *GranularityResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 8(a) / insight 1: chiplet granularity sweep on %s resources\n", r.Arch)
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprint(row.Chiplets),
			fmt.Sprintf("%.2f", row.MC.Total()),
			fmt.Sprintf("%.2f", row.MC.Silicon()),
			fmt.Sprintf("%.2f", row.MC.Substrate),
			fmt.Sprintf("%.2f", row.Yield),
			fmt.Sprintf("%.0f", row.TotalArea),
			fmt.Sprintf("%.0f%%", 100*row.D2DShare),
			fmtE(row.Energy), fmtE(row.Delay),
			fmt.Sprintf("%.2f", row.MCED),
		})
	}
	table(w, []string{"chiplets", "MC($)", "silicon", "substrate", "yield", "area(mm2)", "d2d%", "energy(J)", "delay(s)", "MC*E*D"}, rows)
	fmt.Fprintf(w, "\nbest under MC*E*D: %d chiplet(s); the paper expects a moderate count with 36 strictly worse\n", r.BestChiplets)
}

// CoreGranularityRow is one point of the core-granularity sweep
// (paper Fig. 6(b), insight 2).
type CoreGranularityRow struct {
	Cores int
	MACs  int

	MC                float64
	Energy            float64
	Delay             float64
	EDP               float64 // normalized to best
	AvgLayersPerGroup float64
	DRAMBytes         float64
}

// CoreGranularityResult is the insight-2 sweep.
type CoreGranularityResult struct {
	Rows []CoreGranularityRow
}

// CoreGranularity sweeps MAC/core at constant total compute (the paper's
// 72 TOPs class), reporting the EDP/MC/pipeline trends of Sec. VII-A2.
func CoreGranularity(opt Options) (*CoreGranularityResult, error) {
	model := opt.transformer()
	d := opt.dseOptions(opt.batch())
	ses := opt.session()
	sp := dse.Space72()
	mce := cost.New()

	res := &CoreGranularityResult{}
	for _, macs := range []int{512, 1024, 2048, 4096, 8192} {
		cores := sp.CoresFor(macs)
		w, h := dse.GridFor(cores)
		if float64(w) > 2.5*float64(h) {
			continue
		}
		cfg := arch.Config{
			CoresX: w, CoresY: h, XCut: 1, YCut: 1,
			NoCBW: 32, DRAMBW: 144,
			MACsPerCore: macs, GLBPerCore: 2 * arch.MB, FreqGHz: 1,
		}
		cfg.Name = cfg.String()
		if cfg.Validate() != nil {
			continue
		}
		mr, err := ses.MapModel(&cfg, model, d)
		if err != nil {
			return nil, fmt.Errorf("core granularity: %d cores: %w", cores, err)
		}
		res.Rows = append(res.Rows, CoreGranularityRow{
			Cores: cores, MACs: macs,
			MC:     mce.Evaluate(&cfg).Total(),
			Energy: mr.Energy, Delay: mr.Delay,
			EDP:               mr.Energy * mr.Delay,
			AvgLayersPerGroup: mr.AvgLayersPerGroup,
			DRAMBytes:         mr.Eval.DRAMBytes,
		})
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("core granularity: no valid configuration")
	}
	best := res.Rows[0].EDP
	for _, r := range res.Rows {
		if r.EDP < best {
			best = r.EDP
		}
	}
	for i := range res.Rows {
		res.Rows[i].EDP /= best
	}
	return res, nil
}

// Print writes the insight-2 table (cores ascending).
func (r *CoreGranularityResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 6(b) / insight 2: core granularity at constant compute")
	var rows [][]string
	for i := len(r.Rows) - 1; i >= 0; i-- { // ascending core count
		row := r.Rows[i]
		rows = append(rows, []string{
			fmt.Sprint(row.Cores), fmt.Sprint(row.MACs),
			fmt.Sprintf("%.2f", row.MC),
			fmtE(row.Energy), fmtE(row.Delay),
			fmt.Sprintf("%.2f", row.EDP),
			fmt.Sprintf("%.1f", row.AvgLayersPerGroup),
			fmtE(row.DRAMBytes),
		})
	}
	table(w, []string{"cores", "MAC/core", "MC($)", "energy(J)", "delay(s)", "EDP(norm)", "layers/stage", "dram bytes"}, rows)
}
