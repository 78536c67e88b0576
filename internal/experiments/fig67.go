package experiments

import (
	"fmt"
	"io"
	"math"

	"gemini/internal/dnn"
	"gemini/internal/dse"
)

// Objectives explored in Fig. 6/7: the four MC/E/D combinations the paper
// marks with triangles.
var FourObjectives = []struct {
	Name string
	Obj  dse.Objective
}{
	{"E*D", dse.Objective{Alpha: 0, Beta: 1, Gamma: 1}},
	{"MC*E", dse.Objective{Alpha: 1, Beta: 1, Gamma: 0}},
	{"MC*D", dse.Objective{Alpha: 1, Beta: 0, Gamma: 1}},
	{"MC*E*D", dse.Objective{Alpha: 1, Beta: 1, Gamma: 1}},
}

// Fig6Point is one architecture candidate in the design-space scatter.
type Fig6Point struct {
	TOPS     float64
	Arch     string
	Chiplets int
	Cores    int
	EDP      float64 // normalized to the MC*E*D optimum
	MC       float64 // normalized likewise
}

// Fig6Result holds the scatter plus the per-objective optima.
type Fig6Result struct {
	Points []Fig6Point
	// Optima[objName] is the winning architecture tuple per objective.
	Optima map[string]string
	// OptimaChiplets records the chiplet counts of the optima, the
	// quantity behind the paper's granularity insight (1-4 moderate).
	OptimaChiplets map[string]int
	OptimaCores    map[string]int
}

// optima returns the winner of each FourObjectives entry, in that order:
// the first feasible result with the strictly smallest dse.Score, nil
// where no result is feasible.
func optima(results []dse.CandidateResult) []*dse.CandidateResult {
	wins := make([]*dse.CandidateResult, len(FourObjectives))
	for k, o := range FourObjectives {
		bestScore := math.Inf(1)
		for i := range results {
			r := &results[i]
			if !r.Feasible {
				continue
			}
			if s := dse.Score(r.MC.Total(), r.Energy, r.Delay, o.Obj); s < bestScore {
				bestScore, wins[k] = s, r
			}
		}
	}
	return wins
}

// Fig6 sweeps the candidate spaces of the given TOPS targets and reports
// EDP and MC of every candidate grouped by chiplet and core counts.
// Quick mode reduces the grid; full mode uses the Table I grids.
func Fig6(opt Options, spaces ...dse.Space) (*Fig6Result, error) {
	if len(spaces) == 0 {
		if opt.Quick {
			spaces = []dse.Space{tinySpace(dse.Space128()), tinySpace(dse.Space512())}
		} else {
			spaces = []dse.Space{dse.Space128(), dse.Space512()}
		}
	}
	models := []*dnn.Graph{opt.transformer()}
	d := opt.dseOptions(opt.batch())
	ses := opt.session()
	res := &Fig6Result{
		Optima:         map[string]string{},
		OptimaChiplets: map[string]int{},
		OptimaCores:    map[string]int{},
	}
	for _, sp := range spaces {
		results := ses.Run(sp.Enumerate(), models, d)
		// Normalize to the MC*E*D optimum.
		best := dse.Best(results)
		if best == nil {
			return nil, fmt.Errorf("fig6: no feasible candidate in %s", sp.Name)
		}
		for i := range results {
			r := &results[i]
			if !r.Feasible {
				continue
			}
			res.Points = append(res.Points, Fig6Point{
				TOPS:     sp.TOPS,
				Arch:     r.Cfg.Name,
				Chiplets: r.Cfg.Chiplets(),
				Cores:    r.Cfg.Cores(),
				EDP:      r.EDP() / best.EDP(),
				MC:       r.MC.Total() / best.MC.Total(),
			})
		}
		for k, win := range optima(results) {
			if win != nil {
				key := fmt.Sprintf("%s/%s", sp.Name, FourObjectives[k].Name)
				res.Optima[key] = win.Cfg.Name
				res.OptimaChiplets[key] = win.Cfg.Chiplets()
				res.OptimaCores[key] = win.Cfg.Cores()
			}
		}
	}
	return res, nil
}

// Print writes the Fig. 6 series: per (TOPS, chiplets) and (TOPS, cores)
// the best normalized EDP and MC, plus the four objective optima.
func (r *Fig6Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 6: design-space EDP and MC (normalized to the MC*E*D optimum)")
	type key struct {
		tops float64
		v    int
	}
	agg := func(group func(Fig6Point) int, label string) {
		bestEDP := map[key]float64{}
		bestMC := map[key]float64{}
		var keys []key
		for _, p := range r.Points {
			k := key{p.TOPS, group(p)}
			if _, ok := bestEDP[k]; !ok {
				bestEDP[k] = math.Inf(1)
				bestMC[k] = math.Inf(1)
				keys = append(keys, k)
			}
			if p.EDP < bestEDP[k] {
				bestEDP[k] = p.EDP
			}
			if p.MC < bestMC[k] {
				bestMC[k] = p.MC
			}
		}
		var rows [][]string
		for _, k := range keys {
			rows = append(rows, []string{
				fmt.Sprintf("%.0f", k.tops), fmt.Sprint(k.v),
				fmt.Sprintf("%.3f", bestEDP[k]), fmt.Sprintf("%.3f", bestMC[k]),
			})
		}
		table(w, []string{"TOPs", label, "best EDP", "best MC"}, rows)
		fmt.Fprintln(w)
	}
	agg(func(p Fig6Point) int { return p.Chiplets }, "chiplets")
	agg(func(p Fig6Point) int { return p.Cores }, "cores")
	fmt.Fprintln(w, "objective optima:")
	for _, o := range FourObjectives {
		for _, sp := range []string{"128TOPs", "512TOPs", "128TOPs-reduced", "512TOPs-reduced", "128TOPs-tiny", "512TOPs-tiny"} {
			k := sp + "/" + o.Name
			if v, ok := r.Optima[k]; ok {
				fmt.Fprintf(w, "  %-22s -> %s (chiplets=%d cores=%d)\n", k, v, r.OptimaChiplets[k], r.OptimaCores[k])
			}
		}
	}
}

// Fig7Row describes one objective-optimal architecture of the 128 TOPs
// space with its full breakdowns.
type Fig7Row struct {
	Objective string
	Arch      string
	Chiplets  int
	Cores     int

	Delay                                         float64
	EnergyDRAM, EnergyNoC, EnergyD2D, EnergyIntra float64
	MCDRAM, MCSilicon, MCSubstrate                float64

	DRAMBytes         float64
	AvgLayersPerGroup float64
}

// Fig7Result is the Fig. 7 dataset, normalized to the MC*E*D optimum.
type Fig7Result struct {
	Rows []Fig7Row
}

// Fig7 re-evaluates the four objective optima of the 128 TOPs space and
// reports the energy/MC/delay breakdowns plus the DRAM-access and pipeline-
// length statistics of Sec. VII-A2.
func Fig7(opt Options, spaceOverride ...dse.Space) (*Fig7Result, error) {
	sp := dse.Space128()
	if opt.Quick {
		sp = tinySpace(sp)
	}
	if len(spaceOverride) > 0 {
		sp = spaceOverride[0]
	}
	results := opt.session().Run(sp.Enumerate(), []*dnn.Graph{opt.transformer()}, opt.dseOptions(opt.batch()))
	res := &Fig7Result{}
	for k, win := range optima(results) {
		o := FourObjectives[k]
		if win == nil {
			return nil, fmt.Errorf("fig7: no feasible candidate for %s", o.Name)
		}
		mr := win.PerModel[0]
		row := Fig7Row{
			Objective:         o.Name,
			Arch:              win.Cfg.Name,
			Chiplets:          win.Cfg.Chiplets(),
			Cores:             win.Cfg.Cores(),
			Delay:             win.Delay,
			EnergyDRAM:        mr.Eval.Energy.DRAM,
			EnergyNoC:         mr.Eval.Energy.NoC,
			EnergyD2D:         mr.Eval.Energy.D2D,
			EnergyIntra:       mr.Eval.Energy.IntraCore(),
			MCDRAM:            win.MC.DRAM,
			MCSilicon:         win.MC.Silicon(),
			MCSubstrate:       win.MC.Substrate,
			DRAMBytes:         mr.Eval.DRAMBytes,
			AvgLayersPerGroup: mr.AvgLayersPerGroup,
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print writes the Fig. 7 table normalized to the MC*E*D optimum.
func (r *Fig7Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 7: objective-optimal 128 TOPs architectures (normalized to MC*E*D optimum)")
	var baseE, baseMC, baseD float64
	for _, row := range r.Rows {
		if row.Objective == "MC*E*D" {
			baseE = row.EnergyDRAM + row.EnergyNoC + row.EnergyD2D + row.EnergyIntra
			baseMC = row.MCDRAM + row.MCSilicon + row.MCSubstrate
			baseD = row.Delay
		}
	}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Objective, row.Arch,
			fmt.Sprintf("%.3f", (row.EnergyDRAM+row.EnergyNoC+row.EnergyD2D+row.EnergyIntra)/baseE),
			fmt.Sprintf("%.3f", row.EnergyDRAM/baseE),
			fmt.Sprintf("%.3f", (row.EnergyNoC+row.EnergyD2D)/baseE),
			fmt.Sprintf("%.3f", row.EnergyIntra/baseE),
			fmt.Sprintf("%.3f", (row.MCDRAM+row.MCSilicon+row.MCSubstrate)/baseMC),
			fmt.Sprintf("%.3f", row.Delay/baseD),
			fmtE(row.DRAMBytes),
			fmt.Sprintf("%.1f", row.AvgLayersPerGroup),
		})
	}
	table(w, []string{"objective", "arch", "energy", "e.dram", "e.net", "e.intra", "MC", "delay", "dram.bytes", "layers/grp"}, rows)
}
