package experiments

import (
	"fmt"
	"io"

	"gemini/internal/arch"
	"gemini/internal/eval"
)

// Fig5Row is one (model, batch, setting) measurement of the overall
// comparison.
type Fig5Row struct {
	Model   string
	Batch   int
	Setting string // "S-Arch+T-Map", "S-Arch+G-Map", "G-Arch+G-Map"

	Delay  float64
	Energy eval.EnergyBreakdown

	// NormDelay/NormEnergy are normalized to the S-Arch+T-Map baseline of
	// the same (model, batch), as in the paper's figure.
	NormDelay, NormEnergy float64
}

// Fig5Result is the full Fig. 5 dataset plus the paper's headline numbers.
type Fig5Result struct {
	Rows []Fig5Row

	// PerfGain and EnergyGain are the geometric-mean improvements of
	// G-Arch+G-Map over S-Arch+T-Map (paper: 1.98x and 1.41x).
	PerfGain, EnergyGain float64
	// MapOnlyPerfGain isolates the mapping contribution (S-Arch+G-Map).
	MapOnlyPerfGain, MapOnlyEnergyGain float64
	// MCIncrease is MC(G-Arch)/MC(S-Arch) - 1 (paper: +14.3%).
	MCIncrease float64
}

// setting is one (architecture, mapping) bar of a comparison figure:
// T-Map is the stripe mapping (no annealing), G-Map the SA search.
type setting struct {
	name   string
	cfg    arch.Config
	anneal bool
}

// compare maps every (model, batch) of opt under each setting, all on one
// session. Each row is normalized to the first setting of its (model,
// batch); perf[k] and energy[k] collect setting k's delay and energy gains
// over that first setting, one per (model, batch), and stay empty for k = 0.
func compare(opt Options, fig string, settings ...setting) (rows []Fig5Row, perf, energy [][]float64, err error) {
	ses := opt.session()
	perf = make([][]float64, len(settings))
	energy = make([][]float64, len(settings))
	for _, model := range opt.models() {
		for _, batch := range opt.Batches {
			var base, baseE float64
			for k, st := range settings {
				d := opt.dseOptions(batch)
				if !st.anneal {
					d.SAIterations = 0
				}
				mr, err := ses.MapModel(&st.cfg, model, d)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("%s: %s on %s: %w", fig, model.Name, st.name, err)
				}
				if k == 0 {
					base, baseE = mr.Delay, mr.Energy
				} else {
					perf[k] = append(perf[k], base/mr.Delay)
					energy[k] = append(energy[k], baseE/mr.Energy)
				}
				rows = append(rows, Fig5Row{
					Model: model.Name, Batch: batch, Setting: st.name,
					Delay: mr.Delay, Energy: mr.Eval.Energy,
					NormDelay: mr.Delay / base, NormEnergy: mr.Energy / baseE,
				})
			}
		}
	}
	return rows, perf, energy, nil
}

// Fig5 reproduces the overall comparison: five DNNs x two batch sizes x
// three (architecture, mapping) settings.
func Fig5(opt Options) (*Fig5Result, error) {
	sArch := arch.Simba()
	gArch := arch.GArch72()
	rows, perf, energy, err := compare(opt, "fig5",
		setting{"S-Arch+T-Map", sArch, false},
		setting{"S-Arch+G-Map", sArch, true},
		setting{"G-Arch+G-Map", gArch, true})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{
		Rows:              rows,
		PerfGain:          geomean(perf[2]),
		EnergyGain:        geomean(energy[2]),
		MapOnlyPerfGain:   geomean(perf[1]),
		MapOnlyEnergyGain: geomean(energy[1]),
		MCIncrease:        archMC(&gArch).Total()/archMC(&sArch).Total() - 1,
	}, nil
}

// Print writes the Fig. 5 dataset as the paper reports it: normalized delay
// and a DRAM/NoC/D2D/intra-core energy breakdown per bar.
func (r *Fig5Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 5: overall comparison (normalized to S-Arch+T-Map per model/batch)")
	var rows [][]string
	base := map[string]float64{}
	for _, row := range r.Rows {
		key := fmt.Sprintf("%s/%d", row.Model, row.Batch)
		if row.Setting == "S-Arch+T-Map" {
			base[key] = row.Energy.Total()
		}
		cells := []string{row.Model, fmt.Sprint(row.Batch), row.Setting,
			fmt.Sprintf("%.3f", row.NormDelay), fmt.Sprintf("%.3f", row.NormEnergy)}
		cells = append(cells, breakdownCells(row.Energy, base[key])...)
		rows = append(rows, cells)
	}
	table(w, []string{"model", "batch", "setting", "delay", "energy", "e.dram", "e.noc", "e.d2d", "e.intra"}, rows)
	fmt.Fprintf(w, "\nheadline: perf %.2fx, energy-eff %.2fx, MC %+.1f%% (paper: 1.98x, 1.41x, +14.3%%)\n",
		r.PerfGain, r.EnergyGain, 100*r.MCIncrease)
	fmt.Fprintf(w, "mapping only (S-Arch+G-Map): perf %.2fx, energy-eff %.2fx\n",
		r.MapOnlyPerfGain, r.MapOnlyEnergyGain)
}

// TArchResult is the Sec. VI-B2 folded-torus comparison.
type TArchResult struct {
	PerfGain    float64 // paper: 1.74x
	EnergyGain  float64 // paper: 1.13x
	MCReduction float64 // paper: 40.1%
}

// TArch compares G-Arch(torus)+G-Map against the Grayskull-like T-Arch
// with T-Map on a folded-torus NoC.
func TArch(opt Options) (*TArchResult, error) {
	tArch := arch.Grayskull()
	gArch := arch.GArchTorus()
	_, perf, energy, err := compare(opt, "tarch",
		setting{"T-Arch+T-Map", tArch, false},
		setting{"G-Arch+G-Map", gArch, true})
	if err != nil {
		return nil, err
	}
	return &TArchResult{
		PerfGain:    geomean(perf[1]),
		EnergyGain:  geomean(energy[1]),
		MCReduction: 1 - archMC(&gArch).Total()/archMC(&tArch).Total(),
	}, nil
}

// Print writes the Sec. VI-B2 summary.
func (r *TArchResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Sec. VI-B2 (folded torus): G-Arch+G-Map vs T-Arch+T-Map: perf %.2fx, energy-eff %.2fx, MC %+.1f%% (paper: 1.74x, 1.13x, -40.1%%)\n",
		r.PerfGain, r.EnergyGain, -100*r.MCReduction)
}
