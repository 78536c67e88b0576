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

type fig5Setting struct {
	name   string
	cfg    arch.Config
	anneal bool
}

// Fig5 reproduces the overall comparison: five DNNs x two batch sizes x
// three (architecture, mapping) settings.
func Fig5(opt Options) (*Fig5Result, error) {
	sArch := arch.Simba()
	gArch := arch.GArch72()
	settings := []fig5Setting{
		{"S-Arch+T-Map", sArch, false},
		{"S-Arch+G-Map", sArch, true},
		{"G-Arch+G-Map", gArch, true},
	}
	res := &Fig5Result{}
	var perf, energy, mapPerf, mapEnergy []float64
	for _, model := range opt.models() {
		for _, batch := range opt.Batches {
			base := -1.0
			var baseE float64
			for _, st := range settings {
				d := opt.dseOptions(batch)
				if !st.anneal {
					d.SAIterations = 0
				}
				mr, err := opt.session().MapModel(&st.cfg, model, d)
				if err != nil {
					return nil, fmt.Errorf("fig5: %s on %s: %w", model.Name, st.name, err)
				}
				row := Fig5Row{
					Model: model.Name, Batch: batch, Setting: st.name,
					Delay: mr.Delay, Energy: mr.Eval.Energy,
				}
				if base < 0 {
					base, baseE = mr.Delay, mr.Energy
				}
				row.NormDelay = mr.Delay / base
				row.NormEnergy = mr.Energy / baseE
				res.Rows = append(res.Rows, row)
				switch st.name {
				case "G-Arch+G-Map":
					perf = append(perf, base/mr.Delay)
					energy = append(energy, baseE/mr.Energy)
				case "S-Arch+G-Map":
					mapPerf = append(mapPerf, base/mr.Delay)
					mapEnergy = append(mapEnergy, baseE/mr.Energy)
				}
			}
		}
	}
	res.PerfGain = geomean(perf)
	res.EnergyGain = geomean(energy)
	res.MapOnlyPerfGain = geomean(mapPerf)
	res.MapOnlyEnergyGain = geomean(mapEnergy)
	res.MCIncrease = archMC(&gArch).Total()/archMC(&sArch).Total() - 1
	return res, nil
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
	var perf, energy []float64
	for _, model := range opt.models() {
		for _, batch := range opt.Batches {
			dT := opt.dseOptions(batch)
			dT.SAIterations = 0
			base, err := opt.session().MapModel(&tArch, model, dT)
			if err != nil {
				return nil, fmt.Errorf("tarch: %s: %w", model.Name, err)
			}
			dG := opt.dseOptions(batch)
			ours, err := opt.session().MapModel(&gArch, model, dG)
			if err != nil {
				return nil, fmt.Errorf("tarch: %s on g-arch: %w", model.Name, err)
			}
			perf = append(perf, base.Delay/ours.Delay)
			energy = append(energy, base.Energy/ours.Energy)
		}
	}
	return &TArchResult{
		PerfGain:    geomean(perf),
		EnergyGain:  geomean(energy),
		MCReduction: 1 - archMC(&gArch).Total()/archMC(&tArch).Total(),
	}, nil
}

// Print writes the Sec. VI-B2 summary.
func (r *TArchResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Sec. VI-B2 (folded torus): G-Arch+G-Map vs T-Arch+T-Map: perf %.2fx, energy-eff %.2fx, MC %+.1f%% (paper: 1.74x, 1.13x, -40.1%%)\n",
		r.PerfGain, r.EnergyGain, -100*r.MCReduction)
}
