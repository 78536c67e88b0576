package eval

import (
	"fmt"
	"io"
	"sort"

	"gemini/internal/core"
	"gemini/internal/dnn"
)

// Bottleneck classifies what limits a group's stage time.
type Bottleneck string

// Bottleneck kinds.
const (
	ComputeBound Bottleneck = "compute"
	NetworkBound Bottleneck = "network"
	DRAMBound    Bottleneck = "dram"
)

// LayerReport details one layer's share of a group (the "Energy & Delay
// Report" output of the framework, paper Fig. 4).
type LayerReport struct {
	Layer int
	Name  string
	Kind  dnn.Kind

	Cores          int
	Part           core.Part
	MACs           int64
	MaxCoreCycles  int64
	InBytesPerPass int64
	WeightBytes    int64
}

// GroupReport details one layer group.
type GroupReport struct {
	Index     int
	BatchUnit int
	Passes    int
	Depth     int

	StageTime  float64
	Delay      float64
	Bottleneck Bottleneck

	ComputeTime float64
	NetTime     float64
	DRAMTime    float64

	Layers []LayerReport
}

// SchemeReport is the full per-mapping report.
type SchemeReport struct {
	Model  string
	Arch   string
	Batch  int
	Delay  float64
	Energy EnergyBreakdown
	Groups []GroupReport
}

// Report produces the detailed evaluation report of a validated scheme.
func (e *Evaluator) Report(s *core.Scheme) (*SchemeReport, error) {
	rep := &SchemeReport{
		Model: s.Graph.Name,
		Arch:  e.Cfg.Name,
		Batch: s.Batch,
	}
	total := e.Evaluate(s)
	if !total.Feasible {
		return nil, fmt.Errorf("eval: scheme infeasible on %s", e.Cfg.Name)
	}
	rep.Delay = total.Delay
	rep.Energy = total.Energy
	cp := e.coreParams()
	freqHz := e.Cfg.FreqGHz * 1e9

	for gi, lms := range s.Groups {
		an, err := core.Analyze(s, gi, e.Cfg)
		if err != nil {
			return nil, err
		}
		gr := total.Groups[gi]
		grep := GroupReport{
			Index:     gi,
			BatchUnit: lms.BatchUnit,
			Passes:    gr.Passes,
			Depth:     gr.Depth,
			StageTime: gr.StageTime,
			Delay:     gr.Delay,
		}

		// Per-layer rollup.
		perLayer := map[int]*LayerReport{}
		var order []int
		var maxComp float64
		for _, pi := range an.ByLayer {
			for _, idx := range pi {
				pw := an.PWs[idx]
				lr, ok := perLayer[pw.Layer]
				if !ok {
					l := s.Graph.Layer(pw.Layer)
					ms := lms.MSFor(pw.Layer)
					lr = &LayerReport{Layer: pw.Layer, Name: l.Name, Kind: l.Kind, Part: ms.Part}
					perLayer[pw.Layer] = lr
					order = append(order, pw.Layer)
				}
				lr.Cores++
				w := an.Works[pw.Core]
				lr.MACs += w.MACs
				lr.InBytesPerPass += w.InBytes
				lr.WeightBytes += w.WBytes
				r := e.cache.memo.Explore(w, cp)
				cycles := r.Cycles
				if r.VecCycles > cycles {
					cycles = r.VecCycles
				}
				if cycles > lr.MaxCoreCycles {
					lr.MaxCoreCycles = cycles
				}
				if t := float64(cycles) / freqHz; t > maxComp {
					maxComp = t
				}
			}
		}
		sort.Ints(order)
		for _, id := range order {
			grep.Layers = append(grep.Layers, *perLayer[id])
		}

		// Bottleneck attribution: recompute the three stage-time terms.
		grep.ComputeTime = maxComp
		tr := e.Net.NewTraffic()
		for _, f := range an.ActFlows {
			tr.Multicast(f.Src, f.Dsts, f.Bytes)
		}
		netOnly := tr.BottleneckTime()
		trD := e.Net.NewTraffic()
		addDRAM(trD, an.ActDRAM)
		dramOnly := trD.BottleneckTime()
		grep.NetTime = netOnly
		grep.DRAMTime = dramOnly
		switch {
		case maxComp >= netOnly && maxComp >= dramOnly:
			grep.Bottleneck = ComputeBound
		case netOnly >= dramOnly:
			grep.Bottleneck = NetworkBound
		default:
			grep.Bottleneck = DRAMBound
		}
		rep.Groups = append(rep.Groups, grep)
	}
	return rep, nil
}

// Print writes a human-readable report.
func (r *SchemeReport) Print(w io.Writer) {
	fmt.Fprintf(w, "mapping report: %s on %s, batch %d\n", r.Model, r.Arch, r.Batch)
	fmt.Fprintf(w, "total delay %.6g s, energy %.6g J (dram %.3g, noc %.3g, d2d %.3g, intra %.3g)\n",
		r.Delay, r.Energy.Total(), r.Energy.DRAM, r.Energy.NoC, r.Energy.D2D, r.Energy.IntraCore())
	for _, g := range r.Groups {
		fmt.Fprintf(w, "\ngroup %d: bu=%d passes=%d depth=%d stage=%.4gs (%s-bound: comp %.3g, net %.3g, dram %.3g)\n",
			g.Index, g.BatchUnit, g.Passes, g.Depth, g.StageTime, g.Bottleneck,
			g.ComputeTime, g.NetTime, g.DRAMTime)
		for _, l := range g.Layers {
			fmt.Fprintf(w, "  %-14s %-8s part(%d,%d,%d,%d) cores=%-3d macs=%-12d cycles=%-9d in=%dB w=%dB\n",
				l.Name, l.Kind, l.Part.H, l.Part.W, l.Part.B, l.Part.K,
				l.Cores, l.MACs, l.MaxCoreCycles, l.InBytesPerPass, l.WeightBytes)
		}
	}
}
