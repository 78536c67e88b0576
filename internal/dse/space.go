// Package dse implements the Gemini design-space exploration driver
// (Sec. V-A, VI-A1): exhaustive enumeration of the Table I architecture
// candidates, parallel mapping of each candidate via the graph-partition +
// simulated-annealing pipeline, MC^alpha * E^beta * D^gamma ranking with
// geometric-mean aggregation over DNNs, and the joint multi-TOPs chiplet-
// reuse exploration of Sec. VII-B.
package dse

import (
	"fmt"
	"math"
	"sort"

	"gemini/internal/arch"
)

// Space describes an architecture candidate grid in the style of Table I.
// Total compute is held constant at TOPS; core count follows MAC/Core.
type Space struct {
	Name string
	TOPS float64

	Cuts        []int     // candidate XCut/YCut values
	DRAMPerTOPS []float64 // GB/s per TOPs
	NoCBWs      []float64 // GB/s
	D2DRatios   []float64 // D2D = NoC x ratio
	GLBs        []int     // bytes per core
	MACs        []int     // MACs per core

	FreqGHz  float64
	Topology arch.Topology
}

// Table I parameter lists (paper Sec. VI-A1).
func tableIBase(tops float64, cuts []int) Space {
	return Space{
		Name:        fmt.Sprintf("%.0fTOPs", tops),
		TOPS:        tops,
		Cuts:        cuts,
		DRAMPerTOPS: []float64{0.5, 1, 2},
		NoCBWs:      []float64{8, 16, 32, 64, 128},
		D2DRatios:   []float64{0.25, 0.5, 1},
		GLBs: []int{256 * arch.KB, 512 * arch.KB, 1024 * arch.KB,
			2048 * arch.KB, 4096 * arch.KB, 8192 * arch.KB},
		MACs:    []int{512, 1024, 2048, 4096, 8192},
		FreqGHz: 1,
	}
}

// Space72 returns the 72 TOPs Table I space (cuts 1,2,3,6). The paper's
// "72 TOPs" is Simba's 36 cores x 1024 MACs x 1 GHz = 73.7 TOPs; using the
// exact figure reproduces the paper's 36/18/9-core arrangements.
func Space72() Space {
	sp := tableIBase(73.728, []int{1, 2, 3, 6})
	sp.Name = "72TOPs"
	return sp
}

// Space128 returns the 128 TOPs Table I space (cuts 1,2,4,8).
func Space128() Space { return tableIBase(128, []int{1, 2, 4, 8}) }

// Space512 returns the 512 TOPs Table I space (cuts 1,2,4,8).
func Space512() Space { return tableIBase(512, []int{1, 2, 4, 8}) }

// Reduced trims the space to a coarse but representative sub-grid so the
// exhaustive sweep finishes quickly (used by benches and examples; the cmd
// tools run the full grids).
func (sp Space) Reduced() Space {
	r := sp
	r.Name = sp.Name + "-reduced"
	r.DRAMPerTOPS = []float64{2}
	r.NoCBWs = []float64{32, 64}
	r.D2DRatios = []float64{0.5}
	r.GLBs = []int{1024 * arch.KB, 2048 * arch.KB}
	r.MACs = []int{1024, 2048, 4096}
	return r
}

// GridFor returns the most square core-array factorization for a core
// count, as the paper arranges cores (e.g. 36 -> 6x6, 18 -> 6x3).
func GridFor(cores int) (w, h int) {
	best := 1
	for d := 1; d*d <= cores; d++ {
		if cores%d == 0 {
			best = d
		}
	}
	return cores / best, best
}

// CoresFor returns the core count for the space's TOPS at a MAC/Core value:
// the count nearest the exact ratio whose most-square grid keeps a sane
// aspect ratio, matching the paper's "length and width as close as
// possible" arrangement rule. Grids with both edges even are preferred so
// the XCut/YCut candidates of Table I can actually divide them (the paper's
// arrangements — 36=6x6, 18=6x3, 64=8x8 — all admit cuts).
func (sp Space) CoresFor(macs int) int {
	ideal := sp.TOPS * 1000 / (2 * float64(macs) * sp.FreqGHz)
	best, bestScore := 0, math.Inf(1)
	for v := int(ideal) - 3; v <= int(ideal)+4; v++ {
		if v < 1 {
			continue
		}
		w, h := GridFor(v)
		aspect := float64(w) / float64(h)
		if aspect > 2.5 {
			continue
		}
		score := math.Abs(float64(v)-ideal) + 0.3*(aspect-1)
		if w%2 == 0 && h%2 == 0 {
			score -= 1.2
		}
		if score < bestScore {
			best, bestScore = v, score
		}
	}
	if best == 0 {
		best = 1
	}
	return best
}

// Enumerate expands the grid into validated architecture configurations.
// Cut candidates that do not divide the respective core-array edge are
// invalid and skipped (paper Sec. VI-A1).
func (sp Space) Enumerate() []arch.Config {
	var out []arch.Config
	freq := sp.FreqGHz
	if freq <= 0 {
		freq = 1
	}
	for _, macs := range sp.MACs {
		cores := sp.CoresFor(macs)
		w, h := GridFor(cores)
		if w > 4*h {
			// Degenerate aspect ratios (e.g. prime core counts) are not
			// buildable as sensible meshes; skip, as the paper's
			// squareness rule implies.
			continue
		}
		for _, xc := range sp.Cuts {
			if w%xc != 0 {
				continue
			}
			for _, yc := range sp.Cuts {
				if h%yc != 0 {
					continue
				}
				for _, dpt := range sp.DRAMPerTOPS {
					for _, nocBW := range sp.NoCBWs {
						for _, ratio := range sp.D2DRatios {
							// Distinct D2D ratios only matter for
							// multi-chiplet configurations; skip duplicate
							// monolithic candidates.
							if xc == 1 && yc == 1 && ratio != sp.D2DRatios[0] {
								continue
							}
							for _, glb := range sp.GLBs {
								cfg := arch.Config{
									CoresX: w, CoresY: h,
									XCut: xc, YCut: yc,
									NoCBW:       nocBW,
									D2DBW:       nocBW * ratio,
									DRAMBW:      dpt * sp.TOPS,
									MACsPerCore: macs,
									GLBPerCore:  glb,
									FreqGHz:     freq,
									Topology:    sp.Topology,
								}
								cfg.Name = cfg.String()
								if cfg.Validate() == nil {
									out = append(out, cfg)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ScaleUp replicates a base configuration's chiplet to reach factor x the
// compute (Sec. VII-B chiplet reuse): the chiplet grid grows by the most
// square split of factor; DRAM bandwidth scales with compute.
func ScaleUp(base arch.Config, factor int) (arch.Config, error) {
	if factor < 1 {
		return arch.Config{}, fmt.Errorf("dse: factor %d < 1", factor)
	}
	fx, fy := GridFor(factor)
	cfg := base
	cfg.CoresX *= fx
	cfg.XCut *= fx
	cfg.CoresY *= fy
	cfg.YCut *= fy
	cfg.DRAMBW *= float64(factor)
	if cfg.Chiplets() > 1 && cfg.D2DBW <= 0 {
		cfg.D2DBW = cfg.NoCBW / 2
	}
	cfg.Name = cfg.String()
	if err := cfg.Validate(); err != nil {
		return arch.Config{}, err
	}
	return cfg, nil
}
