// Package cost implements the Monetary Cost Evaluator of the Gemini
// framework (Sec. V-C): silicon die costs with an area-dependent yield
// model, DRAM die costs, and substrate/packaging costs that depend on
// whether chiplet integration is used. MC depends only on the architecture,
// never on the workload or mapping.
package cost

import (
	"math"

	"gemini/internal/arch"
)

// Tech holds the cost-model constants. Areas in mm^2, money in USD.
// Values are calibrated so that the S-Arch chiplet spends ~40% of its area
// on D2D interfaces (paper Sec. VI-B1) and yield/packaging trends match
// Sec. V-C.
type Tech struct {
	MACArea       float64 // mm^2 per int8 MAC
	GLBAreaPerMB  float64
	CoreMiscArea  float64 // control, DMA, router baseline
	NoCAreaPerGBs float64 // per-core NoC area per GB/s of link bandwidth

	D2DFixedArea  float64 // PHY + controller baseline per interface
	D2DAreaPerGBs float64

	DRAMPHYArea float64 // per DRAM controller on the IO chiplet
	IOMiscArea  float64 // PCIe/host PHYs per IO chiplet

	SiliconPerMM2 float64 // $ per mm^2 of good die area basis
	// YieldUnit is the yield of one AreaUnit of silicon. The code uses 0.82
	// where the paper quotes 0.9 for 40 mm^2 at 12nm, an open question of
	// the reproduction ledger in ROADMAP.md.
	YieldUnit float64
	AreaUnit  float64 // mm^2 (paper: 40 mm^2)

	DRAMDiePrice float64 // $ per GDDR6 die (32 GB/s)

	// Substrate parameters (paper Sec. V-C): fan-out for monolithic chips,
	// high-density organic for chiplet integration, with area-tiered cost.
	FanoutScale        float64
	FanoutPerMM2       float64
	ChipletScale       float64
	ChipletTiers       []Tier
	PackageYieldPerDie float64
}

// Tier maps a substrate area bound to a cost per mm^2.
type Tier struct {
	MaxArea float64 // mm^2; the last tier should be +Inf-ish
	PerMM2  float64
}

// DefaultTech returns the calibrated 12 nm / organic-substrate constants.
func DefaultTech() Tech {
	return Tech{
		MACArea:       0.0005,
		GLBAreaPerMB:  1.0,
		CoreMiscArea:  0.3,
		NoCAreaPerGBs: 0.002,

		D2DFixedArea:  0.1,
		D2DAreaPerGBs: 0.012,

		DRAMPHYArea: 2.0,
		IOMiscArea:  4.0,

		SiliconPerMM2: 0.15,
		YieldUnit:     0.82,
		AreaUnit:      40,

		DRAMDiePrice: 3.5,

		FanoutScale:  1.2,
		FanoutPerMM2: 0.005,
		ChipletScale: 2.0,
		ChipletTiers: []Tier{
			{MaxArea: 500, PerMM2: 0.02},
			{MaxArea: 1500, PerMM2: 0.03},
			{MaxArea: 1e18, PerMM2: 0.045},
		},
		PackageYieldPerDie: 0.99,
	}
}

// Breakdown is the MC of one accelerator, split as in the paper's Fig. 5/7
// MC stacks (DRAM, chiplet manufacturing = silicon, substrate = packaging).
type Breakdown struct {
	ComputeSilicon float64
	IOSilicon      float64
	DRAM           float64
	Substrate      float64

	// Diagnostics for the Fig. 8(a) yield/area curves.
	ComputeChipletArea float64 // mm^2 of one computing chiplet
	TotalSiliconArea   float64 // all dies
	ComputeYield       float64 // yield of one computing chiplet
	D2DAreaFraction    float64 // share of a computing chiplet spent on D2D
}

// Total sums all MC components.
func (b Breakdown) Total() float64 {
	return b.ComputeSilicon + b.IOSilicon + b.DRAM + b.Substrate
}

// Silicon sums die manufacturing costs.
func (b Breakdown) Silicon() float64 { return b.ComputeSilicon + b.IOSilicon }

// Evaluator computes MC under a technology model.
type Evaluator struct {
	Tech Tech
}

// New returns an evaluator with the default technology constants.
func New() *Evaluator { return &Evaluator{Tech: DefaultTech()} }

// yield returns the paper's yield model: YieldUnit^(area/AreaUnit).
func (e *Evaluator) yield(area float64) float64 {
	return pow(e.Tech.YieldUnit, area/e.Tech.AreaUnit)
}

// dieCost returns area/yield * silicon price (paper Sec. V-C).
func (e *Evaluator) dieCost(area float64) float64 {
	if area <= 0 {
		return 0
	}
	return area / e.yield(area) * e.Tech.SiliconPerMM2
}

// CoreArea returns the silicon area of one computing core.
func (e *Evaluator) CoreArea(cfg *arch.Config) float64 {
	t := e.Tech
	return t.MACArea*float64(cfg.MACsPerCore) +
		t.GLBAreaPerMB*float64(cfg.GLBPerCore)/float64(arch.MB) +
		t.CoreMiscArea +
		t.NoCAreaPerGBs*cfg.NoCBW
}

// D2DCount returns the D2D interfaces on one computing chiplet: one per
// edge core on each of the four sides (paper Sec. III), zero for a
// monolithic chip.
func (e *Evaluator) D2DCount(cfg *arch.Config) int {
	if cfg.Chiplets() <= 1 {
		return 0
	}
	return 2 * (cfg.ChipletW() + cfg.ChipletH())
}

// ComputeChipletArea returns one computing chiplet's area.
func (e *Evaluator) ComputeChipletArea(cfg *arch.Config) float64 {
	t := e.Tech
	cores := float64(cfg.ChipletW() * cfg.ChipletH())
	d2d := float64(e.D2DCount(cfg)) * (t.D2DFixedArea + t.D2DAreaPerGBs*cfg.D2DBW)
	return cores*e.CoreArea(cfg) + d2d
}

// ioChiplets returns per-IO-chiplet areas (two IO chiplets flank the core
// array, splitting the DRAM controllers).
func (e *Evaluator) ioChiplets(cfg *arch.Config) []float64 {
	d := cfg.DRAMControllers()
	left := (d + 1) / 2
	right := d - left
	t := e.Tech
	out := []float64{t.IOMiscArea + t.DRAMPHYArea*float64(left)}
	if right > 0 {
		out = append(out, t.IOMiscArea+t.DRAMPHYArea*float64(right))
	}
	return out
}

// Evaluate computes the full MC breakdown of an architecture.
func (e *Evaluator) Evaluate(cfg *arch.Config) Breakdown {
	t := e.Tech
	var b Breakdown

	chipArea := e.ComputeChipletArea(cfg)
	n := cfg.Chiplets()
	b.ComputeChipletArea = chipArea
	b.ComputeYield = e.yield(chipArea)
	if d2d := float64(e.D2DCount(cfg)) * (t.D2DFixedArea + t.D2DAreaPerGBs*cfg.D2DBW); chipArea > 0 {
		b.D2DAreaFraction = d2d / chipArea
	}
	b.ComputeSilicon = float64(n) * e.dieCost(chipArea)
	b.TotalSiliconArea = float64(n) * chipArea

	ios := e.ioChiplets(cfg)
	for _, a := range ios {
		b.IOSilicon += e.dieCost(a)
		b.TotalSiliconArea += a
	}

	b.DRAM = float64(cfg.DRAMControllers()) * t.DRAMDiePrice

	dies := n + len(ios)
	pkgYield := pow(t.PackageYieldPerDie, float64(dies))
	if n > 1 {
		sub := b.TotalSiliconArea * t.ChipletScale
		b.Substrate = sub * tierPrice(t.ChipletTiers, sub) / pkgYield
	} else {
		sub := b.TotalSiliconArea * t.FanoutScale
		b.Substrate = sub * t.FanoutPerMM2 / pkgYield
	}
	return b
}

func tierPrice(tiers []Tier, area float64) float64 {
	for _, t := range tiers {
		if area <= t.MaxArea {
			return t.PerMM2
		}
	}
	if len(tiers) == 0 {
		return 0
	}
	return tiers[len(tiers)-1].PerMM2
}

func pow(base, exp float64) float64 {
	if base <= 0 {
		return 0
	}
	return math.Pow(base, exp)
}
