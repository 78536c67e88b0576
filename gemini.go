// Package gemini is a Go reproduction of "Gemini: Mapping and Architecture
// Co-exploration for Large-scale DNN Chiplet Accelerators" (HPCA 2024).
//
// It exposes the framework's two engines — the Mapping Engine (DP graph
// partition + simulated-annealing LP spatial-mapping search over the
// paper's layer-centric encoding) and the Monetary Cost Evaluator — plus
// the exhaustive architecture DSE that ties them together under the
// MC^alpha * E^beta * D^gamma objective.
//
// Quick start:
//
//	cfg := gemini.GArch72()
//	model, _ := gemini.LoadModel("resnet50")
//	m, _ := gemini.Map(&cfg, model, gemini.DefaultMapOptions())
//	fmt.Println(m.Result.Delay, m.Result.Energy.Total())
//
// # Performance notes
//
// The Mapping Engine's hot loop — one SA iteration evaluating a mutated
// layer group — is incremental and allocation-free at steady state:
//
//   - The NoC route table is fully precomputed, once per core array and
//     topology for every evaluator on one cache, so routing is a lock-free
//     table lookup, and multicast-tree dedup uses
//     an epoch-stamped visited array instead of per-call map churn.
//   - The annealer evaluates through eval.GroupDelta alone: each group is
//     computed once when a search starts, and a move re-derives only the
//     pieces of its groups it changed. Mutating a group's Partition or Core
//     Groups re-derives that group's changed layers and edges, a Flow of
//     Data change their DRAM flows, and an ofmap-destination (OF) change
//     also the DRAM flows of the layers in other groups that fetch from it.
//     The result folds the best state's per-group evaluations. After
//     warm-up a move touches no heap, and a search asks no cache.
//   - Everything else — the graph partitioner's segments and one-shot
//     evaluations such as a report's — goes through the pipeline: group
//     parsing (core.AnalyzeInto) and traffic accumulation reuse pooled
//     per-evaluator scratch buffers. One-shot evaluations compute every
//     group. The partitioner's segments are memoized in an eval.Cache as
//     bandwidth-free summaries, finished at the asking evaluator's
//     bandwidths on a hit, under a name: the architecture's analysis
//     fingerprint (without the chiplet cut on a multi-chiplet array), the
//     graph's structural fingerprint (dnn.Graph.Fingerprint), and a hash of
//     the energy parameters, the batch, the batch unit and the segment's
//     layer range, which with the core array determine its stripe mapping.
//   - The intra-core exploration of a (workload, core) pair is memoized in
//     the same eval.Cache, so every candidate with the same cores, and every
//     SA move on one of them, explores a workload once.
//
// The contract this relies on: a *Model (dnn.Graph) must not be mutated
// after schemes referencing it have been evaluated. Memoized results are
// keyed by its Graph.Fingerprint(), which is computed on first use and then
// held by the graph, so a later mutation would go unseen; because the key
// is structural rather than the pointer, a rebuilt copy of the same model
// hits the same entries. Changing an Evaluator's Params between evaluations
// is safe — parameters are part of a segment's name — but not concurrently
// with an in-flight evaluation.
//
// All of this is deterministic: a fixed SA seed yields a bit-identical best
// cost and scheme whether results come from the memo or from scratch (see
// TestGoldenSAResNet50), and the DSE layer's (candidate, model) worker pool
// only reorders work, never results. Hot-loop throughput is measured by
// BenchmarkSAOptimize and BenchmarkGroupMiss (a group computed from scratch,
// as a segment miss and through the annealer's delta path), and layer by
// layer by `go run ./bench`.
package gemini

import (
	"fmt"
	"io"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/cost"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/experiments"
	"gemini/internal/noc"
)

// Arch is the configurable hardware template (paper Sec. III).
type Arch = arch.Config

// Model is a DNN DAG.
type Model = dnn.Graph

// Scheme is an encoded LP spatial mapping (paper Sec. IV).
type Scheme = core.Scheme

// EvalResult is a mapping's delay/energy evaluation.
type EvalResult = eval.Result

// MCBreakdown is a monetary-cost breakdown (paper Sec. V-C).
type MCBreakdown = cost.Breakdown

// Architecture presets from the paper's evaluation.
var (
	SimbaArch  = arch.Simba
	GArch72    = arch.GArch72
	Grayskull  = arch.Grayskull
	GArchTorus = arch.GArchTorus
)

// Models lists the built-in workload zoo (paper Sec. VI-A3).
func Models() []string { return dnn.ModelNames() }

// LoadModel builds a zoo model by name (resnet50, resnext50,
// inceptionresnet, pnasnet, googlenet, transformer, transformerlarge).
func LoadModel(name string) (*Model, error) { return dnn.Model(name) }

// MapOptions configures the Mapping Engine.
type MapOptions struct {
	// Batch is the inference batch size (64 = throughput scenario, 1 =
	// latency scenario; paper Sec. VI-A1).
	Batch int
	// SAIterations controls the LP SPM annealing budget; 0 disables SA and
	// yields the heuristic stripe mapping (the T-Map baseline).
	SAIterations int
	Seed         int64
	// Beta, Gamma are the mapping objective exponents of E^beta * D^gamma.
	Beta, Gamma float64
	// MaxGroupLayers bounds layer-group size in the graph partitioner.
	MaxGroupLayers int
	// BatchUnits are candidate samples-per-pass values.
	BatchUnits []int
}

// DefaultMapOptions returns throughput-scenario defaults.
func DefaultMapOptions() MapOptions {
	return MapOptions{
		Batch:        64,
		SAIterations: 1500,
		Seed:         1,
		Beta:         1,
		Gamma:        1,
		BatchUnits:   []int{1, 2, 4, 8},
	}
}

// Mapping is the Mapping Engine's output for one DNN on one architecture.
type Mapping struct {
	Arch   Arch
	Scheme *Scheme
	Result EvalResult

	// AvgLayersPerGroup is the mean pipeline length (paper Sec. VII-A2).
	AvgLayersPerGroup float64
}

// Map runs the full Mapping Engine (G-Map): DP-based graph partition, then
// the SA search with the paper's five operators over the LP SPM space. It
// is the DSE's pipeline for one (architecture, model) cell,
// dse.Session.MapModel, on a fresh session, so a panicking pipeline returns
// a *dse.CellError. The stripe mapping the search starts from is what
// MapTangram returns.
func Map(cfg *Arch, model *Model, opt MapOptions) (*Mapping, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Batch < 1 {
		return nil, fmt.Errorf("gemini: batch %d < 1", opt.Batch)
	}
	mr, err := dse.NewSession().MapModel(cfg, model, dse.Options{Mapping: dse.Mapping{
		Objective: dse.Objective{Beta: opt.Beta, Gamma: opt.Gamma},
		Batch:     opt.Batch, SAIterations: opt.SAIterations, Restarts: 1, Seed: opt.Seed,
		MaxGroupLayers: opt.MaxGroupLayers, BatchUnits: opt.BatchUnits,
	}})
	if err != nil {
		return nil, err
	}
	return &Mapping{Arch: *cfg, Scheme: mr.SA.Scheme, Result: mr.Eval, AvgLayersPerGroup: mr.AvgLayersPerGroup}, nil
}

// MapTangram runs the T-Map baseline: the same DP graph partition with the
// heuristic stripe-based SPM and no SA refinement — Map with zero
// annealing iterations. Its Result is the stripe starting point of a Map
// call with the same options.
func MapTangram(cfg *Arch, model *Model, opt MapOptions) (*Mapping, error) {
	opt.SAIterations = 0
	return Map(cfg, model, opt)
}

// MonetaryCost evaluates the architecture's MC (paper Sec. V-C).
func MonetaryCost(cfg *Arch) MCBreakdown {
	return cost.New().Evaluate(cfg)
}

// TrafficHeatmap renders the per-link traffic of one layer group of a
// mapping (Fig. 9). It returns the CSV rows and an ASCII rendering.
func TrafficHeatmap(m *Mapping, group int) (csv, ascii string, err error) {
	if group < 0 || group >= len(m.Scheme.Groups) {
		return "", "", fmt.Errorf("gemini: group %d out of range", group)
	}
	an, err := core.Analyze(m.Scheme, group, &m.Arch)
	if err != nil {
		return "", "", err
	}
	tr := noc.New(&m.Arch).NewTraffic()
	eval.AddActivations(tr, an)
	return tr.CSV(), tr.ASCII(), nil
}

// HopStats reports total on-chip and D2D byte-hops of a mapping, the
// quantities Fig. 9 compares between Tangram and Gemini schemes.
func HopStats(m *Mapping) (onchip, d2d float64) {
	for _, g := range m.Result.Groups {
		onchip += g.NoCBytes
		d2d += g.D2DBytes
	}
	return onchip, d2d
}

// DSE re-exports: spaces, options and the explorer itself.
type (
	// DSEOptions configures ExploreArchitectures.
	DSEOptions = dse.Options
	// DSEObjective is the MC^alpha E^beta D^gamma exponent triple.
	DSEObjective = dse.Objective
	// DSESpace is a Table I-style candidate grid.
	DSESpace = dse.Space
	// DSEResult is one candidate's outcome.
	DSEResult = dse.CandidateResult
)

// Table I candidate spaces.
var (
	Space72  = dse.Space72
	Space128 = dse.Space128
	Space512 = dse.Space512
)

// DefaultDSEOptions returns the paper's default DSE settings.
func DefaultDSEOptions() DSEOptions { return dse.DefaultOptions() }

// ExploreArchitectures runs the exhaustive co-exploration over the
// candidate list for the given workloads and returns candidates sorted by
// the MC^alpha * E^beta * D^gamma objective.
func ExploreArchitectures(cands []Arch, models []*Model, opt DSEOptions) []DSEResult {
	return dse.NewSession().Run(cands, models, opt)
}

// BestArchitecture returns the first feasible DSE result, or nil.
func BestArchitecture(results []DSEResult) *DSEResult { return dse.Best(results) }

// DSESession is a long-lived exploration session: a cross-candidate shared
// evaluation cache, warm per-architecture evaluators, and a checkpoint of
// completed (candidate, model) cells. Re-running overlapping sweeps through
// one session hits warm cache entries; fixed-seed results are bit-identical
// to standalone ExploreArchitectures calls.
type DSESession = dse.Session

// NewDSESession returns an empty exploration session.
func NewDSESession() *DSESession { return dse.NewSession() }

// ScaleArch replicates a base architecture's chiplet to factor x the
// compute, the chiplet-reuse construction of Sec. VII-B.
func ScaleArch(base Arch, factor int) (Arch, error) { return dse.ScaleUp(base, factor) }

// PrintSpaceSizes writes the Sec. IV-B optimization-space size table
// (Gemini's encoding lower bound vs the Tangram heuristic's upper bound).
func PrintSpaceSizes(w io.Writer) { experiments.PrintSpaceSizes(w) }
