// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. VI-VII): the Fig. 5 overall comparison, the Fig. 6
// design-space scatter, the Fig. 7 objective-optima analysis, the Fig. 8
// chiplet-reuse study, the Fig. 9 traffic heatmaps, the Sec. VI-B2
// folded-torus comparison, and the Sec. IV-B space-size table.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"gemini/internal/arch"
	"gemini/internal/cost"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/space"
)

// Options sets the experiment fidelity.
type Options struct {
	// Quick substitutes the tiny test networks and small SA budgets so a
	// whole experiment finishes in seconds (benchmarks); full mode uses the
	// paper's workloads.
	Quick        bool
	SAIterations int
	Batches      []int
	Workers      int
	Seed         int64

	// Restarts widens the per-cell SA portfolio.
	Restarts int

	// Session, when set, runs every figure's sweeps and mappings through
	// one shared DSE session, so the figures reuse each other's settled
	// cells, partitions and intra-core explorations (Fig. 6 and Fig. 7
	// sweep the same space). Stripe-segment summaries leave the session's
	// cache with the last sweep or mapping of their group, so they are
	// shared only within one figure call. When nil, each figure call runs
	// on one session of its own.
	Session *dse.Session
}

// session returns the one session a figure call runs on throughout: the
// shared one, or a fresh one when none is configured.
func (o Options) session() *dse.Session {
	if o.Session != nil {
		return o.Session
	}
	return dse.NewSession()
}

// batch is the batch size the single-batch figures (Fig. 6-8 and the
// granularity sweeps) run at: the last of Batches, 64 when empty.
func (o Options) batch() int {
	if len(o.Batches) == 0 {
		return 64
	}
	return o.Batches[len(o.Batches)-1]
}

// transformer is the DSE figures' workload (Transformer per Sec. VI-A1;
// TinyTransformer in quick mode).
func (o Options) transformer() *dnn.Graph {
	if o.Quick {
		return dnn.TinyTransformer()
	}
	return dnn.Transformer()
}

// QuickOptions returns the bench-friendly fidelity.
func QuickOptions() Options {
	return Options{Quick: true, SAIterations: 120, Batches: []int{1, 4}, Seed: 1}
}

// FullOptions returns the paper-fidelity settings (batch 1 and 64).
func FullOptions() Options {
	return Options{SAIterations: 4000, Batches: []int{1, 64}, Seed: 1}
}

// models returns the Fig. 5 workload list (paper Sec. VI-A3).
func (o Options) models() []*dnn.Graph {
	if o.Quick {
		return []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()}
	}
	return []*dnn.Graph{dnn.ResNet50(), dnn.ResNeXt50(), dnn.InceptionResNetV1(), dnn.PNASNet(), dnn.Transformer()}
}

// fig8Models returns the Fig. 8 workload list (RN-50, IRes, PNas, GN,
// TF-Large).
func (o Options) fig8Models() []*dnn.Graph {
	if o.Quick {
		return []*dnn.Graph{dnn.TinyCNN()}
	}
	return []*dnn.Graph{dnn.ResNet50(), dnn.InceptionResNetV1(), dnn.PNASNet(), dnn.GoogLeNet(), dnn.TransformerLarge()}
}

// tinySpace shrinks a Table I space to a handful of candidates so quick
// experiments finish in seconds while preserving the chiplet-granularity
// axis the figures sweep.
func tinySpace(sp dse.Space) dse.Space {
	r := sp
	r.Name = sp.Name + "-tiny"
	r.DRAMPerTOPS = []float64{2}
	r.NoCBWs = []float64{32}
	r.D2DRatios = []float64{0.5}
	r.GLBs = []int{2048 * arch.KB}
	r.MACs = []int{2048, 8192}
	return r
}

func (o Options) dseOptions(batch int) dse.Options {
	d := dse.DefaultOptions()
	d.Batch = batch
	d.SAIterations = o.SAIterations
	d.Workers = o.Workers // dse reads 0 as GOMAXPROCS
	d.Seed = o.Seed
	if o.Restarts > 0 {
		d.Restarts = o.Restarts
	}
	if o.Quick {
		d.MaxGroupLayers = 7
		d.BatchUnits = []int{1, 2}
	}
	return d
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	p := 1.0
	for _, v := range vals {
		p *= v
	}
	return math.Pow(p, 1/float64(len(vals)))
}

// table writes an aligned text table.
func table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
}

// archMC is shared sugar.
func archMC(cfg *arch.Config) cost.Breakdown { return cost.New().Evaluate(cfg) }

func fmtE(v float64) string { return fmt.Sprintf("%.4g", v) }

// breakdownCells renders an energy breakdown normalized by a base total.
func breakdownCells(b eval.EnergyBreakdown, base float64) []string {
	n := func(v float64) string { return fmt.Sprintf("%.3f", v/base) }
	return []string{n(b.DRAM), n(b.NoC), n(b.D2D), n(b.IntraCore())}
}

// SpaceSizeRow is one line of the Sec. IV-B table.
type SpaceSizeRow struct {
	M, N           int
	GeminiLog10    float64
	TangramLog10   float64
	AdvantageLog10 float64
}

// SpaceSizes reproduces the Sec. IV-B optimization-space comparison.
func SpaceSizes() []SpaceSizeRow {
	var rows []SpaceSizeRow
	for _, m := range []int{16, 36, 64, 128} {
		for _, n := range []int{2, 4, 8, 16} {
			// The lower-bound formula needs M > 2(N-1); smaller groups have
			// zero conservative bound.
			if m-n-1 < n-1 {
				continue
			}
			g := space.Log10(space.GeminiLowerBound(m, n))
			t := space.Log10(space.TangramUpperBound(m, n))
			rows = append(rows, SpaceSizeRow{M: m, N: n, GeminiLog10: g, TangramLog10: t, AdvantageLog10: g - t})
		}
	}
	return rows
}

// PrintSpaceSizes writes the Sec. IV-B table.
func PrintSpaceSizes(w io.Writer) {
	rows := SpaceSizes()
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{
			fmt.Sprint(r.M), fmt.Sprint(r.N),
			fmt.Sprintf("10^%.1f", r.GeminiLog10),
			fmt.Sprintf("10^%.1f", r.TangramLog10),
			fmt.Sprintf("10^%.1f", r.AdvantageLog10),
		}
	}
	fmt.Fprintln(w, "Sec. IV-B: LP SPM optimization-space sizes (Gemini lower bound vs Tangram upper bound)")
	table(w, []string{"M(cores)", "N(layers)", "gemini", "tangram", "advantage"}, cells)
}
