package experiments

import (
	"fmt"
	"io"
	"math"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/sa"
)

// Fig8Row is one construction scheme for one target compute level.
type Fig8Row struct {
	TOPS   float64
	Scheme string // Simba, CrossReuse, JointOptimal, Optimal

	Arch          string
	MC            float64
	Energy, Delay float64
	MCED          float64 // normalized to Optimal of the same TOPS
}

// Fig8Result is the chiplet-reuse study.
type Fig8Result struct {
	Rows []Fig8Row
	// JointGap is the average MC*E*D overhead of Joint Optimal over
	// Optimal (paper: ~34%).
	JointGap float64
}

// simbaScaled builds an accelerator from Simba chiplets at roughly the
// target TOPS (one core per chiplet, Simba per-core parameters).
func simbaScaled(targetTOPS float64) arch.Config {
	base := arch.Simba()
	cores := int(math.Round(targetTOPS * 1000 / (2 * float64(base.MACsPerCore) * base.FreqGHz)))
	w, h := dse.GridFor(cores)
	if float64(w) > 2.5*float64(h) {
		w, h = dse.GridFor(cores + 1)
	}
	cfg := base
	cfg.Name = fmt.Sprintf("Simba-x%d", w*h)
	cfg.CoresX, cfg.CoresY = w, h
	cfg.XCut, cfg.YCut = w, h // every core is its own chiplet
	cfg.DRAMBW = 2 * targetTOPS
	return cfg
}

// Fig8 reproduces the chiplet-reuse study for 128 and 512 TOPs: building
// from Simba chiplets, cross-reusing each scale's optimal chiplet at the
// other scale, the jointly optimized chiplet, and each scale's own optimum.
func Fig8(opt Options) (*Fig8Result, error) {
	models := opt.fig8Models()
	d := opt.dseOptions(opt.batch())
	ses := opt.session()

	// Fig. 8 needs construction-scheme optima, not the whole scatter, so
	// even full mode uses a trimmed grid (quick mode a tiny one).
	sp128, sp512 := dse.Space128().Reduced(), dse.Space512().Reduced()
	if opt.Quick {
		sp128, sp512 = tinySpace(dse.Space128()), tinySpace(dse.Space512())
	}
	r128 := ses.Run(sp128.Enumerate(), models, d)
	r512 := ses.Run(sp512.Enumerate(), models, d)
	best128, best512 := dse.Best(r128), dse.Best(r512)
	if best128 == nil || best512 == nil {
		return nil, fmt.Errorf("fig8: no feasible optimum")
	}

	// Joint: the most promising 128 TOPs bases, scaled x4 to 512 TOPs.
	bases := make([]arch.Config, 0, 8)
	for i := range r128 {
		if r128[i].Feasible {
			bases = append(bases, r128[i].Cfg)
		}
		if len(bases) == 8 {
			break
		}
	}
	joint := ses.JointRun(bases, []int{1, 4}, models, d)
	var jbest *dse.JointResult
	for i := range joint {
		if joint[i].Feasible {
			jbest = &joint[i]
			break
		}
	}
	if jbest == nil {
		return nil, fmt.Errorf("fig8: no feasible joint candidate")
	}

	mce := func(r *dse.CandidateResult) float64 { return r.MC.Total() * r.Energy * r.Delay }

	evalOne := func(cfg arch.Config) (*dse.CandidateResult, error) {
		rs := ses.Run([]arch.Config{cfg}, models, d)
		if len(rs) == 0 || !rs[0].Feasible {
			return nil, fmt.Errorf("fig8: %s infeasible", cfg.Name)
		}
		return &rs[0], nil
	}

	res := &Fig8Result{}
	addRow := func(tops float64, scheme string, cr *dse.CandidateResult, norm float64) {
		res.Rows = append(res.Rows, Fig8Row{
			TOPS: tops, Scheme: scheme, Arch: cr.Cfg.Name,
			MC: cr.MC.Total(), Energy: cr.Energy, Delay: cr.Delay,
			MCED: mce(cr) / norm,
		})
	}

	// 128 TOPs constructions.
	simba128, err := evalOne(simbaScaled(sp128.TOPS))
	if err != nil {
		return nil, err
	}
	// Cross reuse: one chiplet class of the 512 optimum at 128 scale (its
	// chiplet count divided by 4). When the 512 optimum is monolithic or
	// otherwise indivisible — reuse is then impossible by construction, the
	// paper's very point — fall back to the best divisible 512 candidate.
	cross128cfg, err := shrinkBest(r512, 4)
	if err != nil {
		return nil, err
	}
	cross128, err := evalOne(cross128cfg)
	if err != nil {
		return nil, err
	}
	n128 := mce(best128)
	addRow(sp128.TOPS, "Simba-chiplets", simba128, n128)
	addRow(sp128.TOPS, "CrossReuse", cross128, n128)
	addRow(sp128.TOPS, "JointOptimal", &jbest.Scaled[0], n128)
	addRow(sp128.TOPS, "Optimal", best128, n128)

	// 512 TOPs constructions.
	simba512, err := evalOne(simbaScaled(sp512.TOPS))
	if err != nil {
		return nil, err
	}
	cross512cfg, err := dse.ScaleUp(best128.Cfg, 4)
	if err != nil {
		return nil, err
	}
	cross512, err := evalOne(cross512cfg)
	if err != nil {
		return nil, err
	}
	n512 := mce(best512)
	addRow(sp512.TOPS, "Simba-chiplets", simba512, n512)
	addRow(sp512.TOPS, "CrossReuse", cross512, n512)
	addRow(sp512.TOPS, "JointOptimal", &jbest.Scaled[1], n512)
	addRow(sp512.TOPS, "Optimal", best512, n512)

	res.JointGap = (mce(&jbest.Scaled[0])/n128+mce(&jbest.Scaled[1])/n512)/2 - 1
	return res, nil
}

// shrinkBest returns the first (best-objective) feasible candidate whose
// chiplet grid divides by factor, shrunk to 1/factor of its compute.
func shrinkBest(results []dse.CandidateResult, factor int) (arch.Config, error) {
	for i := range results {
		if !results[i].Feasible {
			continue
		}
		if cfg, err := shrinkTo(results[i].Cfg, factor); err == nil {
			return cfg, nil
		}
	}
	return arch.Config{}, fmt.Errorf("fig8: no candidate shrinkable by %d", factor)
}

// shrinkTo divides a configuration's chiplet grid by factor (the inverse of
// ScaleUp), reusing one (or a few) of its chiplets at a lower scale.
func shrinkTo(cfg arch.Config, factor int) (arch.Config, error) {
	for fx := 1; fx <= factor; fx++ {
		if factor%fx != 0 {
			continue
		}
		fy := factor / fx
		if cfg.XCut%fx != 0 || cfg.YCut%fy != 0 {
			continue
		}
		out := cfg
		out.CoresX /= fx
		out.XCut /= fx
		out.CoresY /= fy
		out.YCut /= fy
		out.DRAMBW /= float64(factor)
		out.Name = out.String()
		if err := out.Validate(); err == nil {
			return out, nil
		}
	}
	return arch.Config{}, fmt.Errorf("fig8: cannot shrink %s by %d", cfg.Name, factor)
}

// Print writes the Fig. 8 table.
func (r *Fig8Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 8: chiplet reuse across 128/512 TOPs (MC*E*D normalized to each scale's Optimal)")
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", row.TOPS), row.Scheme, row.Arch,
			fmt.Sprintf("%.2f", row.MC), fmtE(row.Energy), fmtE(row.Delay),
			fmt.Sprintf("%.2f", row.MCED),
		})
	}
	table(w, []string{"TOPs", "scheme", "arch", "MC($)", "energy(J)", "delay(s)", "MC*E*D"}, rows)
	fmt.Fprintf(w, "\njoint-optimal gap over per-scale optimal: %+.0f%% (paper: ~+34%%)\n", 100*r.JointGap)
}

// Fig9Result compares the Tangram and Gemini SPM schemes of one transformer
// layer group on the 72 TOPs G-Arch.
type Fig9Result struct {
	Arch string

	TangramHops, GeminiHops       float64 // on-chip byte-hops per pass
	TangramD2DHops, GeminiD2DHops float64
	HopReduction, D2DReduction    float64 // fractions (paper: 34.2%, 74%)

	TangramMaxLink, GeminiMaxLink float64

	TangramASCII, GeminiASCII string
	TangramCSV, GeminiCSV     string
}

// Fig9 maps the heavy three-layer attention slice of a Transformer encoder
// (score matmul -> softmax -> context matmul, whose inter-layer volumes
// dwarf the rest, as in the paper's bottom-left inset) with the stripe
// heuristic and with the SA search, then renders both traffic heatmaps.
func Fig9(opt Options) (*Fig9Result, error) {
	cfg := arch.GArch72()
	g := dnn.Transformer()
	// Locate the first attention block: l0.qk -> l0.sm -> l0.av.
	var layers []int
	for _, l := range g.Layers {
		switch l.Name {
		case "l0.qk", "l0.sm", "l0.av":
			layers = append(layers, l.ID)
		}
	}
	if len(layers) != 3 {
		return nil, fmt.Errorf("fig9: attention block not found")
	}
	bu := 2
	scheme, err := core.StripeScheme(g, &cfg, [][]int{layers}, []int{bu}, 64)
	if err != nil {
		return nil, err
	}
	ev := eval.New(&cfg)
	iters := 4000
	if opt.Quick {
		iters = 800
	}
	so := sa.DefaultOptions()
	so.Iterations = iters
	so.Seed = opt.Seed
	best := sa.Optimize(scheme, ev, so)

	res := &Fig9Result{Arch: cfg.Name}
	measure := func(s *core.Scheme) (on, d2d, maxLink float64, csv, ascii string, err error) {
		an, err := core.Analyze(s, 0, &cfg)
		if err != nil {
			return 0, 0, 0, "", "", err
		}
		tr := ev.Net.NewTraffic()
		eval.AddActivations(tr, an)
		on, d2d, _ = tr.TotalBytes()
		maxLink, _ = tr.MaxLinkLoad()
		return on, d2d, maxLink, tr.CSV(), tr.ASCII(), nil
	}
	var errT error
	res.TangramHops, res.TangramD2DHops, res.TangramMaxLink, res.TangramCSV, res.TangramASCII, errT = measure(scheme)
	if errT != nil {
		return nil, errT
	}
	res.GeminiHops, res.GeminiD2DHops, res.GeminiMaxLink, res.GeminiCSV, res.GeminiASCII, errT = measure(best.Scheme)
	if errT != nil {
		return nil, errT
	}
	tot := res.TangramHops + res.TangramD2DHops
	if tot > 0 {
		res.HopReduction = 1 - (res.GeminiHops+res.GeminiD2DHops)/tot
	}
	if res.TangramD2DHops > 0 {
		res.D2DReduction = 1 - res.GeminiD2DHops/res.TangramD2DHops
	}
	return res, nil
}

// Print writes the Fig. 9 comparison with both ASCII heatmaps.
func (r *Fig9Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 9: transformer attention group traffic on %s\n", r.Arch)
	table(w, []string{"scheme", "byte-hops", "d2d byte-hops", "max link bytes"}, [][]string{
		{"Tangram", fmtE(r.TangramHops + r.TangramD2DHops), fmtE(r.TangramD2DHops), fmtE(r.TangramMaxLink)},
		{"Gemini", fmtE(r.GeminiHops + r.GeminiD2DHops), fmtE(r.GeminiD2DHops), fmtE(r.GeminiMaxLink)},
	})
	fmt.Fprintf(w, "\nhop reduction %.1f%% (paper: 34.2%%), D2D hop reduction %.1f%% (paper: 74%%)\n",
		100*r.HopReduction, 100*r.D2DReduction)
	fmt.Fprintf(w, "\nTangram heatmap (per-core peak outgoing pressure, 0-9):\n%s", r.TangramASCII)
	fmt.Fprintf(w, "\nGemini heatmap:\n%s", r.GeminiASCII)
}
