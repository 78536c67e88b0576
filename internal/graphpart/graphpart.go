// Package graphpart implements the DP-based graph partition engine the
// Gemini framework shares with its Tangram baseline (Sec. V-B): it cuts the
// topologically ordered DNN into layer groups and selects the batch unit
// (samples per pipeline stage) of each group, minimizing the summed
// stripe-mapped group cost under the E^beta * D^gamma objective.
package graphpart

import (
	"errors"
	"fmt"
	"math"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// ErrInfeasible marks partition failures where the pipeline ran correctly
// but no candidate segmentation fits the architecture (e.g. a GLB too small
// for any stripe mapping). Callers distinguish it from infrastructure
// errors with errors.Is.
var ErrInfeasible = errors.New("graphpart: no feasible partition")

// Options configures the partitioner.
type Options struct {
	// MaxGroupLayers bounds segment length (defaults to min(cores, 20)).
	MaxGroupLayers int
	// BatchUnits are the candidate samples-per-pass values (filtered to
	// divisors-or-batch <= batch).
	BatchUnits []int
	// Beta, Gamma are the objective exponents.
	Beta, Gamma float64
}

// DefaultOptions returns the engine defaults.
func DefaultOptions() Options {
	return Options{BatchUnits: []int{1, 2, 4, 8}, Beta: 1, Gamma: 1}
}

// Result is the chosen partition.
type Result struct {
	Scheme *core.Scheme
	// Groups and BatchUnits mirror the scheme for inspection.
	Groups     [][]int
	BatchUnits []int
	Cost       float64
}

// segmenter scores candidate DP segments. It owns what every segment of one
// Partition call shares — the architecture's striper, the layer-ID slice
// whose [j,i) windows name the segments, and the one-group scheme handed to
// the evaluator — and the buffers a missed segment's stripe LMS is built in,
// which the evaluator reads once and never keeps. Scoring a segment, cached
// or not, allocates nothing but the entries a miss stores.
type segmenter struct {
	g       *dnn.Graph
	ev      *eval.Evaluator
	opt     Options
	striper core.Striper
	ids     []int
	scheme  core.Scheme
}

func newSegmenter(g *dnn.Graph, cfg *arch.Config, ev *eval.Evaluator, batch int, opt Options) *segmenter {
	sg := &segmenter{
		g: g, ev: ev, opt: opt,
		striper: core.NewStriper(cfg),
		ids:     make([]int, len(g.Layers)),
		scheme:  core.Scheme{Graph: g, Batch: batch, Groups: make([]*core.LMS, 1)},
	}
	for i := range sg.ids {
		sg.ids[i] = i
	}
	return sg
}

// evaluate scores layers [j,i) as one stripe group at batch unit bu. The
// evaluator's cache is asked by the segment's name; only a miss builds the
// stripe LMS and runs the pipeline, storing the summary under that name.
func (sg *segmenter) evaluate(j, i, bu int) (gr eval.GroupResult) {
	key := sg.ev.SegmentKey(sg.g, sg.scheme.Batch, j, i, bu)
	if !sg.ev.LookupGroup(key, sg.scheme.Batch, &gr) {
		gr = sg.evaluateMiss(key, j, i, bu)
	}
	return
}

// evaluateMiss stripes layers [j,i) into the striper's scratch LMS, which is
// dead once the evaluator has summarized it, and stores the summary under key.
func (sg *segmenter) evaluateMiss(key eval.CacheKey, j, i, bu int) eval.GroupResult {
	lms, err := sg.striper.Scratch(sg.g, sg.ids[j:i], bu)
	if err != nil {
		return eval.GroupResult{}
	}
	sg.scheme.Groups[0] = lms
	return sg.ev.EvaluateGroupAs(key, &sg.scheme, 0)
}

// cost is the DP cost of mapping layers [j,i) as one stripe group at batch
// unit bu, +Inf when the segment does not fit.
func (sg *segmenter) cost(j, i, bu int) float64 {
	gr := sg.evaluate(j, i, bu)
	if !gr.Feasible {
		return math.Inf(1)
	}
	// Normalize the objective to be 1-homogeneous in workload size:
	// summing raw E^b * D^g over segments would reward splitting (two
	// halves score 2*(E/2)^b*(D/2)^g < E^b*D^g for b+g > 1). The
	// (b+g)-th root keeps the DP size-unbiased while preserving the
	// objective's E/D weighting; for pure-delay objectives it is exact.
	c := math.Pow(gr.Energy.Total(), sg.opt.Beta) * math.Pow(gr.Delay, sg.opt.Gamma)
	if exp := sg.opt.Beta + sg.opt.Gamma; exp > 1 {
		c = math.Pow(c, 1/exp)
	}
	return c
}

// UsableBatchUnits returns the batch units Partition tries at batch: the
// candidates in [1, batch], in their order, or {1} when none is.
func UsableBatchUnits(units []int, batch int) []int {
	bus := make([]int, 0, len(units))
	for _, b := range units {
		if b >= 1 && b <= batch {
			bus = append(bus, b)
		}
	}
	if len(bus) == 0 {
		bus = []int{1}
	}
	return bus
}

// Partition runs the DP over topological segments and returns the stripe-
// mapped scheme (the SA engine refines it afterwards).
func Partition(g *dnn.Graph, cfg *arch.Config, ev *eval.Evaluator, batch int, opt Options) (*Result, error) {
	n := len(g.Layers)
	if n == 0 {
		return nil, fmt.Errorf("graphpart: empty graph")
	}
	maxLen := opt.MaxGroupLayers
	if maxLen <= 0 {
		maxLen = cfg.Cores()
		if maxLen > 20 {
			maxLen = 20
		}
	}
	if maxLen > cfg.Cores() {
		maxLen = cfg.Cores()
	}
	bus := UsableBatchUnits(opt.BatchUnits, batch)

	type choice struct {
		from int
		bu   int
	}
	dp := make([]float64, n+1)
	ch := make([]choice, n+1)
	for i := 1; i <= n; i++ {
		dp[i] = math.Inf(1)
	}

	seg := newSegmenter(g, cfg, ev, batch, opt)

	for i := 1; i <= n; i++ {
		lo := i - maxLen
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			if math.IsInf(dp[j], 1) {
				continue
			}
			for _, bu := range bus {
				c := seg.cost(j, i, bu)
				if dp[j]+c < dp[i] {
					dp[i] = dp[j] + c
					ch[i] = choice{from: j, bu: bu}
				}
			}
		}
	}
	if math.IsInf(dp[n], 1) {
		return nil, fmt.Errorf("%w for %s on %s", ErrInfeasible, g.Name, cfg.Name)
	}

	// Reconstruct.
	var groups [][]int
	var batchUnits []int
	for i := n; i > 0; {
		j := ch[i].from
		seg := make([]int, 0, i-j)
		for id := j; id < i; id++ {
			seg = append(seg, id)
		}
		groups = append([][]int{seg}, groups...)
		batchUnits = append([]int{ch[i].bu}, batchUnits...)
		i = j
	}
	scheme, err := BuildScheme(g, cfg, groups, batchUnits, batch)
	if err != nil {
		return nil, err
	}
	return &Result{Scheme: scheme, Groups: groups, BatchUnits: batchUnits, Cost: dp[n]}, nil
}

// BuildScheme stripes a partition — its groups of layer IDs and each group's
// batch unit — into a validated scheme. Partition ends with it, and a caller
// that kept a partition's groups and batch units rebuilds the same scheme
// with it without re-running the DP.
func BuildScheme(g *dnn.Graph, cfg *arch.Config, groups [][]int, batchUnits []int, batch int) (*core.Scheme, error) {
	scheme, err := core.StripeScheme(g, cfg, groups, batchUnits, batch)
	if err != nil {
		return nil, err
	}
	if err := scheme.Validate(cfg); err != nil {
		return nil, fmt.Errorf("graphpart: produced invalid scheme: %w", err)
	}
	return scheme, nil
}
