package core

import (
	"fmt"
	"sort"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

// SnakeOrder returns all cores in boustrophedon row order, so consecutive
// runs form the "consecutive and rectangle-shaped" stripes of the heuristic
// SPM strategies the paper baselines against (Sec. II-B).
func SnakeOrder(cfg *arch.Config) []arch.CoreID {
	out := make([]arch.CoreID, 0, cfg.Cores())
	for y := 0; y < cfg.CoresY; y++ {
		if y%2 == 0 {
			for x := 0; x < cfg.CoresX; x++ {
				out = append(out, cfg.CoreAt(x, y))
			}
		} else {
			for x := cfg.CoresX - 1; x >= 0; x-- {
				out = append(out, cfg.CoreAt(x, y))
			}
		}
	}
	return out
}

// layerWeight estimates a layer's share of compute for core allocation.
func layerWeight(l *dnn.Layer) float64 {
	return float64(l.MACs()) + float64(l.VectorOps())/8 + 1
}

// AllocateCores distributes m cores over the layers proportionally to their
// compute weight (largest-remainder method), each layer receiving at least
// one core and at most its maximum useful partition count.
func AllocateCores(g *dnn.Graph, layers []int, m, batchUnit int) ([]int, error) {
	n := len(layers)
	if n == 0 {
		return nil, fmt.Errorf("core: empty layer group")
	}
	if n > m {
		return nil, fmt.Errorf("core: %d layers exceed %d cores", n, m)
	}
	caps := make([]int, n)
	weights := make([]float64, n)
	total := 0.0
	for i, id := range layers {
		l := g.Layer(id)
		caps[i] = maxParts(l, batchUnit)
		weights[i] = layerWeight(l)
		total += weights[i]
	}
	alloc := make([]int, n)
	remainders := make([]float64, n)
	used := 0
	for i := range layers {
		ideal := weights[i] / total * float64(m)
		alloc[i] = int(ideal)
		if alloc[i] < 1 {
			alloc[i] = 1
		}
		if alloc[i] > caps[i] {
			alloc[i] = caps[i]
		}
		remainders[i] = ideal - float64(alloc[i])
		used += alloc[i]
	}
	// Distribute leftovers to the largest remainders that can absorb them.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for used < m {
		sort.Slice(order, func(a, b int) bool { return remainders[order[a]] > remainders[order[b]] })
		progressed := false
		for _, i := range order {
			if used >= m {
				break
			}
			if alloc[i] < caps[i] {
				alloc[i]++
				remainders[i] -= 1
				used++
				progressed = true
			}
		}
		if !progressed {
			break // every layer saturated; leave cores idle
		}
	}
	// Shrink if the at-least-one rule overshot m.
	for used > m {
		worst := -1
		for i := range alloc {
			if alloc[i] > 1 && (worst < 0 || remainders[i] < remainders[worst]) {
				worst = i
			}
		}
		if worst < 0 {
			return nil, fmt.Errorf("core: cannot fit %d layers in %d cores", n, m)
		}
		alloc[worst]--
		used--
	}
	return alloc, nil
}

// maxParts bounds how many workloads a layer can be split into.
func maxParts(l *dnn.Layer, batchUnit int) int {
	p := l.OH * l.OW * batchUnit * l.OK
	if p < 1 {
		p = 1
	}
	return p
}

// HeuristicPart picks the stripe heuristic's partition for n cores:
// spatial dimensions first (H, then W), then batch, channels last, the
// strategy of Tangram-style stripe SPM.
func HeuristicPart(l *dnn.Layer, batchUnit, n int) (Part, bool) {
	best := Part{}
	bestCost := 1e18
	found := false
	forEachFactorization(l, batchUnit, n, func(p Part) {
		cost := factorCost(l, batchUnit, p)
		if cost < bestCost {
			bestCost = cost
			best = p
			found = true
		}
	})
	return best, found
}

// factorCost scores a factorization for the stripe heuristic: penalize
// channel and batch splits (heuristics favor spatial stripes) and uneven
// remainders.
func factorCost(l *dnn.Layer, batchUnit int, p Part) float64 {
	cost := 4*float64(p.K-1) + 2*float64(p.B-1)
	if l.OH%p.H != 0 {
		cost += 0.5
	}
	if l.OW%p.W != 0 {
		cost += 0.5
	}
	if l.OK%p.K != 0 {
		cost += 0.5
	}
	if batchUnit%p.B != 0 {
		cost += 0.5
	}
	// Prefer more square spatial splits.
	if p.H > 0 && p.W > 0 {
		r := float64(p.H) / float64(p.W)
		if r < 1 {
			r = 1 / r
		}
		cost += (r - 1) * 0.01
	}
	return cost
}

// forEachFactorization enumerates every valid Part with product n.
func forEachFactorization(l *dnn.Layer, batchUnit, n int, fn func(Part)) {
	for h := 1; h <= n && h <= l.OH; h++ {
		if n%h != 0 {
			continue
		}
		nh := n / h
		for w := 1; w <= nh && w <= l.OW; w++ {
			if nh%w != 0 {
				continue
			}
			nw := nh / w
			for b := 1; b <= nw && b <= batchUnit; b++ {
				if nw%b != 0 {
					continue
				}
				k := nw / b
				if k <= l.OK {
					fn(Part{H: h, W: w, B: b, K: k})
				}
			}
		}
	}
}

// LargestFeasible returns the largest core count <= n for which the layer
// admits a valid factorization.
func LargestFeasible(l *dnn.Layer, batchUnit, n int) int {
	for v := n; v >= 1; v-- {
		if _, ok := HeuristicPart(l, batchUnit, v); ok {
			return v
		}
	}
	return 1
}

// Stripes builds the heuristic stripe-based LMS for a layer group: compute-
// proportional core counts, consecutive snake-order core stripes, spatial-
// first partitions, and interleaved DRAM flows. This is both the T-Map
// baseline and the SA's initial scheme (paper Sec. V-B1).
func Stripes(g *dnn.Graph, layers []int, cfg *arch.Config, batchUnit int) (*LMS, error) {
	return stripes(g, layers, SnakeOrder(cfg), batchUnit)
}

// Striper builds stripe LMSs over one architecture's snake order, computed
// once: the graph partitioner stripes thousands of candidate segments per
// architecture.
type Striper struct{ order []arch.CoreID }

// NewStriper returns the Striper for cfg.
func NewStriper(cfg *arch.Config) Striper { return Striper{order: SnakeOrder(cfg)} }

// Stripes is core.Stripes on the Striper's architecture.
func (st Striper) Stripes(g *dnn.Graph, layers []int, batchUnit int) (*LMS, error) {
	return stripes(g, layers, st.order, batchUnit)
}

// stripes is Stripes over a precomputed snake order of the core array; it
// only reads order.
func stripes(g *dnn.Graph, layers []int, order []arch.CoreID, batchUnit int) (*LMS, error) {
	alloc, err := AllocateCores(g, layers, len(order), batchUnit)
	if err != nil {
		return nil, err
	}
	group := make(map[int]bool, len(layers))
	for _, id := range layers {
		group[id] = true
	}
	lms := &LMS{BatchUnit: batchUnit}
	pos := 0
	for i, id := range layers {
		l := g.Layer(id)
		n := alloc[i]
		part, ok := HeuristicPart(l, batchUnit, n)
		if !ok {
			n = LargestFeasible(l, batchUnit, n)
			part, _ = HeuristicPart(l, batchUnit, n)
		}
		cg := append([]arch.CoreID(nil), order[pos:pos+n]...)
		pos += n
		fd := FD{IF: FDImplicit, WGT: FDImplicit, OF: FDImplicit}
		if NeedsExplicitIF(l) {
			fd.IF = FDInterleave
		}
		if l.HasWeights {
			fd.WGT = FDInterleave
		}
		if NeedsExplicitOF(g, group, id) {
			fd.OF = FDInterleave
		}
		lms.MSs = append(lms.MSs, &MS{Layer: id, Part: part, CG: cg, FD: fd})
	}
	return lms, nil
}

// StripeScheme builds a full stripe-mapped Scheme from a layer-group
// partition of the graph: groups lists layer IDs per group in topological
// order, batchUnits the samples per pass of each group.
func StripeScheme(g *dnn.Graph, cfg *arch.Config, groups [][]int, batchUnits []int, batch int) (*Scheme, error) {
	if len(groups) != len(batchUnits) {
		return nil, fmt.Errorf("core: %d groups but %d batch units", len(groups), len(batchUnits))
	}
	s := &Scheme{Graph: g, Batch: batch, Groups: make([]*LMS, len(groups))}
	order := SnakeOrder(cfg)
	for i, layers := range groups {
		lms, err := stripes(g, layers, order, batchUnits[i])
		if err != nil {
			return nil, err
		}
		s.Groups[i] = lms
	}
	return s, nil
}
