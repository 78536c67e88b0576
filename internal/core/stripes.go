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

// stripeBufs holds every buffer building one stripe LMS needs, so a caller
// that keeps one (Striper.Scratch) builds LMS after LMS without allocating.
type stripeBufs struct {
	// Core allocation tables, one entry per layer of the group.
	caps, alloc []int
	weights     []float64
	byRem       byRemainder

	member []bool // indexed by layer ID; true only while that layer's group is being built

	// The LMS under construction: its MS values, the pointers to them that
	// LMS.MSs holds, and the arena their core groups are views of.
	lms  LMS
	mss  []MS
	ptrs []*MS
	cgs  []arch.CoreID
}

// byRemainder sorts layer indices by descending allocation remainder. It is
// a sort.Interface so sorting it runs the algorithm sort.Slice ran here
// before — the same comparisons and swaps, so ties between equal remainders
// fall as they always have (TestStripeEncodingPinned) — without sort.Slice's
// closure and reflection swapper.
type byRemainder struct {
	order      []int
	remainders []float64
}

func (r *byRemainder) Len() int           { return len(r.order) }
func (r *byRemainder) Less(a, b int) bool { return r.remainders[r.order[a]] > r.remainders[r.order[b]] }
func (r *byRemainder) Swap(a, b int)      { r.order[a], r.order[b] = r.order[b], r.order[a] }

// resize returns buf with length n, reusing its backing array when it fits.
// Contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// allocateCores distributes m cores over the layers into b.alloc,
// proportionally to their compute weight (largest-remainder method), each
// layer receiving at least one core and at most its maximum useful partition
// count. It allocates only on the cold path, for the error of a group that
// cannot be striped.
func (b *stripeBufs) allocateCores(g *dnn.Graph, layers []int, m, batchUnit int) error {
	n := len(layers)
	if n == 0 {
		return fmt.Errorf("core: empty layer group")
	}
	if n > m {
		return fmt.Errorf("core: %d layers exceed %d cores", n, m)
	}
	b.caps, b.alloc, b.weights = resize(b.caps, n), resize(b.alloc, n), resize(b.weights, n)
	b.byRem.order, b.byRem.remainders = resize(b.byRem.order, n), resize(b.byRem.remainders, n)
	caps, alloc, weights, remainders, order := b.caps, b.alloc, b.weights, b.byRem.remainders, b.byRem.order
	total := 0.0
	for i, id := range layers {
		l := g.Layer(id)
		caps[i] = maxParts(l, batchUnit)
		weights[i] = layerWeight(l)
		total += weights[i]
	}
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
	for i := range order {
		order[i] = i
	}
	for used < m {
		sort.Sort(&b.byRem)
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
			return fmt.Errorf("core: cannot fit %d layers in %d cores", n, m)
		}
		alloc[worst]--
		used--
	}
	return nil
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

// Striper builds stripe LMSs over one architecture's snake order, computed
// once: the graph partitioner stripes thousands of candidate segments per
// architecture, reads each once and drops it, so it builds them in the
// Striper's own buffers (Scratch).
type Striper struct {
	order   []arch.CoreID
	scratch stripeBufs
}

// NewStriper returns the Striper for cfg.
func NewStriper(cfg *arch.Config) Striper { return Striper{order: SnakeOrder(cfg)} }

// Stripes builds the heuristic stripe-based LMS for a layer group on the
// Striper's architecture — compute-proportional core counts, consecutive
// snake-order core stripes, spatial-first partitions, and interleaved DRAM
// flows — as a fresh LMS the caller owns. This is both the T-Map baseline
// and the SA's initial scheme (paper Sec. V-B1).
func (st *Striper) Stripes(g *dnn.Graph, layers []int, batchUnit int) (*LMS, error) {
	return new(stripeBufs).stripes(g, layers, st.order, batchUnit)
}

// Scratch is Stripes into buffers the Striper reuses: the returned LMS and
// everything it points to are valid until the next Scratch call, and after
// warm-up building it allocates nothing.
func (st *Striper) Scratch(g *dnn.Graph, layers []int, batchUnit int) (*LMS, error) {
	return st.scratch.stripes(g, layers, st.order, batchUnit)
}

// stripes builds the stripe LMS over a precomputed snake order of the core
// array in b's buffers and returns &b.lms; it only reads order. With buffers
// that have grown to the group's size it allocates nothing.
func (b *stripeBufs) stripes(g *dnn.Graph, layers []int, order []arch.CoreID, batchUnit int) (*LMS, error) {
	if err := b.allocateCores(g, layers, len(order), batchUnit); err != nil {
		return nil, err
	}
	n := len(layers)
	b.member = resize(b.member, len(g.Layers))
	b.mss, b.ptrs, b.cgs = resize(b.mss, n), resize(b.ptrs, n), resize(b.cgs, len(order))
	for _, id := range layers {
		b.member[id] = true
	}
	// inGroup stays on the stack: needsExplicitOF only calls it (pinned by
	// TestSegmentMissAllocs).
	inGroup := func(layer int) bool { return b.member[layer] }
	pos := 0
	for i, id := range layers {
		l := g.Layer(id)
		cores := b.alloc[i]
		part, ok := HeuristicPart(l, batchUnit, cores)
		if !ok {
			cores = LargestFeasible(l, batchUnit, cores)
			part, _ = HeuristicPart(l, batchUnit, cores)
		}
		// Each core group is a capacity-clipped view of the arena, so an
		// operator that grows one reallocates instead of overrunning its
		// neighbour.
		cg := b.cgs[pos : pos+cores : pos+cores]
		copy(cg, order[pos:pos+cores])
		pos += cores
		fd := FD{IF: FDImplicit, WGT: FDImplicit, OF: FDImplicit}
		if NeedsExplicitIF(l) {
			fd.IF = FDInterleave
		}
		if l.HasWeights {
			fd.WGT = FDInterleave
		}
		if needsExplicitOF(g, inGroup, id) {
			fd.OF = FDInterleave
		}
		b.mss[i] = MS{Layer: id, Part: part, CG: cg, FD: fd}
		b.ptrs[i] = &b.mss[i]
	}
	for _, id := range layers {
		b.member[id] = false
	}
	b.lms = LMS{BatchUnit: batchUnit, MSs: b.ptrs}
	return &b.lms, nil
}

// StripeScheme builds a full stripe-mapped Scheme from a layer-group
// partition of the graph: groups lists layer IDs per group in topological
// order, batchUnits the samples per pass of each group.
func StripeScheme(g *dnn.Graph, cfg *arch.Config, groups [][]int, batchUnits []int, batch int) (*Scheme, error) {
	if len(groups) != len(batchUnits) {
		return nil, fmt.Errorf("core: %d groups but %d batch units", len(groups), len(batchUnits))
	}
	s := &Scheme{Graph: g, Batch: batch, Groups: make([]*LMS, len(groups))}
	st := NewStriper(cfg)
	for i, layers := range groups {
		lms, err := st.Stripes(g, layers, batchUnits[i])
		if err != nil {
			return nil, err
		}
		s.Groups[i] = lms
	}
	return s, nil
}
