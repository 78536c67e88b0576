// Package dnn provides the DNN DAG representation used by the Gemini
// framework: layers with four-dimensional output cubes (H, W, B, K), typed
// producer/consumer edges, and exact per-dimension input-region inference
// needed by the LP spatial-mapping analyzer.
//
// Graphs are built per sample; the batch dimension (B) is introduced at
// mapping time as the batch unit of a pipeline stage.
package dnn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
)

// Kind enumerates the layer types the hardware template computes. Activation
// and normalization operators are fused into their producers at build time
// (FusedOps), so only layers that occupy cores appear in a graph.
type Kind int

const (
	// Conv is a 2-D (optionally grouped or depthwise) convolution.
	Conv Kind = iota
	// FC is a fully connected layer over a flattened input.
	FC
	// MatMul is a matrix multiply with rows along H. With HasWeights it
	// behaves like a per-token projection; without, its second operand is
	// another layer's activation (attention score / context matmuls).
	MatMul
	// Pool is a max/average pooling layer (vector unit, per channel).
	Pool
	// Eltwise is an element-wise combination (residual add).
	Eltwise
	// Softmax is a row softmax (vector unit).
	Softmax
)

// String returns the lower-case layer-kind name.
func (k Kind) String() string {
	switch k {
	case Conv:
		return "conv"
	case FC:
		return "fc"
	case MatMul:
		return "matmul"
	case Pool:
		return "pool"
	case Eltwise:
		return "eltwise"
	case Softmax:
		return "softmax"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Role describes how a MatMul consumer's output cube maps onto one of its
// operands.
type Role int

const (
	// RoleMain is the default operand: rows follow the consumer's H range.
	RoleMain Role = iota
	// RoleB marks the transposed second operand of a weight-less MatMul
	// (C = A·Bᵀ): its rows follow the consumer's K range and its channels
	// span the contraction dimension (attention-score matmul).
	RoleB
	// RoleBT marks the non-transposed second operand (C = A·B): its
	// channels follow the consumer's K range and its rows span the
	// contraction dimension (attention-context matmul).
	RoleBT
)

// ExternalInput is the sentinel source ID for the DNN's primary input.
const ExternalInput = -1

// Input is a typed producer edge of a layer.
type Input struct {
	// Src is the producer layer ID, or ExternalInput.
	Src int
	// DstOff is the channel offset at which the producer's channels appear
	// in the consumer's input channel space (concat rewiring).
	DstOff int
	// Role selects the operand semantics for MatMul consumers.
	Role Role
}

// Layer is one node of a DNN DAG. The output feature map is the
// four-dimensional cube (OH, OW, batch, OK); the batch extent is supplied by
// the mapper.
type Layer struct {
	ID   int
	Name string
	Kind Kind

	// Output cube (per sample).
	OH, OW, OK int

	// Kernel geometry (Conv/Pool). PadH/PadW allow the asymmetric
	// factorized kernels (1x7, 7x1) of Inception-style networks.
	R, S       int
	Stride     int
	PadH, PadW int

	// IC is the total input channel count (sum over inputs for rewired
	// concats). For MatMul it is the contraction dimension.
	IC int
	// Groups partitions the channel space of a Conv (1 = dense,
	// IC = depthwise).
	Groups int

	Inputs []Input

	// HasWeights reports whether the layer owns a stationary parameter
	// tensor that must be fetched from DRAM.
	HasWeights bool

	// FusedOps counts fused element-wise post-operations (ReLU, BN, bias,
	// LayerNorm) applied per output element on the vector unit.
	FusedOps int
}

// Bytes per element; the template computes in int8 like Simba.
const ElemBytes = 1

// MACs returns the multiply-accumulate count per sample.
func (l *Layer) MACs() int64 {
	switch l.Kind {
	case Conv:
		g := l.Groups
		if g <= 0 {
			g = 1
		}
		return int64(l.OH) * int64(l.OW) * int64(l.OK) * int64(l.IC/g) * int64(l.R) * int64(l.S)
	case FC:
		return int64(l.IC) * int64(l.OK)
	case MatMul:
		return int64(l.OH) * int64(l.IC) * int64(l.OK)
	}
	return 0
}

// VectorOps returns the vector-unit operation count per sample: pooling
// windows, element-wise combines, softmax passes, and fused post-ops.
func (l *Layer) VectorOps() int64 {
	out := int64(l.OH) * int64(l.OW) * int64(l.OK)
	switch l.Kind {
	case Pool:
		return out * int64(l.R) * int64(l.S)
	case Eltwise:
		return out * int64(max(len(l.Inputs), 2))
	case Softmax:
		return out * 3 // max, exp-sum, normalize passes
	}
	return out * int64(l.FusedOps)
}

// OfmapVol returns the output volume in elements per sample.
func (l *Layer) OfmapVol() int64 {
	return int64(l.OH) * int64(l.OW) * int64(l.OK)
}

// WeightVol returns the parameter volume in elements (0 when weight-less).
func (l *Layer) WeightVol() int64 {
	if !l.HasWeights {
		return 0
	}
	switch l.Kind {
	case Conv:
		g := l.Groups
		if g <= 0 {
			g = 1
		}
		return int64(l.R) * int64(l.S) * int64(l.IC/g) * int64(l.OK)
	case FC, MatMul:
		return int64(l.IC) * int64(l.OK)
	}
	return 0
}

// IH returns the input feature-map height implied by the output geometry.
func (l *Layer) IH() int {
	return inDim(l.OH, l.R, l.Stride, l.PadH, l.Kind)
}

// IW returns the input feature-map width implied by the output geometry.
func (l *Layer) IW() int {
	return inDim(l.OW, l.S, l.Stride, l.PadW, l.Kind)
}

func inDim(o, k, stride, pad int, kind Kind) int {
	switch kind {
	case Conv, Pool:
		if stride <= 0 {
			stride = 1
		}
		d := (o-1)*stride + k - 2*pad
		if d < 1 {
			d = 1
		}
		return d
	case FC:
		return 1
	default:
		return o
	}
}

// Range is a half-open interval [Lo, Hi) along one cube dimension.
type Range struct{ Lo, Hi int }

// Len returns the interval length (never negative).
func (r Range) Len() int {
	if r.Hi <= r.Lo {
		return 0
	}
	return r.Hi - r.Lo
}

// Empty reports whether the range covers no indices.
func (r Range) Empty() bool { return r.Hi <= r.Lo }

// Intersect returns the overlap of two ranges.
func (r Range) Intersect(o Range) Range {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if hi < lo {
		hi = lo
	}
	return Range{lo, hi}
}

// Shift returns the range translated by d.
func (r Range) Shift(d int) Range { return Range{r.Lo + d, r.Hi + d} }

// SplitDim partitions [0,n) into parts approximately equal ranges and
// returns the idx-th one. The first n%parts ranges receive the extra
// element, matching the paper's "approximately equal parts" rule.
func SplitDim(n, parts, idx int) Range {
	if parts <= 0 || idx < 0 || idx >= parts {
		return Range{}
	}
	q, r := n/parts, n%parts
	lo := idx*q + min(idx, r)
	size := q
	if idx < r {
		size++
	}
	return Range{lo, lo + size}
}

// InputHRange maps an output-row range to the producer-row range the
// consumer needs on the given edge (halo included for Conv/Pool).
func (l *Layer) InputHRange(in Input, hr Range, srcOH int) Range {
	switch l.Kind {
	case Conv, Pool:
		lo := hr.Lo*l.Stride - l.PadH
		hi := (hr.Hi-1)*l.Stride - l.PadH + l.R
		return Range{lo, hi}.Intersect(Range{0, srcOH})
	case FC:
		return Range{0, srcOH}
	case MatMul:
		if in.Role == RoleB {
			return Range{0, srcOH} // refined by channel mapping below
		}
		return hr.Intersect(Range{0, srcOH})
	default:
		return hr.Intersect(Range{0, srcOH})
	}
}

// InputWRange maps an output-column range to the producer-column range.
func (l *Layer) InputWRange(in Input, wr Range, srcOW int) Range {
	switch l.Kind {
	case Conv, Pool:
		lo := wr.Lo*l.Stride - l.PadW
		hi := (wr.Hi-1)*l.Stride - l.PadW + l.S
		return Range{lo, hi}.Intersect(Range{0, srcOW})
	case FC, MatMul:
		return Range{0, srcOW}
	default:
		return wr.Intersect(Range{0, srcOW})
	}
}

// InputCRange returns the consumer's required input-channel interval for an
// output-channel range kr, in the consumer's own input channel space.
// Channel-coupled kinds (Pool, Eltwise, Softmax, depthwise/grouped Conv) need
// only the matching channel group; dense kinds need all channels.
func (l *Layer) InputCRange(kr Range) Range {
	switch l.Kind {
	case Pool, Eltwise, Softmax:
		return kr
	case Conv:
		g := l.Groups
		if g <= 1 {
			return Range{0, l.IC}
		}
		kg := l.OK / g
		cg := l.IC / g
		if kg <= 0 || cg <= 0 {
			return Range{0, l.IC}
		}
		gLo := kr.Lo / kg
		gHi := (kr.Hi - 1) / kg
		return Range{gLo * cg, (gHi + 1) * cg}.Intersect(Range{0, l.IC})
	default:
		return Range{0, l.IC}
	}
}

// EdgeRegion describes the producer-side ofmap region a consumer workload
// needs through one input edge.
type EdgeRegion struct {
	H, W, B, K Range
}

// NeededRegion computes, for the edge in, the producer ofmap region required
// by a consumer workload covering output ranges (hr, wr, br, kr). The
// producer dims are (srcOH, srcOW, srcOK). An empty region (zero volume)
// means the edge contributes nothing to this workload.
func (l *Layer) NeededRegion(in Input, hr, wr, br, kr Range, srcOH, srcOW, srcOK int) EdgeRegion {
	// Channel mapping: the consumer's input channel interval intersected
	// with the slice this edge supplies ([DstOff, DstOff+srcOK)), then
	// translated into the producer's K space.
	var kNeed Range
	if l.Kind == MatMul && in.Role == RoleB {
		// Bᵀ operand: rows follow the consumer's output columns; its
		// channel (K) extent is the contraction dim, needed in full.
		return EdgeRegion{
			H: kr.Intersect(Range{0, srcOH}),
			W: Range{0, srcOW},
			B: br,
			K: Range{0, srcOK},
		}
	}
	if l.Kind == MatMul && in.Role == RoleBT {
		// B operand: channels follow the consumer's output columns; its
		// rows span the contraction dimension, needed in full.
		return EdgeRegion{
			H: Range{0, srcOH},
			W: Range{0, srcOW},
			B: br,
			K: kr.Intersect(Range{0, srcOK}),
		}
	}
	cNeed := l.InputCRange(kr)
	kNeed = cNeed.Shift(-in.DstOff).Intersect(Range{0, srcOK})
	if kNeed.Empty() {
		return EdgeRegion{}
	}
	return EdgeRegion{
		H: l.InputHRange(in, hr, srcOH),
		W: l.InputWRange(in, wr, srcOW),
		B: br,
		K: kNeed,
	}
}

// Vol returns the region volume in elements.
func (r EdgeRegion) Vol() int64 {
	return int64(r.H.Len()) * int64(r.W.Len()) * int64(r.B.Len()) * int64(r.K.Len())
}

// Graph is a DNN DAG. Layers are stored in topological order (producers
// before consumers); Builder guarantees this by construction.
type Graph struct {
	Name   string
	Layers []*Layer

	fpOnce sync.Once
	fp     uint64

	consOnce sync.Once
	cons     [][]int
}

// Fingerprint hashes the structural content of the graph — everything a
// group evaluation can depend on: layer kinds, output cubes, kernel geometry,
// channel layout and the typed edge list. The graph's name is ignored, so two
// structurally identical graphs share evaluation-cache entries (results are
// bit-identical by construction), and the value is stable across processes.
// It is computed on first use and held by the graph: a Graph must not be
// mutated after its first Fingerprint call (evaluating a scheme makes one).
func (g *Graph) Fingerprint() uint64 {
	g.fpOnce.Do(func() {
		// FNV-1a over little-endian 64-bit words: the same fold, byte for
		// byte, as the evaluator's group and config fingerprints.
		h := fnv.New64a()
		var buf [8]byte
		word := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for _, l := range g.Layers {
			for _, v := range [...]uint64{
				uint64(l.ID), uint64(l.Kind),
				uint64(l.OH), uint64(l.OW), uint64(l.OK),
				uint64(l.R), uint64(l.S), uint64(l.Stride),
				uint64(l.PadH), uint64(l.PadW),
				uint64(l.IC), uint64(l.Groups),
				uint64(l.FusedOps),
			} {
				word(v)
			}
			if l.HasWeights {
				word(1)
			} else {
				word(0)
			}
			for _, in := range l.Inputs {
				word(uint64(int64(in.Src)))
				word(uint64(in.DstOff))
				word(uint64(in.Role))
			}
			word(^uint64(0)) // layer terminator
		}
		g.fp = h.Sum64()
	})
	return g.fp
}

// Layer returns the layer with the given ID, or nil.
func (g *Graph) Layer(id int) *Layer {
	if id < 0 || id >= len(g.Layers) {
		return nil
	}
	return g.Layers[id]
}

// TotalMACs sums MACs over all layers (per sample).
func (g *Graph) TotalMACs() int64 {
	var t int64
	for _, l := range g.Layers {
		t += l.MACs()
	}
	return t
}

// TotalWeights sums parameter volumes over all layers.
func (g *Graph) TotalWeights() int64 {
	var t int64
	for _, l := range g.Layers {
		t += l.WeightVol()
	}
	return t
}

// Consumers returns, for each layer ID, the IDs of layers consuming it, one
// entry per edge in layer order. Like the fingerprint, the index is built on
// first use and held by the graph: callers share it and must not modify it,
// and the graph must not be mutated afterwards.
func (g *Graph) Consumers() [][]int {
	g.consOnce.Do(func() {
		g.cons = make([][]int, len(g.Layers))
		for _, l := range g.Layers {
			for _, in := range l.Inputs {
				if in.Src >= 0 {
					g.cons[in.Src] = append(g.cons[in.Src], l.ID)
				}
			}
		}
	})
	return g.cons
}

// Validate checks structural invariants: IDs match positions, edges point
// backwards (topological order), channel offsets cover [0, IC) without gaps
// for multi-input layers, and dimensions are positive.
func (g *Graph) Validate() error {
	for i, l := range g.Layers {
		if l.ID != i {
			return fmt.Errorf("dnn: layer %q has ID %d at position %d", l.Name, l.ID, i)
		}
		if l.OH <= 0 || l.OW <= 0 || l.OK <= 0 {
			return fmt.Errorf("dnn: layer %q has non-positive output cube %dx%dx%d", l.Name, l.OH, l.OW, l.OK)
		}
		if len(l.Inputs) == 0 {
			return fmt.Errorf("dnn: layer %q has no inputs", l.Name)
		}
		for _, in := range l.Inputs {
			if in.Src != ExternalInput && (in.Src < 0 || in.Src >= i) {
				return fmt.Errorf("dnn: layer %q has edge from %d breaking topological order", l.Name, in.Src)
			}
			if in.DstOff < 0 || in.DstOff >= l.IC {
				return fmt.Errorf("dnn: layer %q edge offset %d outside input channels [0,%d)", l.Name, in.DstOff, l.IC)
			}
		}
		if l.Kind == Conv {
			g := l.Groups
			if g <= 0 {
				g = 1
			}
			if l.IC%g != 0 || l.OK%g != 0 {
				return fmt.Errorf("dnn: layer %q groups %d do not divide IC=%d OK=%d", l.Name, g, l.IC, l.OK)
			}
		}
	}
	if len(g.Layers) == 0 {
		return errors.New("dnn: empty graph")
	}
	return nil
}

// Depth returns the longest path length (in layers) of the graph.
func (g *Graph) Depth() int {
	depth := make([]int, len(g.Layers))
	best := 0
	for _, l := range g.Layers {
		d := 1
		for _, in := range l.Inputs {
			if in.Src >= 0 && depth[in.Src]+1 > d {
				d = depth[in.Src] + 1
			}
		}
		depth[l.ID] = d
		if d > best {
			best = d
		}
	}
	return best
}
