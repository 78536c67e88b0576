// Package core implements the paper's primary contribution (Sec. IV): the
// layer-centric encoding of Layer-Pipeline spatial mapping schemes, the
// parsing method that turns an encoded scheme into per-core partitioned
// workloads and data flows, the heuristic stripe baseline (Tangram's T-Map),
// and the five simulated-annealing operators that navigate the encoding's
// optimization space.
package core

import (
	"fmt"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

// Part is the four-dimensional partition attribute of a layer's mapping
// scheme: how many approximately equal pieces the output cube is split into
// along ofmap Height, Width, Batch and Channel (paper Fig. 3).
type Part struct {
	H, W, B, K int
}

// N returns the number of partitioned workloads (must equal len(CG)).
func (p Part) N() int { return p.H * p.W * p.B * p.K }

// Valid reports whether the partition is positive and within the layer's
// cube extents for the given batch unit.
func (p Part) Valid(l *dnn.Layer, batchUnit int) bool {
	return p.H >= 1 && p.W >= 1 && p.B >= 1 && p.K >= 1 &&
		p.H <= l.OH && p.W <= l.OW && p.B <= batchUnit && p.K <= l.OK
}

// Flow-of-data sentinel values (paper Sec. IV-A).
const (
	// FDImplicit marks data flows that need no explicit management or are
	// absent (-1 in the paper's notation).
	FDImplicit = -1
	// FDInterleave distributes the data evenly across all DRAMs (0).
	FDInterleave = 0
	// DRAM IDs are 1..D.
)

// FD is the flow-of-data attribute: the DRAM sources of a layer's ifmaps
// and weights and the destination of its ofmaps.
type FD struct {
	IF, WGT, OF int
}

// MS is the mapping scheme of one layer: Partition, ordered Core Group and
// Flow of Data (paper Sec. IV-A).
type MS struct {
	Layer int
	Part  Part
	CG    []arch.CoreID
	FD    FD
}

// Clone returns a deep copy.
func (m *MS) Clone() *MS {
	cp := *m
	cp.CG = append([]arch.CoreID(nil), m.CG...)
	return &cp
}

// LMS is the LP spatial mapping scheme of one layer group: the MS of every
// layer in the group, in the group's topological order.
type LMS struct {
	// BatchUnit is the number of samples processed per pipeline pass
	// (chosen by the graph partition engine).
	BatchUnit int
	MSs       []*MS
}

// Clone returns a deep copy.
func (s *LMS) Clone() *LMS {
	cp := &LMS{BatchUnit: s.BatchUnit, MSs: make([]*MS, len(s.MSs))}
	for i, m := range s.MSs {
		cp.MSs[i] = m.Clone()
	}
	return cp
}

// CopyFrom makes s a deep copy of src in s's own storage: its MS values and
// the capacity of their core groups are reused, so copying between two groups
// of one shape — a search trying a move in a spare copy — allocates nothing.
func (s *LMS) CopyFrom(src *LMS) {
	s.BatchUnit = src.BatchUnit
	for len(s.MSs) < len(src.MSs) {
		s.MSs = append(s.MSs, new(MS))
	}
	s.MSs = s.MSs[:len(src.MSs)]
	for i, m := range src.MSs {
		d := s.MSs[i]
		cg := append(d.CG[:0], m.CG...)
		*d = *m
		d.CG = cg
	}
}

// Layers returns the layer IDs of the group in order.
func (s *LMS) Layers() []int {
	ids := make([]int, len(s.MSs))
	for i, m := range s.MSs {
		ids[i] = m.Layer
	}
	return ids
}

// MSFor returns the mapping scheme of a layer, or nil.
func (s *LMS) MSFor(layer int) *MS {
	if i := s.IndexOf(layer); i >= 0 {
		return s.MSs[i]
	}
	return nil
}

// IndexOf returns the index of a layer's mapping scheme in MSs, or -1.
func (s *LMS) IndexOf(layer int) int {
	for i, m := range s.MSs {
		if m.Layer == layer {
			return i
		}
	}
	return -1
}

// Scheme is a complete LP mapping of a DNN: an ordered sequence of layer
// groups, each with its LMS, executed one after another on the accelerator.
type Scheme struct {
	Graph  *dnn.Graph
	Batch  int
	Groups []*LMS
}

// Clone returns a deep copy (the graph is shared).
func (s *Scheme) Clone() *Scheme {
	cp := &Scheme{Graph: s.Graph, Batch: s.Batch, Groups: make([]*LMS, len(s.Groups))}
	for i, g := range s.Groups {
		cp.Groups[i] = g.Clone()
	}
	return cp
}

// ProducerOF returns the FD.OF of the layer's mapping scheme wherever in the
// scheme it is mapped — the DRAM a consumer in another group fetches the
// layer's ofmaps from (paper: "the data can be fetched from the DRAM where
// the previous layer's ofmaps were stored") — or FDImplicit when the layer
// is in no group or its ofmaps have no explicit destination.
func (s *Scheme) ProducerOF(layer int) int {
	for _, g := range s.Groups {
		if ms := g.MSFor(layer); ms != nil {
			return ms.FD.OF
		}
	}
	return FDImplicit
}

// NeedsExplicitIF reports whether the layer consumes the DNN's external
// input (paper rule: ifmaps are explicitly managed only then).
func NeedsExplicitIF(l *dnn.Layer) bool {
	for _, in := range l.Inputs {
		if in.Src == dnn.ExternalInput {
			return true
		}
	}
	return false
}

// NeedsExplicitOF reports whether the layer's ofmaps must go to DRAM: some
// consumer lies outside the group, or the layer is a DNN output.
func NeedsExplicitOF(g *dnn.Graph, group map[int]bool, layer int) bool {
	return needsExplicitOF(g, func(l int) bool { return group[l] }, layer)
}

// needsExplicitOF is NeedsExplicitOF over any membership test; it only calls
// inGroup, so a closure passed here stays on the caller's stack.
func needsExplicitOF(g *dnn.Graph, inGroup func(layer int) bool, layer int) bool {
	if layer < 0 || layer >= len(g.Layers) {
		return true // no layer, no consumers
	}
	cons := g.Consumers()[layer]
	for _, c := range cons {
		if !inGroup(c) {
			return true
		}
	}
	return len(cons) == 0
}

// Validate checks every encoding invariant of the scheme (paper Sec. IV-A):
// partitions within cube extents, |CG| = Part.N, per-group disjoint core
// groups with valid core IDs, and flow-of-data values consistent with the
// graph structure and DRAM count.
func (s *Scheme) Validate(cfg *arch.Config) error {
	if s.Batch < 1 {
		return fmt.Errorf("core: batch %d < 1", s.Batch)
	}
	d := cfg.DRAMControllers()
	seen := make(map[int]bool) // layer -> already mapped
	for gi, g := range s.Groups {
		if g.BatchUnit < 1 || g.BatchUnit > s.Batch {
			return fmt.Errorf("core: group %d batch unit %d outside [1,%d]", gi, g.BatchUnit, s.Batch)
		}
		group := make(map[int]bool, len(g.MSs))
		for _, ms := range g.MSs {
			group[ms.Layer] = true
		}
		used := make(map[arch.CoreID]int)
		for _, ms := range g.MSs {
			l := s.Graph.Layer(ms.Layer)
			if l == nil {
				return fmt.Errorf("core: group %d references unknown layer %d", gi, ms.Layer)
			}
			if seen[ms.Layer] {
				return fmt.Errorf("core: layer %d mapped twice", ms.Layer)
			}
			seen[ms.Layer] = true
			if !ms.Part.Valid(l, g.BatchUnit) {
				return fmt.Errorf("core: layer %s part %+v invalid for cube %dx%dx%dx%d",
					l.Name, ms.Part, l.OH, l.OW, g.BatchUnit, l.OK)
			}
			if ms.Part.N() != len(ms.CG) {
				return fmt.Errorf("core: layer %s |CG|=%d != Part.N=%d", l.Name, len(ms.CG), ms.Part.N())
			}
			for _, c := range ms.CG {
				if int(c) < 0 || int(c) >= cfg.Cores() {
					return fmt.Errorf("core: layer %s has invalid core %d", l.Name, c)
				}
				if prev, dup := used[c]; dup {
					return fmt.Errorf("core: core %d used by layers %d and %d in group %d", c, prev, ms.Layer, gi)
				}
				used[c] = ms.Layer
			}
			if err := validateFD(s.Graph, group, l, ms.FD, d); err != nil {
				return fmt.Errorf("core: group %d: %w", gi, err)
			}
		}
	}
	for _, l := range s.Graph.Layers {
		if !seen[l.ID] {
			return fmt.Errorf("core: layer %s not mapped", l.Name)
		}
	}
	return nil
}

func validateFD(g *dnn.Graph, group map[int]bool, l *dnn.Layer, fd FD, drams int) error {
	checkRange := func(name string, v int, explicit bool) error {
		if explicit {
			if v < FDInterleave || v > drams {
				return fmt.Errorf("layer %s %s=%d outside [0,%d]", l.Name, name, v, drams)
			}
			return nil
		}
		if v != FDImplicit {
			return fmt.Errorf("layer %s %s=%d must be implicit (-1)", l.Name, name, v)
		}
		return nil
	}
	if err := checkRange("IF", fd.IF, NeedsExplicitIF(l)); err != nil {
		return err
	}
	if err := checkRange("WGT", fd.WGT, l.HasWeights); err != nil {
		return err
	}
	return checkRange("OF", fd.OF, NeedsExplicitOF(g, group, l.ID))
}

// NID computes the numerical ID of a partitioned workload from its
// four-dimensional ID under the paper's correspondence rule:
// h*W*B*K + w*B*K + b*K + k.
func (p Part) NID(h, w, b, k int) int {
	return ((h*p.W+w)*p.B+b)*p.K + k
}

// Ranges returns the output-cube ranges of the workload with 4-D id
// (h, w, b, k) for a layer with the given cube extents.
func (p Part) Ranges(l *dnn.Layer, batchUnit, h, w, b, k int) (hr, wr, br, kr dnn.Range) {
	return dnn.SplitDim(l.OH, p.H, h),
		dnn.SplitDim(l.OW, p.W, w),
		dnn.SplitDim(batchUnit, p.B, b),
		dnn.SplitDim(l.OK, p.K, k)
}
