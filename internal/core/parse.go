package core

import (
	"fmt"
	"slices"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/intracore"
)

// PW is a partitioned workload: the slice of a layer's output cube assigned
// to one core by the correspondence rule (paper Sec. IV-A).
type PW struct {
	Layer          int
	Core           arch.CoreID
	HR, WR, BR, KR dnn.Range
}

// Vol returns the output elements this workload produces per pass.
func (p *PW) Vol() int64 {
	return int64(p.HR.Len()) * int64(p.WR.Len()) * int64(p.BR.Len()) * int64(p.KR.Len())
}

// CoreFlow is a per-pass data movement from one core's GLB to one or more
// consumer cores (identical payloads are multicast, paper Sec. IV-C).
type CoreFlow struct {
	Src   arch.CoreID
	Dsts  []arch.CoreID
	Bytes float64
}

// DRAMFlow is a per-pass or per-run DRAM transfer. Ctrl is a 0-based
// controller index or -1 for interleaved. Reads multicast to Cores; writes
// originate from Cores[0].
type DRAMFlow struct {
	Layer int
	Ctrl  int
	Cores []arch.CoreID
	Bytes float64
	Write bool
}

// Analysis is the parsed form of one layer group's LMS: per-core workloads
// for the intra-core engine plus all activation and weight flows for the
// Evaluator. An Analysis can be reused across AnalyzeInto calls: its public
// slices are overwritten in place and its private scratch tables are
// recycled, so the SA hot loop parses groups without allocating.
//
// AnalyzeInto is the parser; Analyze is its inspection form, which
// additionally sorts ActFlows and fills the ByLayer and Works maps.
type Analysis struct {
	GroupIndex int
	BatchUnit  int

	PWs []PW
	// ByLayer maps a layer to its indices into PWs (NID order). Filled by
	// Analyze only.
	ByLayer map[int][]int

	// Works holds the intra-core workload of each occupied core. Filled by
	// Analyze only; AnalyzeInto leaves the same data in CoreWorks.
	Works map[arch.CoreID]intracore.Workload

	// Occupied and CoreWorks are indexed by CoreID: CoreWorks[c] is the
	// workload of core c where Occupied[c], and stale elsewhere. Walking
	// them visits the occupied cores in ascending order.
	Occupied  []bool
	CoreWorks []intracore.Workload

	// ActFlows and ActDRAM repeat every batch-unit pass. ActDRAM and
	// WeightFlows are in emission order, layer by layer in ascending layer
	// order; so are ActFlows unless the Analysis came from Analyze. Every
	// flow carries an integer number of bytes, so the noc.Traffic they are
	// added into loads the same in any order of them.
	ActFlows []CoreFlow
	ActDRAM  []DRAMFlow

	// WeightFlows load each layer's weight slices; the Evaluator applies
	// them once per run for GLB-resident weights or once per pass when a
	// core must stream them.
	WeightFlows []DRAMFlow

	// Depth is the pipeline depth (longest dependency chain) of the group.
	Depth int

	// Reusable scratch. lps holds the per-layer parse steps' output, one per
	// MS of the group, in buffers carved from the arenas below (PWs is the
	// prefix of its arena). layers is indexed by layer ID and holds entries
	// only for the layers of the last parsed group, which parsed lists (in
	// ascending ID order) so the next parse clears exactly those. edges and
	// dram back ActFlows, ActDRAM and WeightFlows.
	lps        []LayerParse
	pwArena    []PW
	workArena  []intracore.Workload
	needArena  []needEntry
	indexArena []int32
	layers     []layerState
	parsed     []int
	edges      EdgeFlows
	dram       DRAMLists
}

// layerState is what a parse knows about one layer of the group: its PW index
// range [lo,hi), its MS index and its pipeline depth. The zero value means
// "not in this group" (a mapped layer has at least one workload).
type layerState struct {
	lo, hi int32
	ms     int32
	depth  int32
}

func (st layerState) inGroup() bool { return st.hi > st.lo }

// needEntry is one input region of an edge and the workloads that fetch it
// (the unit of multicast dedup): LayerParse.needPWs[lo:hi], indices into the
// layer's PWs in ascending order. An edge's small set of needs is searched
// linearly: it is bounded by the group's core count, and a slice both avoids
// map allocation churn and keeps emission order deterministic. Naming
// workloads rather than their cores keeps the needs a function of the layer's
// Part alone (see Relabel).
type needEntry struct {
	region dnn.EdgeRegion
	lo, hi int32
}

// krEntry groups the cores sharing one weight K-range slice.
type krEntry struct {
	kr    dnn.Range
	cores []arch.CoreID
}

// LayerParse is one layer's share of a group parse: what the first parse
// step derives from the layer's MS alone. The steps are methods of it —
// Parse, AppendEdgeFlows and AppendDRAM — and AnalyzeInto runs all of them
// for every layer of a group (in buffers it carves for each layer), while a
// caller that keeps a group's parse layer by layer (the evaluator's delta
// path) re-runs them for the layers a move changed. A LayerParse is reused
// across calls without allocating once its buffers have grown.
type LayerParse struct {
	// PWs are the layer's partitioned workloads in NID order; Works[i] is the
	// intra-core workload of PWs[i], its InBytes summed over every input edge.
	PWs   []PW
	Works []intracore.Workload
	// needs[edge[k]:edge[k+1]] is what the workloads read through input edge
	// k of the layer, grouped by region; needPWs holds the needs' workloads.
	// needOf is scratch: each workload's need on the edge being parsed.
	needs   []needEntry
	edge    []int32
	needPWs []int32
	needOf  []int32
}

// EdgeFlows is a list of core-to-core flows and the arena their destination
// lists point into.
type EdgeFlows struct {
	Flows []CoreFlow
	arena []arch.CoreID
}

// Reset empties the list, keeping its buffers.
func (ef *EdgeFlows) Reset() { ef.Flows, ef.arena = ef.Flows[:0], ef.arena[:0] }

// DRAMLists are DRAM flows — activation reads and ofmap writes in Act, weight
// loads in Weights — with the arena their core lists point into and the
// scratch that groups them.
type DRAMLists struct {
	Act, Weights []DRAMFlow

	arena  []arch.CoreID
	klists []krEntry
}

// Reset empties both lists, keeping their buffers.
func (d *DRAMLists) Reset() {
	d.Act, d.Weights, d.arena = d.Act[:0], d.Weights[:0], d.arena[:0]
}

// internCores copies a core list into an arena, returning the grown arena and
// a capacity-clipped view that later arena appends cannot alias.
func internCores(arena []arch.CoreID, cs ...arch.CoreID) ([]arch.CoreID, []arch.CoreID) {
	start := len(arena)
	arena = append(arena, cs...)
	return arena, arena[start:len(arena):len(arena)]
}

// fdCtrl converts an FD value to the noc controller convention.
func fdCtrl(v int) int {
	if v == FDInterleave {
		return -1
	}
	return v - 1
}

// Analyze parses group gi of the scheme into a fresh Analysis — AnalyzeInto,
// then the sorted ActFlows and the ByLayer and Works maps that the
// inspection consumers (reports, instruction generation, simulation
// cross-checks) read. The scheme must have passed Validate.
func Analyze(s *Scheme, gi int, cfg *arch.Config) (*Analysis, error) {
	an := new(Analysis)
	if err := AnalyzeInto(an, s, gi, cfg); err != nil {
		return nil, err
	}
	an.sortActFlows()
	// Each layer's workloads occupy a contiguous range of PW indices, so the
	// ByLayer values are views of one identity index slice.
	idx := make([]int, len(an.PWs))
	for i := range idx {
		idx[i] = i
	}
	lms := s.Groups[gi]
	an.ByLayer = make(map[int][]int, len(lms.MSs))
	for _, ms := range lms.MSs {
		st := an.layers[ms.Layer]
		an.ByLayer[ms.Layer] = idx[st.lo:st.hi:st.hi]
	}
	an.Works = make(map[arch.CoreID]intracore.Workload, len(an.PWs))
	for c, occ := range an.Occupied {
		if occ {
			an.Works[arch.CoreID(c)] = an.CoreWorks[c]
		}
	}
	return an, nil
}

// reset prepares a (possibly reused) Analysis for a new parse of a group of
// a graph with nLayers layers on cores cores, recycling every buffer it has
// grown so far.
func (an *Analysis) reset(lms *LMS, gi, nLayers, cores int) {
	an.GroupIndex = gi
	an.BatchUnit = lms.BatchUnit
	an.edges.Reset()
	an.dram.Reset()
	an.Depth = 0
	for _, id := range an.parsed {
		an.layers[id] = layerState{}
	}
	an.parsed = an.parsed[:0]
	if len(an.layers) < nLayers {
		an.layers = append(an.layers, make([]layerState, nLayers-len(an.layers))...)
	}
	an.lps = resize(an.lps, len(lms.MSs))
	if cap(an.Occupied) < cores {
		an.Occupied = make([]bool, cores)
		an.CoreWorks = make([]intracore.Workload, cores)
	}
	an.Occupied = an.Occupied[:cores]
	an.CoreWorks = an.CoreWorks[:cores]
	clear(an.Occupied)
}

// AnalyzeInto parses group gi of the scheme into an, reusing an's buffers.
// It is the allocation-free core of the Evaluator's hot loop: after warm-up
// a parse touches no heap and no map, and visits nothing outside the group
// but the producers its inputs name. It runs the LayerParse steps for every
// layer: Parse, then AppendEdgeFlows for every input produced in the group,
// then AppendDRAM in ascending layer order. The scheme must have
// passed Validate; a core assigned twice is an error, but Depth, which
// depends on the group's layers alone, is set even then.
func AnalyzeInto(an *Analysis, s *Scheme, gi int, cfg *arch.Config) error {
	lms := s.Groups[gi]
	g := s.Graph
	an.reset(lms, gi, len(g.Layers), cfg.Cores())

	// Workloads, consumer needs and per-workload work. Each layer's workloads
	// occupy a contiguous range of PW indices.
	an.carve(g, lms)
	start := 0
	for i, ms := range lms.MSs {
		lp := &an.lps[i]
		lp.Parse(g, ms, lms.BatchUnit)
		an.layers[ms.Layer] = layerState{lo: int32(start), hi: int32(start + len(lp.PWs)), ms: int32(i)}
		an.parsed = insertSorted(an.parsed, ms.Layer)
		start += len(lp.PWs)
	}
	an.PWs = an.pwArena[:start]

	// Activation flows of every edge whose producer is in the group.
	for i, ms := range lms.MSs {
		for k, edge := range g.Layer(ms.Layer).Inputs {
			if edge.Src >= 0 && an.layers[edge.Src].inGroup() {
				an.lps[i].AppendEdgeFlows(&an.edges, k, an.layerPWs(edge.Src))
			}
		}
	}

	// DRAM reads, ofmap writes and weight loads.
	for _, id := range an.parsed {
		i := an.layers[id].ms
		an.lps[i].AppendDRAM(&an.dram, s, lms, lms.MSs[i])
	}
	an.ActFlows, an.ActDRAM, an.WeightFlows = an.edges.Flows, an.dram.Act, an.dram.Weights
	an.Depth = an.groupDepth(g)

	// Dense per-core tables.
	for i := range lms.MSs {
		lp := &an.lps[i]
		for pi := range lp.PWs {
			pw := &lp.PWs[pi]
			if an.Occupied[pw.Core] {
				return fmt.Errorf("core: core %d assigned twice (%v and layer %d)", pw.Core, an.CoreWorks[pw.Core].Kind, pw.Layer)
			}
			an.Occupied[pw.Core] = true
			an.CoreWorks[pw.Core] = lp.Works[pi]
		}
	}
	return nil
}

// carve hands every layer of the group its parse buffers as views of the
// arenas, each as long as Parse can fill: a layer's workloads follow the
// previous layer's, so the PW arena's prefix is the group's PWs in MS order.
// A fresh Analysis so grows in one allocation per arena, not several per
// layer.
func (an *Analysis) carve(g *dnn.Graph, lms *LMS) {
	var pws, needs, ints int
	for _, ms := range lms.MSs {
		n, e := ms.Part.N(), len(g.Layer(ms.Layer).Inputs)
		pws, needs, ints = pws+n, needs+e*n, ints+e*n+e+1+n
	}
	an.pwArena = resize(an.pwArena, pws)
	an.workArena = resize(an.workArena, pws)
	an.needArena = resize(an.needArena, needs)
	an.indexArena = resize(an.indexArena, ints)
	pws, needs, ints = 0, 0, 0
	for i, ms := range lms.MSs {
		n, e := ms.Part.N(), len(g.Layer(ms.Layer).Inputs)
		lp := &an.lps[i]
		lp.PWs, lp.Works = an.pwArena[pws:pws:pws+n], an.workArena[pws:pws:pws+n]
		lp.needs = an.needArena[needs : needs : needs+e*n]
		lp.needPWs = an.indexArena[ints : ints : ints+e*n]
		lp.edge = an.indexArena[ints+e*n : ints+e*n : ints+e*n+e+1]
		lp.needOf = an.indexArena[ints+e*n+e+1 : ints+e*n+e+1 : ints+e*n+e+1+n]
		pws, needs, ints = pws+n, needs+e*n, ints+e*n+e+1+n
	}
}

// insertSorted inserts v into the ascending list s.
func insertSorted(s []int, v int) []int {
	j := len(s)
	s = append(s, v)
	for ; j > 0 && s[j-1] > v; j-- {
		s[j] = s[j-1]
	}
	s[j] = v
	return s
}

// layerPWs returns the partitioned workloads of a layer of the parsed group
// (none for a layer outside it).
func (an *Analysis) layerPWs(layer int) []PW {
	st := an.layers[layer]
	return an.PWs[st.lo:st.hi]
}

// Parse is the first parse step for layer ms of a group at batch unit bu: the
// layer's partitioned workloads under the correspondence rule, what each
// input edge needs of them — grouped by identical region, the unit of
// multicast dedup — and each workload's intra-core work, its input bytes
// summed over the edges. It reads nothing but the layer's MS and the graph.
func (lp *LayerParse) Parse(g *dnn.Graph, ms *MS, bu int) {
	l := g.Layer(ms.Layer)
	p := ms.Part
	// Workloads are written in place: the structs are large enough that a
	// composite literal's copy shows in the SA profile.
	lp.PWs = resize(lp.PWs, p.N())
	for h := 0; h < p.H; h++ {
		for w := 0; w < p.W; w++ {
			for b := 0; b < p.B; b++ {
				for k := 0; k < p.K; k++ {
					nid := p.NID(h, w, b, k)
					pw := &lp.PWs[nid]
					pw.Layer, pw.Core = ms.Layer, ms.CG[nid]
					pw.HR, pw.WR, pw.BR, pw.KR = p.Ranges(l, bu, h, w, b, k)
				}
			}
		}
	}

	perK := int64(0)
	if l.HasWeights {
		perK = l.WeightVol() / int64(l.OK)
	}
	lp.Works = resize(lp.Works, len(lp.PWs))
	for i := range lp.PWs {
		pw, w := &lp.PWs[i], &lp.Works[i]
		vol := pw.Vol()
		w.Kind = l.Kind
		w.H, w.W, w.B, w.K = pw.HR.Len(), pw.WR.Len(), pw.BR.Len(), pw.KR.Len()
		w.IC, w.R, w.S = reducedChannels(l), max(l.R, 1), max(l.S, 1)
		w.Groups = 1 // IC already reduced per output channel
		w.MACs, w.VecOps = partMACs(l, vol), partVecOps(l, vol)
		w.InBytes = 0
		w.WBytes = perK * int64(pw.KR.Len()) * dnn.ElemBytes
		w.OutBytes = vol * dnn.ElemBytes
	}

	// Each edge has at most one need, and one entry in needPWs, per workload:
	// sizing the buffers up front grows a fresh LayerParse in one step.
	if most := len(l.Inputs) * len(lp.PWs); cap(lp.needs) < most {
		lp.needs, lp.needPWs = make([]needEntry, 0, most), make([]int32, 0, most)
	}
	lp.needs, lp.needPWs = lp.needs[:0], lp.needPWs[:0]
	lp.edge = append(lp.edge[:0], 0)
	for _, edge := range l.Inputs {
		lp.edgeNeeds(g, l, edge)
		lp.edge = append(lp.edge, int32(len(lp.needs)))
	}
}

// Relabel makes lp the parse of ms given from, the parse of an MS of the same
// layer with the same Part at the same batch unit. Everything Parse derives
// but the workloads' cores is a function of the layer, the Part and the batch
// unit, so it is from's; the cores are ms's. It is how a move that only
// permutes cores (OP2, OP3) is parsed without deriving any region again.
func (lp *LayerParse) Relabel(from *LayerParse, ms *MS) {
	lp.PWs = append(lp.PWs[:0], from.PWs...)
	for i := range lp.PWs {
		lp.PWs[i].Core = ms.CG[i]
	}
	lp.Works = append(lp.Works[:0], from.Works...)
	lp.needs = append(lp.needs[:0], from.needs...)
	lp.edge = append(lp.edge[:0], from.edge...)
	lp.needPWs = append(lp.needPWs[:0], from.needPWs...)
}

// edgeNeeds appends the needs of one input edge: what the layer's workloads
// read through it, grouped by region, each read added to its workload's
// InBytes.
func (lp *LayerParse) edgeNeeds(g *dnn.Graph, l *dnn.Layer, edge dnn.Input) {
	srcOH, srcOW, srcOK := l.IH(), l.IW(), l.IC
	if edge.Src != dnn.ExternalInput {
		pl := g.Layer(edge.Src)
		srcOH, srcOW, srcOK = pl.OH, pl.OW, pl.OK
	}
	first := len(lp.needs)
	lp.needOf = resize(lp.needOf, len(lp.PWs))
	for pi := range lp.PWs {
		pw := &lp.PWs[pi]
		reg := l.NeededRegion(edge, pw.HR, pw.WR, pw.BR, pw.KR, srcOH, srcOW, srcOK)
		v := reg.Vol()
		if v == 0 {
			lp.needOf[pi] = -1
			continue
		}
		lp.Works[pi].InBytes += v * dnn.ElemBytes
		ni := -1
		for i := first; i < len(lp.needs); i++ {
			if lp.needs[i].region == reg {
				ni = i
				break
			}
		}
		if ni < 0 {
			lp.needs = append(lp.needs, needEntry{region: reg})
			ni = len(lp.needs) - 1
		}
		lp.needs[ni].hi++ // a count until the offsets are laid out below
		lp.needOf[pi] = int32(ni)
	}
	off := int32(len(lp.needPWs))
	for i := first; i < len(lp.needs); i++ {
		n := &lp.needs[i]
		n.lo, n.hi, off = off, off, off+n.hi
	}
	if int(off) > cap(lp.needPWs) { // grow keeping the earlier edges' entries
		lp.needPWs = slices.Grow(lp.needPWs, int(off)-len(lp.needPWs))
	}
	lp.needPWs = lp.needPWs[:off]
	for pi, ni := range lp.needOf {
		if ni >= 0 {
			n := &lp.needs[ni]
			lp.needPWs[n.hi] = int32(pi)
			n.hi++
		}
	}
}

// edgeNeedsOf returns the needs of input edge k.
func (lp *LayerParse) edgeNeedsOf(k int) []needEntry { return lp.needs[lp.edge[k]:lp.edge[k+1]] }

// AppendEdgeFlows is the second parse step, for input edge k of the parsed
// layer, whose producer — with workloads prod — is in the group: each
// consumer need is intersected with every producer workload's owned region,
// and identical payloads from one producer core to several consumers become
// one multicast flow, appended to ef.
func (lp *LayerParse) AppendEdgeFlows(ef *EdgeFlows, k int, prod []PW) {
	needs := lp.edgeNeedsOf(k)
	for i := range needs {
		n := &needs[i]
		for qi := range prod {
			q := &prod[qi]
			v := overlap(n.region.H, q.HR)
			if v != 0 {
				v *= overlap(n.region.W, q.WR)
			}
			if v != 0 {
				v *= overlap(n.region.B, q.BR) * overlap(n.region.K, q.KR)
			}
			if v == 0 {
				continue
			}
			start := len(ef.arena)
			for _, pi := range lp.needPWs[n.lo:n.hi] {
				if c := lp.PWs[pi].Core; c != q.Core {
					ef.arena = append(ef.arena, c)
				}
			}
			if len(ef.arena) == start {
				continue // produced and consumed on the same core
			}
			ef.Flows = append(ef.Flows, CoreFlow{
				Src:   q.Core,
				Dsts:  ef.arena[start:len(ef.arena):len(ef.arena)],
				Bytes: float64(v) * dnn.ElemBytes,
			})
		}
	}
}

// overlap returns the length of the intersection of a and b.
func overlap(a, b dnn.Range) int64 {
	return int64(a.Intersect(b).Len())
}

// AppendDRAM is the last parse step, for the parsed layer as MS ms of group
// lms of s: into d.Act the DRAM reads of every input not produced in the
// group — from the DNN input's explicit IF, or from the DRAM where the
// cross-group producer stored its ofmaps, interleaved for a producer in no
// group or without an explicit destination — then the explicit ofmap writes;
// into d.Weights the weight loads, grouped by K-range so replicated slices
// multicast.
func (lp *LayerParse) AppendDRAM(d *DRAMLists, s *Scheme, lms *LMS, ms *MS) {
	l := s.Graph.Layer(ms.Layer)
	var cores []arch.CoreID
	for k, edge := range l.Inputs {
		ctrl := -1
		if edge.Src == dnn.ExternalInput {
			ctrl = fdCtrl(ms.FD.IF)
		} else if lms.MSFor(edge.Src) != nil {
			continue // in-group: AppendEdgeFlows
		} else if of := s.ProducerOF(edge.Src); of != FDImplicit {
			ctrl = fdCtrl(of)
		}
		needs := lp.edgeNeedsOf(k)
		for i := range needs {
			n := &needs[i]
			start := len(d.arena)
			for _, pi := range lp.needPWs[n.lo:n.hi] {
				d.arena = append(d.arena, lp.PWs[pi].Core)
			}
			cores = d.arena[start:len(d.arena):len(d.arena)]
			d.Act = append(d.Act, DRAMFlow{
				Layer: ms.Layer,
				Ctrl:  ctrl,
				Cores: cores,
				Bytes: float64(n.region.Vol()) * dnn.ElemBytes,
			})
		}
	}
	if ms.FD.OF != FDImplicit {
		for i := range lp.PWs {
			pw := &lp.PWs[i]
			d.arena, cores = internCores(d.arena, pw.Core)
			d.Act = append(d.Act, DRAMFlow{
				Layer: ms.Layer,
				Ctrl:  fdCtrl(ms.FD.OF),
				Cores: cores,
				Bytes: float64(pw.Vol()) * dnn.ElemBytes,
				Write: true,
			})
		}
	}

	if l.HasWeights {
		perK := l.WeightVol() / int64(l.OK)
		d.klists = d.klists[:0]
		for pi := range lp.PWs {
			pw := &lp.PWs[pi]
			ki := -1
			for i := range d.klists {
				if d.klists[i].kr == pw.KR {
					ki = i
					break
				}
			}
			if ki < 0 {
				d.klists = growKR(d.klists, pw.KR)
				ki = len(d.klists) - 1
			}
			d.klists[ki].cores = appendUnique(d.klists[ki].cores, pw.Core)
		}
		for i := range d.klists {
			kl := &d.klists[i]
			d.arena, cores = internCores(d.arena, kl.cores...)
			d.Weights = append(d.Weights, DRAMFlow{
				Layer: ms.Layer,
				Ctrl:  fdCtrl(ms.FD.WGT),
				Cores: cores,
				Bytes: float64(perK*int64(kl.kr.Len())) * dnn.ElemBytes,
			})
		}
	}
}

// growKR extends the klists buffer by one entry for kr, recycling the cores
// backing of a previously used slot when available.
func growKR(buf []krEntry, kr dnn.Range) []krEntry {
	if len(buf) < cap(buf) {
		buf = buf[:len(buf)+1]
	} else {
		buf = append(buf, krEntry{})
	}
	e := &buf[len(buf)-1]
	e.kr = kr
	e.cores = e.cores[:0]
	return buf
}

// coreCmp orders core lists lexicographically, a prefix before its extensions.
func coreCmp(a, b []arch.CoreID) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// sortActFlows puts ActFlows in one order (source, bytes, destinations) for
// the inspection consumers. The Evaluator does not need it: every flow's bytes
// are an integer (dnn.ElemBytes is 1), so the loads it adds them into are
// exact in any order.
func (an *Analysis) sortActFlows() {
	slices.SortFunc(an.ActFlows, func(x, y CoreFlow) int {
		if x.Src != y.Src {
			if x.Src < y.Src {
				return -1
			}
			return 1
		}
		if x.Bytes != y.Bytes {
			if x.Bytes < y.Bytes {
				return -1
			}
			return 1
		}
		return coreCmp(x.Dsts, y.Dsts)
	})
}

// reducedChannels returns the input channels reduced per output element.
func reducedChannels(l *dnn.Layer) int {
	switch l.Kind {
	case dnn.Conv:
		gr := l.Groups
		if gr <= 0 {
			gr = 1
		}
		return max(l.IC/gr, 1)
	case dnn.FC, dnn.MatMul:
		return l.IC
	default:
		return 1
	}
}

// partMACs returns the exact MAC count of an output sub-volume.
func partMACs(l *dnn.Layer, vol int64) int64 {
	switch l.Kind {
	case dnn.Conv:
		return vol * int64(reducedChannels(l)) * int64(l.R) * int64(l.S)
	case dnn.FC, dnn.MatMul:
		return vol * int64(l.IC)
	}
	return 0
}

// partVecOps returns the vector-unit operations of an output sub-volume.
func partVecOps(l *dnn.Layer, vol int64) int64 {
	switch l.Kind {
	case dnn.Pool:
		return vol * int64(l.R) * int64(l.S)
	case dnn.Eltwise:
		return vol * int64(max(len(l.Inputs), 2))
	case dnn.Softmax:
		return vol * 3
	}
	return vol * int64(l.FusedOps)
}

// groupDepth returns the longest dependency chain within the parsed group.
// Layer IDs are topological, so walking the group's ID span in order sees
// every in-group producer before its consumers.
func (an *Analysis) groupDepth(g *dnn.Graph) int {
	if len(an.parsed) == 0 {
		return 0
	}
	lo, hi := an.parsed[0], an.parsed[0]
	for _, id := range an.parsed[1:] {
		lo, hi = min(lo, id), max(hi, id)
	}
	best := int32(0)
	for id := lo; id <= hi; id++ {
		st := &an.layers[id]
		if !st.inGroup() {
			continue
		}
		d := int32(1)
		for _, in := range g.Layers[id].Inputs {
			if in.Src >= 0 {
				if pd := an.layers[in.Src].depth; pd+1 > d {
					d = pd + 1
				}
			}
		}
		st.depth = d
		if d > best {
			best = d
		}
	}
	return int(best)
}

func appendUnique(s []arch.CoreID, c arch.CoreID) []arch.CoreID {
	for _, v := range s {
		if v == c {
			return s
		}
	}
	return append(s, c)
}
