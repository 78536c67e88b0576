package eval

import (
	"slices"
	"sort"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/intracore"
	"gemini/internal/noc"
)

// GroupDelta is one layer group's evaluation kept as per-layer pieces, so an
// SA move recomputes only what it changed — one or two layers of the group's
// five or so — and folds the rest. A piece is what the core.LayerParse steps
// derive for one layer (its workloads, their intra-core exploration, its DRAM
// flows) or for one in-group edge (its activation flows). The group's traffic is kept whole, per pass and load
// once: noc.Traffic loads are exact integers in any order, so an evaluation
// takes back the changed edges' multicast trees and the changed layers' DRAM
// flows and adds their new ones, and the loads end as if routed from scratch.
// What is not an integer sum — the per-core energies and utilization — is
// folded again on every evaluation in the order summarizeAnalysis folds it, so
// the summary equals summarizeGroup's from scratch bit for bit.
//
// A GroupDelta holds two states over double-buffered pieces: the current one,
// computed for the group as the scheme has it, and a spare that an evaluation
// computes the tried move into — the current state's pieces, with the changed
// ones recomputed into the other buffer of each. Settle keeps the spare as the
// new current state when the move is accepted. Nothing goes through the
// evaluator's Cache: a move's summary is almost never asked for again, so it
// is computed every time and never stored. A GroupDelta belongs to the
// evaluator that made it and to one goroutine; group membership must not
// change.
type GroupDelta struct {
	gi     int
	depth  int
	layers []deltaLayer // by MS index
	edges  []deltaEdge  // every edge whose producer and consumer are in the group

	st      [2]deltaState
	cur     int          // st[cur] is the current state, st[1-cur] the spare
	pending []uint8      // by MS index: what the move being tried changed
	sum     groupSummary // what the last evaluation computed

	owner []coreOwner // by core: the fold's scratch
	split weightSplit
	was   []bool // by core: the old parse's weight residency
}

// deltaLayer is a layer's two buffers of each kind of piece: its parse, and
// its DRAM flows.
type deltaLayer struct {
	geom [2]layerGeom
	dram [2]core.DRAMLists
}

// layerGeom is a layer's parse under Part part with the exploration of each
// workload: res[i] is Memo.Explore of Works[i].
type layerGeom struct {
	core.LayerParse
	part core.Part
	res  []intracore.Result
}

// deltaEdge is input k of layer cons produced by layer prod (MS indices), with
// two buffers of its activation flows.
type deltaEdge struct {
	prod, cons, k int
	flows         [2]core.EdgeFlows
}

// deltaState selects one buffer of every piece — geom and dram by MS index,
// edge by edge index — and holds the selected pieces' traffic, per pass in tr
// and load once in once.
type deltaState struct {
	geom, dram, edge []uint8
	tr, once         *noc.Traffic
}

// Stale marks: a changed Part or core group invalidates every piece of the
// layer and of its edges; a changed flow-of-data entry only its DRAM flows.
const (
	staleGeom uint8 = 1 << iota
	staleDRAM
)

// coreOwner names the workload on a core: ms is the MS index plus one (zero
// for a free core), pw the index into that layer's workloads.
type coreOwner struct{ ms, pw int32 }

// NewGroupDelta sets up the delta evaluation of group gi of s on this
// evaluator: it computes the whole group into the current state, without
// asking or filling the cache, and returns the group's evaluation, which is
// EvaluateGroup's.
func (e *Evaluator) NewGroupDelta(s *core.Scheme, gi int) (*GroupDelta, GroupResult) {
	lms := s.Groups[gi]
	n := len(lms.MSs)
	d := &GroupDelta{
		gi:      gi,
		layers:  make([]deltaLayer, n),
		pending: make([]uint8, n),
		owner:   make([]coreOwner, e.Cfg.Cores()),
		split:   weightSplit{resident: make([]bool, e.Cfg.Cores())},
		was:     make([]bool, e.Cfg.Cores()),
	}
	for c, ms := range lms.MSs {
		for k, edge := range s.Graph.Layer(ms.Layer).Inputs {
			if p := lms.IndexOf(edge.Src); edge.Src >= 0 && p >= 0 {
				d.edges = append(d.edges, deltaEdge{prod: p, cons: c, k: k})
			}
		}
	}
	for i := range d.st {
		d.st[i] = deltaState{
			geom: make([]uint8, n), dram: make([]uint8, n), edge: make([]uint8, len(d.edges)),
			tr: e.Net.NewTraffic(), once: e.Net.NewTraffic(),
		}
	}
	// The pipeline depth, the longest chain of in-group edges: layer IDs are
	// topological, so visiting the MSs by ascending layer visits every
	// producer before its consumers.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return lms.MSs[order[a]].Layer < lms.MSs[order[b]].Layer })
	depth := make([]int, n)
	for _, c := range order {
		depth[c] = 1
		for _, ed := range d.edges {
			if ed.cons == c {
				depth[c] = max(depth[c], depth[ed.prod]+1)
			}
		}
		d.depth = max(d.depth, depth[c])
	}
	// Every piece changed from the empty state: the group whole.
	for i := range d.pending {
		d.pending[i] = staleGeom
	}
	res := e.EvaluateGroupDelta(d, s)
	d.Settle(true)
	return d, res
}

// Changed marks MS ms of the group as changed in its Part or core group by
// the move being tried.
func (d *GroupDelta) Changed(ms int) { d.pending[ms] |= staleGeom }

// ChangedFD marks MS ms of the group as reading or writing other DRAM under
// the move being tried: one of its flow-of-data entries changed, or, for a
// layer reading an input produced in another group, that producer's ofmap
// destination.
func (d *GroupDelta) ChangedFD(ms int) { d.pending[ms] |= staleDRAM }

// Settle ends the move being tried on the group, which the scheme keeps if
// accept: a kept move makes the spare, which EvaluateGroupDelta computed it
// into, the current state.
func (d *GroupDelta) Settle(accept bool) {
	if accept {
		d.cur = 1 - d.cur
	}
	clear(d.pending)
}

// Computed returns the summary the last EvaluateGroupDelta computed.
func (d *GroupDelta) Computed() Summary { return d.sum }

// EvaluateGroupDelta is EvaluateGroup for the group d evaluates, as the
// scheme has it under the move being tried, computed through the delta path
// without asking or filling the cache.
func (e *Evaluator) EvaluateGroupDelta(d *GroupDelta, s *core.Scheme) (res GroupResult) {
	e.summarizeDelta(d, s)
	e.finish(&d.sum, s.Batch, &res)
	return
}

// summarizeDelta computes the group's summary into the spare state, and into
// d.sum: the current state's pieces and traffic, with every changed piece
// recomputed and its traffic swapped.
func (e *Evaluator) summarizeDelta(d *GroupDelta, s *core.Scheme) {
	cur, sp := &d.st[d.cur], &d.st[1-d.cur]
	copy(sp.geom, cur.geom)
	copy(sp.dram, cur.dram)
	copy(sp.edge, cur.edge)
	sp.tr.CopyFrom(cur.tr)
	sp.once.CopyFrom(cur.once)
	lms := s.Groups[d.gi]
	cp := e.coreParams()
	for i, ms := range lms.MSs {
		if d.pending[i]&staleGeom == 0 {
			continue
		}
		b := 1 - cur.geom[i]
		lg, old := &d.layers[i].geom[b], &d.layers[i].geom[cur.geom[i]]
		sp.geom[i] = b
		lg.part = ms.Part
		if old.part == ms.Part {
			// Only cores moved: the workloads and their explorations are
			// the old parse's.
			lg.Relabel(&old.LayerParse, ms)
			lg.res = append(lg.res[:0], old.res...)
			continue
		}
		lg.Parse(s.Graph, ms, lms.BatchUnit)
		lg.res = lg.res[:0]
		for w := range lg.Works {
			lg.res = append(lg.res, e.cache.memo.Explore(lg.Works[w], cp))
		}
	}
	// The changed edges' multicast trees, swapped.
	for ei := range d.edges {
		ed := &d.edges[ei]
		if (d.pending[ed.prod]|d.pending[ed.cons])&staleGeom == 0 {
			continue
		}
		b := 1 - cur.edge[ei]
		old, ef := &ed.flows[cur.edge[ei]], &ed.flows[b]
		ef.Reset()
		d.geom(sp, ed.cons).AppendEdgeFlows(ef, ed.k, d.geom(sp, ed.prod).PWs)
		// A move that only permutes cores leaves an edge's flows in the same
		// order, most of them unchanged: only those that differ are routed.
		for j := range ef.Flows {
			f := &ef.Flows[j]
			if j < len(old.Flows) {
				o := &old.Flows[j]
				if o.Src == f.Src && o.Bytes == f.Bytes && slices.Equal(o.Dsts, f.Dsts) {
					continue
				}
				sp.tr.Multicast(o.Src, o.Dsts, -o.Bytes)
			}
			sp.tr.Multicast(f.Src, f.Dsts, f.Bytes)
		}
		for _, o := range old.Flows[min(len(ef.Flows), len(old.Flows)):] {
			sp.tr.Multicast(o.Src, o.Dsts, -o.Bytes)
		}
		sp.edge[ei] = b
	}
	// The changed layers' DRAM flows, swapped flow by flow as the edges'
	// are: a flow equal to the old one at its index is left routed. Weight
	// slices split by the residency of their own layer's workloads, the old
	// parse's (was) for what is taken back and the new one's for what is
	// added, so an unchanged weight flow stays only if no core of it changed
	// residency. Flows are compared, not pending marks: a flow-of-data move
	// keeps the parse but may re-source the weights.
	for i, ms := range lms.MSs {
		if d.pending[i] == 0 {
			continue
		}
		b := 1 - cur.dram[i]
		old, dl := &d.layers[i].dram[cur.dram[i]], &d.layers[i].dram[b]
		dl.Reset()
		lg := d.geom(sp, i)
		lg.AppendDRAM(dl, s, lms, ms)
		sp.dram[i] = b
		for j := range max(len(old.Act), len(dl.Act)) {
			if j < len(old.Act) && j < len(dl.Act) && sameLoad(&old.Act[j], &dl.Act[j]) {
				continue
			}
			if j < len(old.Act) {
				addDRAMFlow(sp.tr, &old.Act[j], -1)
			}
			if j < len(dl.Act) {
				addDRAMFlow(sp.tr, &dl.Act[j], 1)
			}
		}
		d.geom(cur, i).residency(d.was)
		lg.residency(d.split.resident)
		for j := range max(len(old.Weights), len(dl.Weights)) {
			if j < len(old.Weights) && j < len(dl.Weights) && sameLoad(&old.Weights[j], &dl.Weights[j]) &&
				sameResidency(d.was, d.split.resident, dl.Weights[j].Cores) {
				continue
			}
			if j < len(old.Weights) {
				d.split.weight(sp.tr, sp.once, &old.Weights[j], d.was, -1)
			}
			if j < len(dl.Weights) {
				d.split.weight(sp.tr, sp.once, &dl.Weights[j], d.split.resident, 1)
			}
		}
	}
	d.sum = e.foldDelta(d, sp, lms.BatchUnit)
}

// residency records the weight residency of lg's workloads by core.
func (lg *layerGeom) residency(resident []bool) {
	for pi, pw := range lg.PWs {
		resident[pw.Core] = lg.res[pi].WeightsResident
	}
}

// sameLoad reports whether two DRAM flows move the same bytes the same way
// between the same controller and cores.
func sameLoad(o, f *core.DRAMFlow) bool {
	return o.Ctrl == f.Ctrl && o.Write == f.Write && o.Bytes == f.Bytes && slices.Equal(o.Cores, f.Cores)
}

// sameResidency reports whether every one of cores is resident under was
// exactly when it is under is.
func sameResidency(was, is []bool, cores []arch.CoreID) bool {
	for _, c := range cores {
		if was[c] != is[c] {
			return false
		}
	}
	return true
}

// geom returns the parse of MS i that state st selects.
func (d *GroupDelta) geom(st *deltaState, i int) *layerGeom { return &d.layers[i].geom[st.geom[i]] }

// foldDelta folds state st's pieces into a summary as summarizeAnalysis does:
// the occupied cores in ascending order, then st's traffic. A core hosting
// two workloads makes the group infeasible, as it makes core.AnalyzeInto
// reject it.
func (e *Evaluator) foldDelta(d *GroupDelta, st *deltaState, bu int) groupSummary {
	clear(d.owner)
	for i := range d.layers {
		for pi, pw := range d.geom(st, i).PWs {
			if d.owner[pw.Core].ms != 0 {
				return groupSummary{}
			}
			d.owner[pw.Core] = coreOwner{ms: int32(i) + 1, pw: int32(pi)}
		}
	}
	f := coreFold{sum: groupSummary{groupScalars: groupScalars{Feasible: true, BatchUnit: bu, Depth: d.depth}}}
	for _, o := range d.owner {
		if o.ms == 0 {
			continue
		}
		lg := d.geom(st, int(o.ms-1))
		if !e.foldCore(&f, &lg.Works[o.pw], &lg.res[o.pw]) {
			return groupSummary{}
		}
	}
	return f.summary(st.tr, st.once)
}
