package core

import (
	"fmt"
	"math"
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
	// WeightFlows are in canonical order (layer, controller, reads before
	// writes, bytes, cores); ActFlows are in emission order unless the
	// Analysis came from Analyze.
	ActFlows []CoreFlow
	ActDRAM  []DRAMFlow

	// WeightFlows load each layer's weight slices; the Evaluator applies
	// them once per run for GLB-resident weights or once per pass when a
	// core must stream them.
	WeightFlows []DRAMFlow

	// Depth is the pipeline depth (longest dependency chain) of the group.
	Depth int

	// Reusable scratch. coreArena backs the Cores/Dsts slices of the
	// emitted flows. layers is indexed by layer ID and holds entries only
	// for the layers of the last parsed group, which parsed lists so the
	// next parse clears exactly those.
	coreArena []arch.CoreID
	layers    []layerState
	parsed    []int
	inBytes   []int64 // indexed by CoreID
	needs     []needEntry
	klists    []krEntry
	dramKeys  []dramKey
	dramBuf   []DRAMFlow
}

// layerState is what a parse knows about one layer of the group: its PW index
// range [lo,hi) and its pipeline depth. The zero value means "not in this
// group" (a mapped layer has at least one workload).
type layerState struct {
	lo, hi int32
	depth  int32
}

func (st layerState) inGroup() bool { return st.hi > st.lo }

// needEntry groups the consumer cores that fetch one identical input region
// (the unit of multicast dedup). The small per-edge set is kept as a slice
// with linear lookup: it is bounded by the group's core count and a slice
// both avoids map allocation churn and keeps emission order deterministic.
type needEntry struct {
	region dnn.EdgeRegion
	cores  []arch.CoreID
}

// krEntry groups the cores sharing one weight K-range slice.
type krEntry struct {
	kr    dnn.Range
	cores []arch.CoreID
}

// internCores copies a core list into the analysis arena, returning a
// capacity-clipped view that later arena appends cannot alias.
func (an *Analysis) internCores(cs ...arch.CoreID) []arch.CoreID {
	start := len(an.coreArena)
	an.coreArena = append(an.coreArena, cs...)
	return an.coreArena[start:len(an.coreArena):len(an.coreArena)]
}

// fdCtrl converts an FD value to the noc controller convention.
func fdCtrl(v int) int {
	if v == FDInterleave {
		return -1
	}
	return v - 1
}

// Analyze parses group gi of the scheme into a fresh Analysis — AnalyzeInto,
// then the canonical ActFlows order and the ByLayer and Works maps that the
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
	an.PWs = an.PWs[:0]
	an.ActFlows = an.ActFlows[:0]
	an.ActDRAM = an.ActDRAM[:0]
	an.WeightFlows = an.WeightFlows[:0]
	an.coreArena = an.coreArena[:0]
	an.Depth = 0
	for _, id := range an.parsed {
		an.layers[id] = layerState{}
	}
	an.parsed = an.parsed[:0]
	if len(an.layers) < nLayers {
		an.layers = append(an.layers, make([]layerState, nLayers-len(an.layers))...)
	}
	if cap(an.inBytes) < cores {
		an.inBytes = make([]int64, cores)
		an.Occupied = make([]bool, cores)
		an.CoreWorks = make([]intracore.Workload, cores)
	}
	an.inBytes = an.inBytes[:cores]
	an.Occupied = an.Occupied[:cores]
	an.CoreWorks = an.CoreWorks[:cores]
	clear(an.inBytes)
	clear(an.Occupied)
}

// AnalyzeInto parses group gi of the scheme into an, reusing an's buffers.
// It is the allocation-free core of the Evaluator's hot loop: after warm-up
// a parse touches no heap and no map, and visits nothing outside the group
// but the producers its inputs name. The scheme must have passed Validate.
func AnalyzeInto(an *Analysis, s *Scheme, gi int, cfg *arch.Config) error {
	lms := s.Groups[gi]
	g := s.Graph
	bu := lms.BatchUnit
	an.reset(lms, gi, len(g.Layers), cfg.Cores())

	// Enumerate partitioned workloads per the correspondence rule. Each
	// layer's workloads occupy a contiguous range of PW indices.
	for _, ms := range lms.MSs {
		l := g.Layer(ms.Layer)
		p := ms.Part
		start := len(an.PWs)
		for h := 0; h < p.H; h++ {
			for w := 0; w < p.W; w++ {
				for b := 0; b < p.B; b++ {
					for k := 0; k < p.K; k++ {
						hr, wr, br, kr := p.Ranges(l, bu, h, w, b, k)
						an.PWs = append(an.PWs, PW{
							Layer: ms.Layer,
							Core:  ms.CG[p.NID(h, w, b, k)],
							HR:    hr, WR: wr, BR: br, KR: kr,
						})
					}
				}
			}
		}
		an.layers[ms.Layer] = layerState{lo: int32(start), hi: int32(len(an.PWs))}
		an.parsed = append(an.parsed, ms.Layer)
	}

	// Infer activation flows for every consumer edge.
	for _, ms := range lms.MSs {
		l := g.Layer(ms.Layer)
		for _, edge := range l.Inputs {
			an.analyzeEdge(s, l, ms, edge)
		}
		// Explicit ofmap writes to DRAM.
		if ms.FD.OF != FDImplicit {
			pws := an.layerPWs(ms.Layer)
			for i := range pws {
				pw := &pws[i]
				an.ActDRAM = append(an.ActDRAM, DRAMFlow{
					Layer: ms.Layer,
					Ctrl:  fdCtrl(ms.FD.OF),
					Cores: an.internCores(pw.Core),
					Bytes: float64(pw.Vol()) * dnn.ElemBytes,
					Write: true,
				})
			}
		}
	}

	// Weight loads, grouped by K-range so replicated slices multicast.
	for _, ms := range lms.MSs {
		l := g.Layer(ms.Layer)
		if !l.HasWeights {
			continue
		}
		perK := l.WeightVol() / int64(l.OK)
		an.klists = an.klists[:0]
		pws := an.layerPWs(ms.Layer)
		for pi := range pws {
			pw := &pws[pi]
			ki := -1
			for i := range an.klists {
				if an.klists[i].kr == pw.KR {
					ki = i
					break
				}
			}
			if ki < 0 {
				an.klists = growKR(an.klists, pw.KR)
				ki = len(an.klists) - 1
			}
			an.klists[ki].cores = appendUnique(an.klists[ki].cores, pw.Core)
		}
		for i := range an.klists {
			kl := &an.klists[i]
			an.WeightFlows = append(an.WeightFlows, DRAMFlow{
				Layer: ms.Layer,
				Ctrl:  fdCtrl(ms.FD.WGT),
				Cores: an.internCores(kl.cores...),
				Bytes: float64(perK*int64(kl.kr.Len())) * dnn.ElemBytes,
			})
		}
	}

	// Build intra-core workloads.
	for _, ms := range lms.MSs {
		l := g.Layer(ms.Layer)
		perK := int64(0)
		if l.HasWeights {
			perK = l.WeightVol() / int64(l.OK)
		}
		pws := an.layerPWs(ms.Layer)
		for i := range pws {
			pw := &pws[i]
			if an.Occupied[pw.Core] {
				return fmt.Errorf("core: core %d assigned twice (%v and layer %d)", pw.Core, an.CoreWorks[pw.Core].Kind, pw.Layer)
			}
			vol := pw.Vol()
			an.Occupied[pw.Core] = true
			an.CoreWorks[pw.Core] = intracore.Workload{
				Kind:     l.Kind,
				H:        pw.HR.Len(),
				W:        pw.WR.Len(),
				B:        pw.BR.Len(),
				K:        pw.KR.Len(),
				IC:       reducedChannels(l),
				R:        maxInt(l.R, 1),
				S:        maxInt(l.S, 1),
				Groups:   1, // IC already reduced per output channel
				MACs:     partMACs(l, vol),
				VecOps:   partVecOps(l, vol),
				InBytes:  an.inBytes[pw.Core],
				WBytes:   perK * int64(pw.KR.Len()) * dnn.ElemBytes,
				OutBytes: vol * dnn.ElemBytes,
			}
		}
	}

	an.Depth = an.groupDepth(g)
	an.sortDRAM(&an.ActDRAM)
	an.sortDRAM(&an.WeightFlows)
	return nil
}

// layerPWs returns the partitioned workloads of a layer of the parsed group
// (none for a layer outside it).
func (an *Analysis) layerPWs(layer int) []PW {
	st := an.layers[layer]
	return an.PWs[st.lo:st.hi]
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

// growNeed extends the needs buffer by one entry for region, recycling the
// cores backing of a previously used slot when available.
func growNeed(buf []needEntry, region dnn.EdgeRegion) []needEntry {
	if len(buf) < cap(buf) {
		buf = buf[:len(buf)+1]
	} else {
		buf = append(buf, needEntry{})
	}
	e := &buf[len(buf)-1]
	e.region = region
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

// sortActFlows puts ActFlows in canonical order (source, bytes, destinations)
// for the inspection consumers. The Evaluator does not need it: every
// CoreFlow.Bytes is an integer-valued float64 (dnn.ElemBytes is 1) added onto
// zeroed link loads before any DRAM flow, and sums of non-negative integers
// below 2^53 are exact in any order.
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

// dramKey is a DRAMFlow's sort key packed into integers: hi orders by layer,
// controller and direction, lo by bytes (the bit pattern of a non-negative
// float64 orders as the float does), c0 is the first core, and i names the
// flow, whose remaining cores break the last ties.
type dramKey struct {
	hi, lo uint64
	c0, i  int32
}

// sortDRAM puts a DRAM flow list in canonical order: layer, controller, reads
// before writes, bytes, cores. Unlike activation flows these must be summed in
// one fixed order, because an interleaved flow adds bytes/controllers to each
// controller and that quotient is not exact. What is sorted is the three-word
// keys, not the 56-byte flows through a comparator, and by insertion: flows
// are emitted one layer after another, so with the layers ascending — every
// stripe and every SA state — a key only ever moves within its own layer's
// run, which is no longer than the layer has cores. (In the worst case that is
// cores^2/4 key moves per layer, a fraction of the cores^2 region
// intersections analyzeEdge has already spent on the same layer.)
func (an *Analysis) sortDRAM(list *[]DRAMFlow) {
	flows := *list
	keys := an.dramKeys[:0]
	moved := false
	for i := range flows {
		f := &flows[i]
		k := dramKey{hi: uint64(f.Layer)<<32 | uint64(f.Ctrl+1)<<1, lo: math.Float64bits(f.Bytes), c0: int32(f.Cores[0]), i: int32(i)}
		if f.Write {
			k.hi |= 1
		}
		j := len(keys)
		keys = append(keys, k)
		for ; j > 0 && k.before(&keys[j-1], flows); j-- {
			keys[j] = keys[j-1]
			moved = true
		}
		keys[j] = k
	}
	an.dramKeys = keys
	if !moved {
		return
	}
	out := an.dramBuf[:0]
	for _, k := range keys {
		out = append(out, flows[k.i])
	}
	// The flows' core lists are views of coreArena, so the two flow buffers
	// can trade places without copying anything they point to.
	*list, an.dramBuf = out, flows
}

// before reports whether k's flow sorts strictly ahead of o's.
func (k *dramKey) before(o *dramKey, flows []DRAMFlow) bool {
	if k.hi != o.hi {
		return k.hi < o.hi
	}
	if k.lo != o.lo {
		return k.lo < o.lo
	}
	if k.c0 != o.c0 {
		return k.c0 < o.c0
	}
	return coreCmp(flows[k.i].Cores, flows[o.i].Cores) < 0
}

// analyzeEdge infers the flows feeding layer l through one input edge.
func (an *Analysis) analyzeEdge(s *Scheme, l *dnn.Layer, ms *MS, edge dnn.Input) {
	g := s.Graph

	var srcOH, srcOW, srcOK int
	var producers []PW
	inGroup := false
	switch {
	case edge.Src == dnn.ExternalInput:
		srcOH, srcOW, srcOK = l.IH(), l.IW(), l.IC
	default:
		pl := g.Layer(edge.Src)
		srcOH, srcOW, srcOK = pl.OH, pl.OW, pl.OK
		inGroup = an.layers[edge.Src].inGroup()
		producers = an.layerPWs(edge.Src)
	}

	// Consumer needs, grouped by identical region for multicast dedup.
	an.needs = an.needs[:0]
	pws := an.layerPWs(ms.Layer)
	for pi := range pws {
		pw := &pws[pi]
		reg := l.NeededRegion(edge, pw.HR, pw.WR, pw.BR, pw.KR, srcOH, srcOW, srcOK)
		v := reg.Vol()
		if v == 0 {
			continue
		}
		an.inBytes[pw.Core] += v * dnn.ElemBytes
		ni := -1
		for i := range an.needs {
			if an.needs[i].region == reg {
				ni = i
				break
			}
		}
		if ni < 0 {
			an.needs = growNeed(an.needs, reg)
			ni = len(an.needs) - 1
		}
		an.needs[ni].cores = appendUnique(an.needs[ni].cores, pw.Core)
	}

	if !inGroup {
		// Data comes from DRAM: the DNN input's explicit IF, or the DRAM
		// where the cross-group producer stored its ofmaps. A producer in no
		// group (the graph-partition engine scoring an isolated segment) or
		// without an explicit destination is assumed interleaved.
		ctrl := -1
		if edge.Src == dnn.ExternalInput {
			ctrl = fdCtrl(ms.FD.IF)
		} else if of := s.ProducerOF(edge.Src); of != FDImplicit {
			ctrl = fdCtrl(of)
		}
		for i := range an.needs {
			n := &an.needs[i]
			an.ActDRAM = append(an.ActDRAM, DRAMFlow{
				Layer: ms.Layer,
				Ctrl:  ctrl,
				Cores: an.internCores(n.cores...),
				Bytes: float64(n.region.Vol()) * dnn.ElemBytes,
			})
		}
		return
	}

	// In-group producer: intersect each consumer need with every producer
	// workload's owned region; identical payloads from one producer core to
	// several consumers become one multicast flow.
	for i := range an.needs {
		n := &an.needs[i]
		for qi := range producers {
			q := &producers[qi]
			ovl := dnn.EdgeRegion{
				H: n.region.H.Intersect(q.HR),
				W: n.region.W.Intersect(q.WR),
				B: n.region.B.Intersect(q.BR),
				K: n.region.K.Intersect(q.KR),
			}
			v := ovl.Vol()
			if v == 0 {
				continue
			}
			start := len(an.coreArena)
			for _, c := range n.cores {
				if c != q.Core {
					an.coreArena = append(an.coreArena, c)
				}
			}
			if len(an.coreArena) == start {
				continue // produced and consumed on the same core
			}
			an.ActFlows = append(an.ActFlows, CoreFlow{
				Src:   q.Core,
				Dsts:  an.coreArena[start:len(an.coreArena):len(an.coreArena)],
				Bytes: float64(v) * dnn.ElemBytes,
			})
		}
	}
}

// reducedChannels returns the input channels reduced per output element.
func reducedChannels(l *dnn.Layer) int {
	switch l.Kind {
	case dnn.Conv:
		gr := l.Groups
		if gr <= 0 {
			gr = 1
		}
		return maxInt(l.IC/gr, 1)
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
		return vol * int64(maxInt(len(l.Inputs), 2))
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
