// Objective lower bounds for candidate pruning and bound-ordered dispatch.
//
// Every term here is a compulsory cost: a quantity the evaluation model
// provably charges any feasible mapping the pipeline can produce, derived
// from invariants of core.Scheme validation, the analyzer's flow emission
// and the intra-core residency rule. A bound computed from anything less
// than an invariant could exceed the true optimum's objective and pruning
// would silently discard the best candidate, so each term carries its
// soundness argument next to the code that computes it.
package dse

import (
	"slices"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
	"gemini/internal/noc"
)

// modelDemand aggregates the per-sample compulsory quantities of one DNN.
// Everything in it is a property of the graph alone — independent of the
// architecture, batch and mapping options — so newScheduler computes it once
// per model per sweep and every candidate's bound reads it.
type modelDemand struct {
	macs   float64 // multiply-accumulates per sample
	vecOps float64 // vector-unit operations per sample

	weightBytes      float64   // total stationary weight bytes
	layerWeightBytes []float64 // per-layer weight bytes (capacity streaming)

	// layerExtReadBytes / layerOutWriteBytes split extReadBytes and
	// outWriteBytes per layer. Each explicit flow-of-data channel (a layer's
	// IF, WGT or OF entry) is a single FD value, so the per-cut bisection
	// floor needs per-layer — not aggregate — volumes: the adversary choice
	// interleave-vs-pin is made once per channel, for all of its bytes.
	layerExtReadBytes  []float64
	layerOutWriteBytes []float64

	// ofmapBytes is the total output bytes every layer produces per sample.
	// The intra-core engine charges at least OutBytes of GLB traffic per
	// pass for every workload (vector-only workloads charge In+Out, PE
	// workloads charge inReads+wReads+outWrites >= OutBytes), so each output
	// byte costs at least one GLB write.
	ofmapBytes float64

	// extReadBytes is the minimal external-input volume read from DRAM per
	// sample. Layers consuming the DNN input must carry an explicit IF
	// (core.NeedsExplicitIF / validateFD), and the analyzer emits their
	// needed regions as per-pass DRAM reads unconditionally, so this traffic
	// cannot be mapped away.
	extReadBytes float64

	// outWriteBytes is the ofmap volume of every graph-output layer per
	// sample. A layer with zero consumers must carry an explicit OF
	// (core.NeedsExplicitOF), and the analyzer writes its full per-pass
	// ofmap to DRAM, so the model's outputs are always written back.
	outWriteBytes float64

	// interBytes is the minimal producer-to-consumer volume of every
	// internal edge per sample. Scheme validation keeps the cores of one
	// group disjoint across layers, so when producer and consumer share a
	// group the data crosses at least one NoC/D2D link (distinct cores, and
	// every route between distinct cores has >= 1 link); when they do not,
	// the consumer reads the data from DRAM (the analyzer's prodMS == nil
	// path). Either way each byte is charged at least
	// min(one on-chip hop, one D2D hop, one DRAM access).
	interBytes float64
}

func computeDemand(g *dnn.Graph) *modelDemand {
	d := &modelDemand{
		layerWeightBytes:   make([]float64, len(g.Layers)),
		layerExtReadBytes:  make([]float64, len(g.Layers)),
		layerOutWriteBytes: make([]float64, len(g.Layers)),
	}
	cons := g.Consumers()
	for _, l := range g.Layers {
		d.macs += float64(l.MACs())
		d.vecOps += float64(l.VectorOps())
		wb := float64(l.WeightVol()) * dnn.ElemBytes
		d.layerWeightBytes[l.ID] = wb
		d.weightBytes += wb
		ofb := float64(l.OfmapVol()) * dnn.ElemBytes
		d.ofmapBytes += ofb
		if len(cons[l.ID]) == 0 {
			d.layerOutWriteBytes[l.ID] = ofb
			d.outWriteBytes += ofb
		}
		for _, in := range l.Inputs {
			if in.Src == dnn.ExternalInput {
				eb := float64(edgeMinVol(l, in, l.IH(), l.IW(), l.IC)) * dnn.ElemBytes
				d.layerExtReadBytes[l.ID] += eb
				d.extReadBytes += eb
			} else {
				pl := g.Layer(in.Src)
				d.interBytes += float64(edgeMinVol(l, in, pl.OH, pl.OW, pl.OK)) * dnn.ElemBytes
			}
		}
	}
	return d
}

// edgeMinVol returns the minimal producer-region volume (elements per
// sample) any feasible mapping must move across edge in to compute layer l's
// full output cube.
//
// Soundness: dnn.NeededRegion maps an output sub-cube to the producer region
// it requires, and each of its four dimensions depends only on the matching
// output dimension. The union of the needed regions over any partition of
// the output cube therefore contains the union over single output elements,
// which factorizes into the product of per-dimension unions — the partition
// can only enlarge per-part regions, never shrink the union. For Conv/Pool
// the per-dimension union is the gap-aware window cover (stride > kernel
// leaves unread rows, so the convex hull NeededRegion reports for a range
// would overestimate); for every other kind NeededRegion over the full
// ranges already is the union (its dimension maps are constant or the
// identity).
func edgeMinVol(l *dnn.Layer, in dnn.Input, srcOH, srcOW, srcOK int) int64 {
	switch l.Kind {
	case dnn.Conv, dnn.Pool:
		h := coveredDim(l.OH, l.R, l.Stride, l.PadH, srcOH)
		w := coveredDim(l.OW, l.S, l.Stride, l.PadW, srcOW)
		c := l.InputCRange(dnn.Range{Lo: 0, Hi: l.OK}).
			Shift(-in.DstOff).
			Intersect(dnn.Range{Lo: 0, Hi: srcOK}).Len()
		return int64(h) * int64(w) * int64(c)
	default:
		reg := l.NeededRegion(in,
			dnn.Range{Lo: 0, Hi: l.OH}, dnn.Range{Lo: 0, Hi: l.OW},
			dnn.Range{Lo: 0, Hi: 1}, dnn.Range{Lo: 0, Hi: l.OK},
			srcOH, srcOW, srcOK)
		return reg.Vol()
	}
}

// coveredDim counts the input coordinates in [0, src) read by at least one
// of the n sliding windows of length k at positions o*stride-pad. With
// stride <= k the windows tile a contiguous interval; with stride > k they
// leave gaps and only the clipped window lengths count.
func coveredDim(n, k, stride, pad, src int) int {
	if n <= 0 || src <= 0 {
		return 0
	}
	if stride <= 0 {
		stride = 1
	}
	if k < 1 {
		k = 1
	}
	if stride <= k {
		lo, hi := -pad, (n-1)*stride-pad+k
		if lo < 0 {
			lo = 0
		}
		if hi > src {
			hi = src
		}
		if hi <= lo {
			return 0
		}
		return hi - lo
	}
	total := 0
	for o := 0; o < n; o++ {
		lo := o*stride - pad
		hi := lo + k
		if lo < 0 {
			lo = 0
		}
		if hi > src {
			hi = src
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// minPasses returns the smallest per-group pipeline pass count any scheme
// the mapping pipeline can produce for these options: ceil(batch / maxBU)
// where maxBU is the largest batch unit the partitioner tries under the
// cell's own partitioner options. The SA operators never mutate a group's
// BatchUnit, so no reachable scheme has fewer passes.
func minPasses(opt Options) int {
	batch := max(opt.Batch, 1)
	maxBU := slices.Max(graphpart.UsableBatchUnits(opt.partitionOptions().BatchUnits, opt.Batch))
	return (batch + maxBU - 1) / maxBU
}

// lowerBoundED returns provable lower bounds on the total energy (J) and
// delay (s) of any feasible mapping, on cfg under opt, of the graph whose
// demand is d. There is one bound: energy sums the energy floors below and
// delay takes the largest delay floor, each resting on an invariant of the
// evaluation model:
//
//   - every MAC executes on a PE array whose aggregate throughput is
//     Cores * MACsPerCore per cycle, and costs at least MACpJ;
//   - every stationary weight byte is read from DRAM at least once
//     (resident slices load once, streaming slices more), over a DRAM
//     system of DRAMBW GB/s, at DRAMpJPerByte;
//   - vector ops at VecOppJ and one GLB write per produced output byte
//     (the intra-core engine's traffic term is >= OutBytes per pass);
//   - compulsory activation DRAM traffic: external-input reads and
//     graph-output write-backs are explicit flows by scheme validation
//     (core.NeedsExplicitIF/OF), emitted every pass, and pass count times
//     batch unit covers the batch;
//   - GLB-capacity weight streaming: a weight slice is loaded once per run
//     only when every core holding it keeps it GLB-resident, residency
//     implies the slice fits that core's GLB, cores within a group are
//     distinct, so at most Cores*GLBPerCore weight bytes per group escape
//     per-pass streaming; any single layer exceeding that aggregate streams
//     its excess on every one of its group's >= minPasses passes;
//   - inter-layer transfers: disjoint per-group core sets mean same-group
//     producer->consumer data crosses >= 1 link, and cross-group data takes
//     the DRAM path, so each compulsory inter-layer byte costs at least
//     min(NoC hop, D2D hop, DRAM access) energy;
//   - interconnect capacity: each compulsory DRAM byte occupies a DRAM
//     controller and each inter-layer byte occupies a link or a controller,
//     and a sum of per-pass maxima is at least the total load over the total
//     bandwidth, so delay >= (dram + inter) / (DRAMBW + LinkBWSum);
//   - the per-cut bisection rate of the largest explicit DRAM flow (see
//     cutFloor), which tightens the delay bound on multi-chiplet meshes
//     whose narrow cuts — not the aggregate link sum — gate traffic.
//
// Every term only charges costs the evaluator actually charges and never
// more of them than any reachable scheme incurs, so the bound can never
// exclude the true optimum.
func lowerBoundED(cfg *arch.Config, d *modelDemand, p *eval.Params, opt Options) (eLB, dLB float64) {
	batch := float64(opt.Batch)
	if batch < 1 {
		batch = 1
	}
	macs := d.macs * batch

	peakMACsPerSec := float64(cfg.Cores()) * float64(cfg.MACsPerCore) * cfg.FreqGHz * 1e9
	if peakMACsPerSec > 0 {
		dLB = macs / peakMACsPerSec
	}

	pm := minPasses(opt)
	dramBytes := d.weightBytes + (d.extReadBytes+d.outWriteBytes)*batch
	if pm > 1 {
		agg := float64(cfg.Cores()) * float64(cfg.GLBPerCore)
		excess := 0.0
		for _, wb := range d.layerWeightBytes {
			if wb > agg {
				excess += wb - agg
			}
		}
		dramBytes += float64(pm-1) * excess
	}
	if dram := cfg.DRAMBW * 1e9; dram > 0 {
		if t := dramBytes / dram; t > dLB {
			dLB = t
		}
	}

	inter := d.interBytes * batch
	hop := p.NoCHoppJPerByte + p.RouterpJPerByte
	if v := p.D2DpJPerByte + p.RouterpJPerByte; v < hop {
		hop = v
	}
	if p.DRAMpJPerByte < hop {
		hop = p.DRAMpJPerByte
	}
	eLB = macs*p.MACpJ*1e-12 + dramBytes*p.DRAMpJPerByte*1e-12
	eLB += d.vecOps*batch*p.VecOppJ*1e-12 +
		d.ofmapBytes*batch*p.GLBpJPerByte*1e-12 +
		inter*hop*1e-12
	if cap := (cfg.DRAMBW + noc.LinkBWSum(cfg)) * 1e9; cap > 0 {
		if t := (dramBytes + inter) / cap; t > dLB {
			dLB = t
		}
	}
	if t := cutFloor(cfg, d, batch, pm); t > dLB {
		dLB = t
	}
	return eLB, dLB
}

// cutFloor is the per-cut bisection delay floor: the largest
// compulsory volume any single explicit flow-of-data channel must move,
// times the worst per-byte rate the flow cannot escape.
//
// Soundness. Every explicit DRAM flow of a reachable scheme — a layer's
// weight reads (FD.WGT), external-input reads (FD.IF) or graph-output
// write-backs (FD.OF) — carries one FD value for all of its bytes
// (core.MS holds a single FD per layer; core/parse.go's fdCtrl maps it to
// the controller argument of every noc.Traffic call the analyzer emits for
// that channel). The value leaves exactly two regimes, and the evaluator's
// BottleneckTime charges a provable floor in each:
//
//   - Pinned (FD = specific controller c): every byte of the channel is
//     read from / written to controller c, whose service bandwidth is
//     DRAMBW/d (noc.Traffic.BottleneckTime divides DRAMBW evenly over the
//     d controllers). Summing the per-pass controller maxima over the run,
//     delay >= vol * d / DRAMBW.
//
//   - Interleaved (FD = FDInterleave): the bytes split evenly over all d
//     controllers (noc's ctrl < 0 path), so for any chiplet bisection the
//     controllers attached wholly on the far side of a byte's endpoint core
//     carry their 1/d shares across the cut — the mesh is connected only
//     through the cut's link set, so every port-to-core route of those
//     shares loads at least one crossing link (multicast trees load each
//     crossing link once with the full share, which is >= the one-crossing
//     charge). With nA/nB controllers wholly on either side, at least
//     min(nA, nB)/d of the channel's volume loads the cut every pass
//     (whichever side the endpoint cores are on, the opposite side holds
//     >= min(nA, nB) whole controllers; straddling controllers are counted
//     on neither side and charge nothing). The per-pass delay is at least
//     the cut's total load over its total bandwidth (a weighted mean never
//     exceeds the per-link maximum BottleneckTime takes), and the per-pass
//     inequality sums over passes, so delay >= vol * min(nA,nB)/d / cutBW.
//     Interleaved bytes cross every bisection simultaneously, so the max
//     over cuts applies.
//
// The mapping chooses the regime, so only min(pinned rate, interleaved
// rate) is compulsory — and per-channel volumes cannot be summed, because
// distinct channels can pin to distinct controllers and overlap in time, so
// the floor takes the max over channels. Channel volumes are themselves
// compulsory: weights are read at least once plus the GLB-capacity
// streaming excess on every extra pass (same invariants as the aggregate
// DRAM floor above), and external reads / output write-backs are emitted
// every pass with pass-count times batch-unit covering the batch. A
// monolithic chip has no bisection and the floor is zero; so is a cut whose
// controllers all straddle it (min(nA, nB) = 0).
func cutFloor(cfg *arch.Config, d *modelDemand, batch float64, pm int) float64 {
	cuts := noc.ChipletCuts(cfg)
	if len(cuts) == 0 {
		return 0
	}
	ports := cfg.DRAMPorts()
	dn := len(ports)
	intRate := 0.0 // s per byte (x 1e9), best over cuts
	for _, c := range cuts {
		if c.BW <= 0 {
			continue
		}
		var whole [2]int
		for _, p := range ports {
			side := c.SideOf(cfg, p.Cores[0])
			wholeSide := true
			for _, pc := range p.Cores[1:] {
				if c.SideOf(cfg, pc) != side {
					wholeSide = false
					break
				}
			}
			if wholeSide {
				whole[side]++
			}
		}
		m := whole[0]
		if whole[1] < m {
			m = whole[1]
		}
		if m == 0 {
			continue
		}
		if r := float64(m) / float64(dn) / c.BW; r > intRate {
			intRate = r
		}
	}
	if intRate == 0 {
		return 0
	}
	rate := intRate
	if pin := float64(dn) / cfg.DRAMBW; pin < rate {
		rate = pin
	}
	agg := float64(cfg.Cores()) * float64(cfg.GLBPerCore)
	maxVol := 0.0
	for id, wb := range d.layerWeightBytes {
		v := wb
		if pm > 1 && wb > agg {
			v += float64(pm-1) * (wb - agg)
		}
		if e := d.layerExtReadBytes[id] * batch; e > v {
			v = e
		}
		if o := d.layerOutWriteBytes[id] * batch; o > v {
			v = o
		}
		if v > maxVol {
			maxVol = v
		}
	}
	return maxVol * rate / 1e9
}

// objMonotone reports whether the objective is monotone non-decreasing in
// MC, E and D — the precondition for lower-bound pruning to be sound.
func objMonotone(o Objective) bool {
	return o.Alpha >= 0 && o.Beta >= 0 && o.Gamma >= 0
}
