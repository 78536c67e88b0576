// Package eval implements the Gemini Evaluator (Sec. V-B2): it turns an
// analyzed LP SPM scheme into delay and energy numbers using the analytic
// bottleneck model — per-pass stage time is the maximum of per-core compute
// time, the most loaded NoC/D2D link, and the most loaded DRAM controller;
// a layer group's delay accounts for pipeline fill/drain via its dependency
// depth; energy sums per-component operation counts times unit energies.
//
// A group is evaluated from scratch (EvaluateGroup), by segment name through
// a Cache that stores the graph partitioner's stripe segments (SegmentKey,
// LookupGroup, EvaluateGroupAs), or, in a simulated-annealing search, through
// a GroupDelta, which computes the group once and then recomputes only what
// each move changed. Only the named path reads or writes a Cache's summaries;
// every path reads and fills its Explore memo.
package eval

import (
	"math"
	"sync"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/intracore"
	"gemini/internal/noc"
)

// GroupResult is the evaluation of one layer group.
type GroupResult struct {
	Feasible bool

	Passes    int
	Depth     int
	StageTime float64 // seconds per batch-unit pass at steady state
	Delay     float64 // seconds for the whole batch through this group

	Energy EnergyBreakdown

	// Per-pass traffic statistics for the Fig. 7 / Fig. 9 analyses.
	NoCBytes, D2DBytes, DRAMBytes float64
	MaxLinkLoad                   float64
	AvgUtil                       float64
}

// Result is the evaluation of a full scheme.
type Result struct {
	Feasible bool
	Delay    float64 // seconds
	Energy   EnergyBreakdown
	Groups   []GroupResult

	// DRAMBytes is total DRAM traffic, the quantity Fig. 7 tracks against
	// core count.
	DRAMBytes float64
}

// EnergyJ returns total energy in joules.
func (r *Result) EnergyJ() float64 { return r.Energy.Total() }

// EDP returns the energy-delay product (J*s), the Fig. 6 metric.
func (r *Result) EDP() float64 { return r.Energy.Total() * r.Delay }

// AvgLayersPerGroup reports the mean number of layers processed
// simultaneously (paper Sec. VII-A2).
func AvgLayersPerGroup(s *core.Scheme) float64 {
	if len(s.Groups) == 0 {
		return 0
	}
	n := 0
	for _, g := range s.Groups {
		n += len(g.MSs)
	}
	return float64(n) / float64(len(s.Groups))
}

// Evaluator evaluates schemes for one architecture. It is safe for
// concurrent use.
//
// Evaluation is two-phase. The Analyze/explore/traffic pipeline produces a
// bandwidth-free groupSummary; finish turns a summary into a GroupResult by
// applying this evaluator's NoC/D2D/DRAM bandwidths. EvaluateGroup and
// Evaluate run both phases every call and look up no summary. The graph
// partitioner's stripe segments are memoized in the evaluator's Cache — its
// own (New) or one shared across evaluators (NewWithCache) — under a name
// (SegmentKey) rather than the segment's encoding, so a segment asked for
// again on this architecture or, through a shared Cache, on any bandwidth
// sibling of it skips the whole pipeline and builds no LMS. A *dnn.Graph must
// not be mutated after schemes referencing it have been evaluated (it holds
// its fingerprint). Params may change between evaluations (it is hashed into
// a segment name) but must not be written concurrently with an in-flight
// evaluation.
type Evaluator struct {
	Cfg    *arch.Config
	Net    *noc.Network
	Params Params

	d2dIfaces int
	scratch   sync.Pool

	// cache is the segment store. On a multi-chiplet array (cutFree) stripe
	// segments are stored as segmentSummarys under segmentFP, the analysis
	// fingerprint without the cut; on a monolithic one as groupSummarys under
	// segmentFP, the AnalysisFingerprint (see docs/architecture.md for why
	// the two kinds stay apart).
	cache     *Cache
	segmentFP uint64
	cutFree   bool
}

// groupSummary is the bandwidth-free half of a group evaluation: everything
// the Analyze/explore/traffic pipeline derives from the group encoding, the
// core array, the chiplet cuts, the topology and the DRAM controller
// placement — and nothing that depends on how fast a link or a controller
// drains. It is what a Cache stores for a monolithic array's segment; finish
// completes it in O(1). The MAC/GLB energies are summed per core under the
// evaluator's Params, which a segment name hashes.
type groupSummary struct {
	groupScalars

	PerPass noc.Digest `json:"p"` // activation and streamed-weight traffic of one pass
	Once    noc.Digest `json:"o"` // GLB-resident weights, loaded once per run
}

// Summary is a group's summary as a comparable value, for oracles that hold
// two ways of computing one against each other with ==.
type Summary = groupSummary

// SummarizeGroup returns the summary of group gi of s computed from scratch:
// the reference the delta path is held against.
func (e *Evaluator) SummarizeGroup(s *core.Scheme, gi int) Summary { return e.summarizeGroup(s, gi) }

// groupScalars is what a summary holds besides its traffic.
type groupScalars struct {
	Feasible  bool    `json:"ok,omitempty"`
	BatchUnit int     `json:"bu,omitempty"`
	Depth     int     `json:"dp,omitempty"`
	MaxComp   float64 `json:"tc,omitempty"` // slowest core's compute seconds per pass
	MAC       float64 `json:"em,omitempty"` // joules per pass
	GLB       float64 `json:"eg,omitempty"` // joules per pass
	AvgUtil   float64 `json:"u,omitempty"`
}

// feasible reports whether the summary is feasible. An infeasible one is the
// zero value of its kind.
func (g groupScalars) feasible() bool { return g.Feasible }

// segmentSummary is a stripe segment's summary on a multi-chiplet array with
// the chiplet cut left out: each traffic's DRAM load and its link loads per
// noc boundary class, per pass then load-once, instead of the two Digests.
// Resolving the classes under any cut of the array (resolve) gives the
// groupSummary that cut's evaluator computes. An infeasible segment holds no
// traffic at all.
type segmentSummary struct {
	groupScalars

	PassDRAM noc.ClassLoad   `json:"pm,omitempty"`
	OnceDRAM noc.ClassLoad   `json:"om,omitempty"`
	Links    []noc.ClassLoad `json:"l,omitempty"`
}

// evalScratch is the reusable per-evaluation state: one pooled Traffic pair
// (per-pass and load-once), the parsed Analysis, and the weight-split
// scratch. Pooled per evaluator so concurrent evaluations do not contend.
type evalScratch struct {
	an        *core.Analysis
	tr, wOnce *noc.Traffic
	weightSplit
}

// weightSplit is the scratch that splits weight loads by residency: the
// resident flags and the resident/streaming core lists.
type weightSplit struct {
	resident []bool // indexed by CoreID; valid only for occupied cores
	resBuf   []arch.CoreID
	strBuf   []arch.CoreID
}

// New builds an evaluator with default energy parameters and a cache, and so
// an Explore memo and a route table, of its own.
func New(cfg *arch.Config) *Evaluator { return NewWithCache(cfg, NewCache()) }

// NewWithCache builds an evaluator with default energy parameters that reads
// and writes segment summaries and intra-core explorations in c, sharing them
// with every other evaluator built on c (and so across DSE candidates and
// runs), and routes on c's table for its core array and topology. Results
// served from a shared cache are bit-identical to locally computed ones.
func NewWithCache(cfg *arch.Config, c *Cache) *Evaluator {
	e := &Evaluator{
		Cfg:       cfg,
		Net:       noc.NewOn(cfg, c.routeTable(cfg)),
		Params:    DefaultParams(),
		cache:     c,
		segmentFP: AnalysisFingerprint(cfg),
		cutFree:   cfg.Chiplets() > 1,
	}
	if e.cutFree {
		e.segmentFP = cutFreeFingerprint(cfg)
	}
	for _, l := range e.Net.Links {
		if l.D2D {
			e.d2dIfaces++
		}
	}
	e.scratch.New = func() any {
		return &evalScratch{
			an:          new(core.Analysis),
			tr:          e.Net.NewTraffic(),
			wOnce:       e.Net.NewTraffic(),
			weightSplit: weightSplit{resident: make([]bool, cfg.Cores())},
		}
	}
	return e
}

func (e *Evaluator) coreParams() intracore.Core {
	return intracore.Core{MACs: e.Cfg.MACsPerCore, GLB: e.Cfg.GLBPerCore, FreqGHz: e.Cfg.FreqGHz}
}

// EvaluateGroup evaluates one layer group of a validated scheme from scratch:
// its bandwidth-free summary, finished at this evaluator's bandwidths. It
// neither looks up nor stores a summary.
func (e *Evaluator) EvaluateGroup(s *core.Scheme, gi int) (res GroupResult) {
	sum := e.summarizeGroup(s, gi)
	e.finish(&sum, s.Batch, &res)
	return
}

// SegmentKey names the stripe-mapped group of layers [j,i) of g at batch unit
// bu on this evaluator's architecture: the key LookupGroup and EvaluateGroupAs
// take. A name is a sound key because the stripe LMS is a pure function of the
// graph, the core array (part of the analysis fingerprint), j, i and bu, and
// a group alone in its scheme has no cross-group context — so one name stands
// for one summary, and a caller that already holds (j, i, bu) need not build
// the LMS to ask for it.
// On a multi-chiplet array the name leaves the cut out too: every cut of the
// array shares one cut-free entry, resolved under the asker's cut.
func (e *Evaluator) SegmentKey(g *dnn.Graph, batch, j, i, bu int) CacheKey {
	h := fnv1a(fnvOffset, segmentDomain)
	p := &e.Params
	for _, f := range [...]float64{p.MACpJ, p.VecOppJ, p.GLBpJPerByte, p.NoCHoppJPerByte,
		p.RouterpJPerByte, p.D2DpJPerByte, p.DRAMpJPerByte, p.SerDesPJPerBit} {
		h = fnv1a(h, math.Float64bits(f))
	}
	h = fnv1a(h, uint64(p.D2DModel))
	h = fnv1a(h, uint64(batch))
	h = fnv1a(h, uint64(bu))
	h = fnv1a(h, uint64(j))
	h = fnv1a(h, uint64(i))
	return CacheKey{Arch: e.segmentFP, Graph: g.Fingerprint(), FP: h}
}

// LookupGroup finishes the summary stored under key at this evaluator's
// bandwidths (and, for a cut-free entry, under its cut) into *res (which must
// be zero) and reports whether there was one. A hit builds no LMS and hashes
// no encoding.
func (e *Evaluator) LookupGroup(key CacheKey, batch int, res *GroupResult) bool {
	var sum groupSummary
	if e.cutFree {
		var seg segmentSummary
		if !e.cache.getSegment(key, &seg) || !e.resolve(&seg, &sum) {
			return false
		}
	} else if !e.cache.get(key, &sum) {
		return false
	}
	e.finish(&sum, batch, res)
	return true
}

// EvaluateGroupAs is the miss half of LookupGroup: it runs the pipeline on
// group gi of s, stores the summary under key — which must be the SegmentKey
// of exactly that group — and returns the finished result. On a monolithic
// array it stores the groupSummary EvaluateGroup computes. What it stores for
// a feasible segment of a multi-chiplet array is the one allocation it makes.
func (e *Evaluator) EvaluateGroupAs(key CacheKey, s *core.Scheme, gi int) (res GroupResult) {
	sc := e.scratch.Get().(*evalScratch)
	var sum groupSummary
	if err := core.AnalyzeInto(sc.an, s, gi, e.Cfg); err == nil {
		sum = e.summarizeAnalysis(sc)
	}
	if e.cutFree {
		e.cache.putSegment(key, cutFreeSummary(&sum, sc))
	} else {
		e.cache.put(key, &sum)
	}
	e.scratch.Put(sc)
	e.finish(&sum, s.Batch, &res)
	return
}

// cutFreeSummary is the segmentSummary of sum, which summarizeAnalysis just
// computed from sc's traffic.
func cutFreeSummary(sum *groupSummary, sc *evalScratch) segmentSummary {
	seg := segmentSummary{groupScalars: sum.groupScalars}
	if !sum.Feasible {
		return seg
	}
	pass := sc.tr.ClassLoads()
	seg.Links = append(make([]noc.ClassLoad, 0, 2*len(pass)), pass...)
	seg.Links = append(seg.Links, sc.wOnce.ClassLoads()...)
	seg.PassDRAM, seg.OnceDRAM = sc.tr.DRAMLoad(), sc.wOnce.DRAMLoad()
	return seg
}

// resolve turns a cut-free segment summary into the groupSummary of this
// evaluator's cut, in O(classes). It reports false for an entry whose class
// count is not this array's, which only a damaged disk file can hold.
func (e *Evaluator) resolve(seg *segmentSummary, sum *groupSummary) bool {
	if !seg.Feasible {
		return true
	}
	k := e.Net.Classes()
	if len(seg.Links) != 2*k {
		return false
	}
	sum.groupScalars = seg.groupScalars
	sum.PerPass = e.Net.Resolve(seg.Links[:k], seg.PassDRAM)
	sum.Once = e.Net.Resolve(seg.Links[k:], seg.OnceDRAM)
	return true
}

// summarizeGroup runs the Analyze/explore/traffic pipeline for one group.
func (e *Evaluator) summarizeGroup(s *core.Scheme, gi int) groupSummary {
	sc := e.scratch.Get().(*evalScratch)
	var sum groupSummary
	if err := core.AnalyzeInto(sc.an, s, gi, e.Cfg); err == nil {
		sum = e.summarizeAnalysis(sc)
	}
	e.scratch.Put(sc)
	return sum
}

// EvaluateAnalysis evaluates a group from its parsed form: the pipeline
// EvaluateGroup runs, entered after the parse. Given core.Analyze's
// inspection form of a group — the same parse with its activation flows
// sorted — it returns exactly what EvaluateGroup returns for that group,
// which is how the order-invariance of the miss path is checked from outside
// the package.
func (e *Evaluator) EvaluateAnalysis(an *core.Analysis, batch int) (res GroupResult) {
	sum := e.summarizeParsed(an)
	e.finish(&sum, batch, &res)
	return
}

// summarizeParsed is summarizeAnalysis over an Analysis the caller owns.
func (e *Evaluator) summarizeParsed(an *core.Analysis) groupSummary {
	sc := e.scratch.Get().(*evalScratch)
	own := sc.an
	sc.an = an
	sum := e.summarizeAnalysis(sc)
	sc.an = own
	e.scratch.Put(sc)
	return sum
}

// summarizeAnalysis turns one parsed group analysis into a groupSummary
// using the scratch buffers only. It must not read NoCBW, D2DBW or DRAMBW:
// the summary is shared by every configuration with this AnalysisFingerprint.
func (e *Evaluator) summarizeAnalysis(sc *evalScratch) groupSummary {
	an := sc.an
	cp := e.coreParams()

	// Intra-core exploration per occupied core, in ascending core order.
	// resident is indexed by core ID and only written for occupied cores —
	// exactly the cores the weight flows below can reference — so stale
	// entries are never read and the buffer needs no clearing between
	// evaluations.
	f := coreFold{sum: groupSummary{groupScalars: groupScalars{Feasible: true, BatchUnit: an.BatchUnit, Depth: an.Depth}}}
	for c, occupied := range an.Occupied {
		if !occupied {
			continue
		}
		w := &an.CoreWorks[c]
		r := e.cache.memo.Explore(*w, cp)
		if !e.foldCore(&f, w, &r) {
			return groupSummary{}
		}
		sc.resident[c] = r.WeightsResident
	}

	sc.tr.Reset()
	AddActivations(sc.tr, an)
	sc.wOnce.Reset()
	sc.weights(sc.tr, sc.wOnce, an.WeightFlows)
	return f.summary(sc.tr, sc.wOnce)
}

// coreFold is the per-core half of a summary in the making: the scalars and
// the utilization total over the cores folded so far.
type coreFold struct {
	sum     groupSummary
	utilSum float64
	nUtil   int
}

// foldCore folds one occupied core's workload and exploration into f,
// reporting false for an infeasible core. Cores must come in ascending order:
// MAC, GLB and the utilization total are float sums, and one order is what
// makes two computations of one summary agree bit for bit.
func (e *Evaluator) foldCore(f *coreFold, w *intracore.Workload, r *intracore.Result) bool {
	if !r.Feasible {
		return false
	}
	cycles := r.Cycles
	if r.VecCycles > cycles {
		cycles = r.VecCycles
	}
	if t := float64(cycles) / (e.Cfg.FreqGHz * 1e9); t > f.sum.MaxComp {
		f.sum.MaxComp = t
	}
	f.sum.MAC += float64(w.MACs)*e.Params.MACpJ*pJ + float64(w.VecOps)*e.Params.VecOppJ*pJ
	f.sum.GLB += r.GLBBytes * e.Params.GLBpJPerByte * pJ
	if w.MACs > 0 {
		f.utilSum += r.Util
		f.nUtil++
	}
	return true
}

// summary completes the summary of a group whose cores f has folded and whose
// per-pass and load-once traffic tr and once hold.
func (f *coreFold) summary(tr, once *noc.Traffic) groupSummary {
	sum := f.sum
	if f.nUtil > 0 {
		sum.AvgUtil = f.utilSum / float64(f.nUtil)
	}
	sum.PerPass = tr.Digest()
	sum.Once = once.Digest()
	return sum
}

// weights routes weight loads: GLB-resident slices load once per run into
// once, slices that do not fit stream every pass into tr. ws.resident must
// hold the residency of every core the flows name.
func (ws *weightSplit) weights(tr, once *noc.Traffic, flows []core.DRAMFlow) {
	for i := range flows {
		ws.weight(tr, once, &flows[i], ws.resident, 1)
	}
}

// weight routes one weight load, sign times its bytes and split as weights
// splits it by resident, so a sign of -1 takes it back out.
func (ws *weightSplit) weight(tr, once *noc.Traffic, f *core.DRAMFlow, resident []bool, sign float64) {
	res, str := ws.resBuf[:0], ws.strBuf[:0]
	for _, c := range f.Cores {
		if resident[c] {
			res = append(res, c)
		} else {
			str = append(str, c)
		}
	}
	ws.resBuf, ws.strBuf = res, str
	once.DRAMRead(f.Ctrl, res, sign*f.Bytes)
	tr.DRAMRead(f.Ctrl, str, sign*f.Bytes)
}

// AddActivations routes one pass of an analyzed group's activation traffic
// into tr: the core-to-core multicasts, then the activation DRAM reads and
// writes.
func AddActivations(tr *noc.Traffic, an *core.Analysis) {
	for _, f := range an.ActFlows {
		tr.Multicast(f.Src, f.Dsts, f.Bytes)
	}
	addDRAM(tr, an.ActDRAM)
}

// addDRAM routes activation DRAM reads and writes into tr.
func addDRAM(tr *noc.Traffic, flows []core.DRAMFlow) {
	for i := range flows {
		addDRAMFlow(tr, &flows[i], 1)
	}
}

// addDRAMFlow routes one activation DRAM read or write, sign times its bytes,
// into tr, so a sign of -1 takes it back out.
func addDRAMFlow(tr *noc.Traffic, f *core.DRAMFlow, sign float64) {
	if f.Write {
		tr.DRAMWrite(f.Ctrl, f.Cores[0], sign*f.Bytes)
	} else {
		tr.DRAMRead(f.Ctrl, f.Cores, sign*f.Bytes)
	}
}

// finish completes a summary into *res, which must be zero. It is the only
// place the link and controller bandwidths enter an evaluation, so it may
// read anything of the evaluator — Cfg's bandwidths, Params, the D2D
// interface count — but nothing of the scheme beyond the batch: whatever else
// a result depends on must already be in the summary and its key.
func (e *Evaluator) finish(sum *groupSummary, batch int, res *GroupResult) {
	if !sum.Feasible {
		return
	}
	cfg := e.Cfg
	dramCtrlBW := cfg.DRAMBW / float64(e.Net.Controllers())
	passes := (batch + sum.BatchUnit - 1) / sum.BatchUnit
	commTime := sum.PerPass.BottleneckTime(cfg.NoCBW, cfg.D2DBW, dramCtrlBW)
	stage := math.Max(sum.MaxComp, commTime)
	if stage <= 0 {
		return
	}
	preload := sum.Once.BottleneckTime(cfg.NoCBW, cfg.D2DBW, dramCtrlBW)
	delay := float64(passes+sum.Depth-1)*stage + preload

	res.Feasible = true
	res.Passes = passes
	res.Depth = sum.Depth
	res.StageTime = stage
	res.Delay = delay
	res.MaxLinkLoad = max(sum.PerPass.PeakNoC, sum.PerPass.PeakD2D)
	res.AvgUtil = sum.AvgUtil
	res.Energy.add(EnergyBreakdown{MAC: sum.MAC, GLB: sum.GLB}, float64(passes))
	res.Energy.add(e.transferEnergy(sum.PerPass), float64(passes))
	res.Energy.add(e.transferEnergy(sum.Once), 1)

	if e.Params.D2DModel == SerDes && cfg.Chiplets() > 1 {
		// Clock-embedded D2D: interfaces burn power for the whole group
		// runtime regardless of traffic.
		powerW := cfg.D2DBW * 1e9 * 8 * e.Params.SerDesPJPerBit * pJ
		res.Energy.D2D = float64(e.d2dIfaces) * powerW * delay
	}
	res.NoCBytes = sum.PerPass.NoCBytes*float64(passes) + sum.Once.NoCBytes
	res.D2DBytes = sum.PerPass.D2DBytes*float64(passes) + sum.Once.D2DBytes
	res.DRAMBytes = sum.PerPass.DRAMBytes*float64(passes) + sum.Once.DRAMBytes
}

// transferEnergy converts digested traffic into an energy breakdown under
// the clock-forwarding (volume-proportional) model.
func (e *Evaluator) transferEnergy(d noc.Digest) EnergyBreakdown {
	var b EnergyBreakdown
	b.NoC = d.NoCBytes * (e.Params.NoCHoppJPerByte + e.Params.RouterpJPerByte) * pJ
	b.D2D = d.D2DBytes * (e.Params.D2DpJPerByte + e.Params.RouterpJPerByte) * pJ
	b.DRAM = d.DRAMBytes * e.Params.DRAMpJPerByte * pJ
	return b
}

// FNV-1a constants for the fingerprints and segment names.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds one 64-bit word into the hash, byte by byte.
func fnv1a(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// segmentDomain is folded in ahead of a segment name. Every name a version-5
// spill holds starts from it, so dropping it would orphan those entries.
const segmentDomain = 0x7365676d656e7431 // "segment1"

// Evaluate evaluates a full scheme from scratch, as EvaluateGroup does each
// group: groups run one after another, so delays and energies sum.
func (e *Evaluator) Evaluate(s *core.Scheme) Result {
	return Fold(len(s.Groups), func(gi int) GroupResult { return e.EvaluateGroup(s, gi) })
}

// Fold is the evaluation of a scheme of n groups whose group gi evaluates to
// group(gi), asked in order: the delays and energies summed. It stops at the
// first infeasible group, whose successors it neither asks for nor records.
func Fold(n int, group func(gi int) GroupResult) Result {
	res := Result{Feasible: true, Groups: make([]GroupResult, n)}
	for gi := range n {
		gr := group(gi)
		res.Groups[gi] = gr
		if !gr.Feasible {
			res.Feasible = false
			res.Delay = math.Inf(1)
			return res
		}
		res.Delay += gr.Delay
		res.Energy.add(gr.Energy, 1)
		res.DRAMBytes += gr.DRAMBytes
	}
	return res
}
