// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`), plus micro-benchmarks of
// the framework's hot paths and ablations of its design choices. Each
// figure benchmark reports the headline quantities of the corresponding
// paper result as custom metrics.
package gemini

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/experiments"
	"gemini/internal/fleet"
	"gemini/internal/graphpart"
	"gemini/internal/noc"
	"gemini/internal/sa"
)

func benchOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.SAIterations = 100
	o.Batches = []int{2}
	return o
}

// BenchmarkTableI_SpaceEnumeration regenerates the Table I candidate grids.
func BenchmarkTableI_SpaceEnumeration(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(dse.Space72().Enumerate()) + len(dse.Space128().Enumerate()) + len(dse.Space512().Enumerate())
	}
	b.ReportMetric(float64(n), "candidates")
}

// BenchmarkFig5_OverallComparison regenerates the Fig. 5 comparison and
// reports the headline gains (paper: 1.98x perf, 1.41x energy, +14.3% MC).
func BenchmarkFig5_OverallComparison(b *testing.B) {
	var r *experiments.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PerfGain, "perf_gain_x")
	b.ReportMetric(r.EnergyGain, "energy_gain_x")
	b.ReportMetric(100*r.MCIncrease, "mc_increase_%")
}

// BenchmarkVIB2_TorusComparison regenerates the Sec. VI-B2 folded-torus
// comparison (paper: 1.74x perf, 1.13x energy, -40.1% MC).
func BenchmarkVIB2_TorusComparison(b *testing.B) {
	var r *experiments.TArchResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.TArch(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PerfGain, "perf_gain_x")
	b.ReportMetric(r.EnergyGain, "energy_gain_x")
	b.ReportMetric(-100*r.MCReduction, "mc_delta_%")
}

// BenchmarkFig6_DesignSpaceScatter regenerates the Fig. 6 EDP/MC scatter.
func BenchmarkFig6_DesignSpaceScatter(b *testing.B) {
	var r *experiments.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.Points)), "candidates")
	if ch, ok := r.OptimaChiplets["128TOPs-tiny/MC*E*D"]; ok {
		b.ReportMetric(float64(ch), "optimum_chiplets_128T")
	}
}

// BenchmarkFig7_ObjectiveOptima regenerates the Fig. 7 four-objective
// analysis (reports the MC*E*D optimum's pipeline length).
func BenchmarkFig7_ObjectiveOptima(b *testing.B) {
	var r *experiments.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		if row.Objective == "MC*E*D" {
			b.ReportMetric(row.AvgLayersPerGroup, "layers_per_stage")
			b.ReportMetric(float64(row.Cores), "optimum_cores")
		}
	}
}

// BenchmarkFig8_ChipletReuse regenerates the Fig. 8 reuse study (paper:
// joint-optimal gap ~+34%).
func BenchmarkFig8_ChipletReuse(b *testing.B) {
	var r *experiments.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.JointGap, "joint_gap_%")
}

// BenchmarkFig9_TrafficHeatmap regenerates the Fig. 9 heatmap comparison
// (paper: -34.2% hops, -74% D2D hops on the hot links).
func BenchmarkFig9_TrafficHeatmap(b *testing.B) {
	var r *experiments.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.HopReduction, "hop_reduction_%")
	b.ReportMetric(100*r.D2DReduction, "d2d_reduction_%")
}

// BenchmarkFig8a_ChipletGranularity regenerates the Fig. 8(a) granularity
// sweep (paper insight 1: moderate counts win, 36 chiplets lose).
func BenchmarkFig8a_ChipletGranularity(b *testing.B) {
	var r *experiments.GranularityResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.ChipletGranularity(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.BestChiplets), "best_chiplets")
	for _, row := range r.Rows {
		if row.Chiplets == 36 {
			b.ReportMetric(row.MCED, "mced_36chiplets_norm")
		}
	}
}

// BenchmarkIVB_SpaceSize regenerates the Sec. IV-B space-size table.
func BenchmarkIVB_SpaceSize(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.SpaceSizes() {
			if r.M == 36 && r.N == 8 {
				adv = r.AdvantageLog10
			}
		}
	}
	b.ReportMetric(adv, "log10_advantage_M36_N8")
}

// --- DSE session benchmarks: cold vs warm shared cache, single-seed vs
// portfolio restarts. ---

// sweepBench returns a small GArch72-class candidate sweep. Candidates and
// models are rebuilt per call.
func sweepBench() ([]arch.Config, []*dnn.Graph, dse.Options) {
	v1 := arch.GArch72()
	v2 := arch.GArch72()
	v2.NoCBW, v2.D2DBW = 64, 32
	v2.Name = v2.String()
	v3 := arch.GArch72()
	v3.GLBPerCore *= 2
	v3.Name = v3.String()
	models := []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()}
	opt := dse.DefaultOptions()
	opt.Batch = 8
	opt.SAIterations = 150
	opt.MaxGroupLayers = 7
	opt.BatchUnits = []int{1, 2}
	return []arch.Config{v1, v2, v3}, models, opt
}

// BenchmarkDSESessionSweepCold measures the GArch72 sweep on a fresh
// session each iteration: every candidate pays cold route tables, memos and
// group evaluations. Seeds vary per iteration exactly as in the warm bench,
// so the two are directly comparable.
func BenchmarkDSESessionSweepCold(b *testing.B) {
	cands, models, opt := sweepBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i) + 1
		ses := dse.NewSession()
		if dse.Best(ses.Run(cands, models, opt)) == nil {
			b.Fatal("no feasible candidate")
		}
	}
}

// BenchmarkDSESessionSweepWarm measures the same sweep re-run on one
// long-lived session. Seeds vary per iteration so the SA search genuinely
// re-runs (checkpoint cells miss) — the speedup over the cold bench is the
// session's partitions, route tables and Explore memo, not result replay. It
// asserts in-bench that every cell of each reseeded sweep reused the
// partition the priming sweep computed: a partition never depends on the
// seed.
func BenchmarkDSESessionSweepWarm(b *testing.B) {
	cands, models, opt := sweepBench()
	ses := dse.NewSession()
	opt.Seed = 1 << 20 // prime the cache with a seed the loop never uses
	if dse.Best(ses.Run(cands, models, opt)) == nil {
		b.Fatal("no feasible candidate")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i) + 1
		rs, st, err := ses.RunContext(context.Background(), cands, models, opt)
		if err != nil || dse.Best(rs) == nil {
			b.Fatalf("no feasible candidate (err %v)", err)
		}
		if st.PartitionsReused != st.Cells {
			b.Fatalf("seed %d: %d of %d cells reused their partition", opt.Seed, st.PartitionsReused, st.Cells)
		}
	}
	b.StopTimer()
	st := ses.CacheStats()
	b.ReportMetric(100*st.HitRate(), "cache_hit_%")
}

// benchRestarts measures a fresh-session sweep at the given SA portfolio
// width.
func benchRestarts(b *testing.B, restarts int) {
	cands, models, opt := sweepBench()
	opt.Restarts = restarts
	for i := 0; i < b.N; i++ {
		ses := dse.NewSession()
		if dse.Best(ses.Run(cands, models, opt)) == nil {
			b.Fatal("no feasible candidate")
		}
	}
}

// BenchmarkDSESweepRestarts1 is the single-seed baseline sweep.
func BenchmarkDSESweepRestarts1(b *testing.B) { benchRestarts(b, 1) }

// BenchmarkDSESweepRestarts4 runs a 4-seed SA portfolio per (candidate,
// model) cell. The restarts share the cell's graph partition and the cache's
// intra-core memo; each anneals on group deltas of its own and asks the
// cache for no group summary.
func BenchmarkDSESweepRestarts4(b *testing.B) { benchRestarts(b, 4) }

// --- Micro-benchmarks of the framework's hot paths. ---

// BenchmarkSAOptimize measures the full Mapping Engine hot loop — one SA
// search over the DP-partitioned resnet50 LP SPM on GArch72 — the path every
// DSE candidate and every figure pays. A fresh Evaluator per run mirrors a
// fresh session's dse.Session.MapModel, so per-run route-table and memo build
// costs are included.
func BenchmarkSAOptimize(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.ResNet50()
	part, err := graphpart.Partition(g, &cfg, eval.New(&cfg), 64, graphpart.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opt := sa.DefaultOptions()
	opt.Iterations = 200
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := sa.Optimize(part.Scheme, eval.New(&cfg), opt); !r.Eval.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkEvaluateGroup measures EvaluateGroup over the groups of the
// DP-partitioned resnet50 on GArch72, one group per call: a from-scratch
// evaluation, what eval.Report and gemini-map pay per group, with the
// Explore results the partition left in the evaluator's memo.
func BenchmarkEvaluateGroup(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.ResNet50()
	ev := eval.New(&cfg)
	part, err := graphpart.Partition(g, &cfg, ev, 64, graphpart.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if gr := ev.EvaluateGroup(part.Scheme, i%len(part.Scheme.Groups)); !gr.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func benchScheme(b *testing.B) (*core.Scheme, *arch.Config) {
	b.Helper()
	cfg := arch.GArch72()
	g := dnn.TinyTransformer()
	ids := make([]int, len(g.Layers))
	for i := range ids {
		ids[i] = i
	}
	s, err := core.StripeScheme(g, &cfg, [][]int{ids}, []int{2}, 8)
	if err != nil {
		b.Fatal(err)
	}
	return s, &cfg
}

func BenchmarkAnalyzeGroup(b *testing.B) {
	s, cfg := benchScheme(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(s, 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateScheme(b *testing.B) {
	s, cfg := benchScheme(b)
	ev := eval.New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := ev.Evaluate(s); !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkSAStep(b *testing.B) {
	s, cfg := benchScheme(b)
	ev := eval.New(cfg)
	opt := sa.DefaultOptions()
	opt.Iterations = b.N
	b.ResetTimer()
	sa.Optimize(s, ev, opt)
}

func BenchmarkGraphPartitionResNet50(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.ResNet50()
	ev := eval.New(&cfg)
	opt := graphpart.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphpart.Partition(g, &cfg, ev, 64, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionSiblings partitions ResNet-50 on eight siblings of G-Arch
// through one shared eval.Cache — four bandwidth siblings (NoC x D2D) and G-Arch's
// 6x6 core array under four other chiplet cuts — and asserts the sharing
// in-bench: the first sibling pays for every group summary, siblings 2-8 add
// zero cache misses, and each returns the groups, batch units and cost a
// private evaluator returns, bit for bit. SA is left out on purpose: sibling
// anneals diverge, so only the partitioner's lookups are guaranteed hits.
func BenchmarkPartitionSiblings(b *testing.B) {
	g := dnn.ResNet50()
	opt := graphpart.DefaultOptions()
	var sibs []arch.Config
	for _, nocBW := range []float64{32, 64} {
		for _, ratio := range []float64{0.25, 0.5} {
			cfg := arch.GArch72()
			cfg.NoCBW, cfg.D2DBW = nocBW, nocBW*ratio
			sibs = append(sibs, cfg)
		}
	}
	for _, cut := range [][2]int{{1, 2}, {2, 3}, {3, 2}, {6, 6}} {
		cfg := arch.GArch72()
		cfg.XCut, cfg.YCut = cut[0], cut[1]
		sibs = append(sibs, cfg)
	}
	var want []*graphpart.Result
	for i := range sibs {
		r, err := graphpart.Partition(g, &sibs[i], eval.New(&sibs[i]), 64, opt)
		if err != nil {
			b.Fatal(err)
		}
		want = append(want, r)
	}
	var st eval.CacheStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := eval.NewCache()
		for si := range sibs {
			paid := cache.Stats().Misses
			got, err := graphpart.Partition(g, &sibs[si], eval.NewWithCache(&sibs[si], cache), 64, opt)
			if err != nil {
				b.Fatal(err)
			}
			if added := cache.Stats().Misses - paid; (si == 0) != (added > 0) {
				b.Fatalf("sibling %d added %d cache misses; only the first may pay", si+1, added)
			}
			if got.Cost != want[si].Cost || fmt.Sprint(got.Groups, got.BatchUnits) != fmt.Sprint(want[si].Groups, want[si].BatchUnits) {
				b.Fatalf("sibling %d: shared-cache partition (cost %v) differs from a private evaluator's (cost %v)", si+1, got.Cost, want[si].Cost)
			}
		}
		st = cache.Stats()
	}
	b.ReportMetric(float64(st.Misses), "misses")
	b.ReportMetric(100*st.HitRate(), "cache_hit_%")
}

// BenchmarkPartitionWarm times Partition of ResNet-50 on G-Arch-72 over a
// cache an earlier Partition filled — what a session sweep pays when only
// the objective exponents changed (a reseeded sweep reuses the session's
// partitions and does not partition at all) — and asserts in-bench what
// makes it cheap: the repeat adds no cache miss, allocates nothing
// per segment it scores (what it does allocate — the DP tables and the
// winning scheme, ~0.1 per lookup — must stay under a quarter of an
// allocation per lookup, where one stripe LMS alone is ~19), and returns the
// first call's groups, batch units and cost.
func BenchmarkPartitionWarm(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.ResNet50()
	opt := graphpart.DefaultOptions()
	cache := eval.NewCache()
	ev := eval.NewWithCache(&cfg, cache)
	want, err := graphpart.Partition(g, &cfg, ev, 64, opt)
	if err != nil {
		b.Fatal(err)
	}
	filled := cache.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := graphpart.Partition(g, &cfg, ev, 64, opt)
		if err != nil {
			b.Fatal(err)
		}
		if got.Cost != want.Cost || !reflect.DeepEqual(got.Groups, want.Groups) || !reflect.DeepEqual(got.BatchUnits, want.BatchUnits) {
			b.Fatalf("warm partition (cost %v) differs from the one that filled the cache (cost %v)", got.Cost, want.Cost)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	st := cache.Stats()
	if st.Misses != filled.Misses || st.Entries != filled.Entries {
		b.Fatalf("warm partitions added %d misses and %d entries; want none", st.Misses-filled.Misses, st.Entries-filled.Entries)
	}
	lookups := float64(st.Hits-filled.Hits) / float64(b.N)
	perSegment := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N) / lookups
	if lookups != float64(filled.Misses+filled.Hits) || perSegment >= 0.25 {
		b.Fatalf("warm partition: %.0f lookups (cold: %d), %.3f allocations per segment; want the cold call's lookups at under 0.25", lookups, filled.Misses+filled.Hits, perSegment)
	}
	b.ReportMetric(lookups, "segments")
	b.ReportMetric(perSegment, "allocs/segment")
}

// BenchmarkGroupMiss times what a sweep is made of — a group computed rather
// than looked up — on the paths that compute one, and asserts in-bench what
// keeps it cheap and right. Segment path: a cold Partition of ResNet-50 on
// G-Arch-72 looks every (j, i, bu) up once, misses every time and stores one
// entry per miss; and the miss itself — stripe into the Striper's scratch,
// summarize, store — run again over a stored name allocates at most the class
// loads of the cut-free entry it stores. What a first-time miss does allocate
// is what it stores — the cache entry and a memo entry per workload not seen
// before — reported as allocs/cold-segment. Group path: a seeded walk of the
// five operators over that partition evaluates each touched group once with
// EvaluateGroup, from scratch; every result equals — bit for bit — an
// evaluation of core.Analyze's canonically sorted flows (EvaluateGroup sums
// activation flows unsorted), the walk leaves the evaluator's cache untouched,
// and ns/miss is its time per state. Delta path: the same walk through one
// eval.GroupDelta per group, each move marked as the annealer marks it, gives
// the same result at every state, leaves the cache untouched, and — replayed
// over warm deltas — allocates nothing; ns/delta-miss is its time per state.
func BenchmarkGroupMiss(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.ResNet50()
	const batch = 64
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}

	segCache := eval.NewCache()
	segEv := eval.NewWithCache(&cfg, segCache)
	m0 := mallocs()
	part, err := graphpart.Partition(g, &cfg, segEv, batch, graphpart.DefaultOptions())
	perColdSegment := float64(mallocs() - m0)
	if err != nil {
		b.Fatal(err)
	}
	seg := segCache.Stats()
	perColdSegment /= float64(seg.Misses)
	if seg.Hits != 0 || seg.Misses != int64(seg.Entries) {
		b.Fatalf("cold partition: %+v; want all misses, one entry each", seg)
	}
	// What graphpart's segmenter does on a miss, through the same calls.
	striper := core.NewStriper(&cfg)
	ids := make([]int, len(g.Layers))
	for i := range ids {
		ids[i] = i
	}
	one := core.Scheme{Graph: g, Batch: batch, Groups: make([]*core.LMS, 1)}
	first := part.Groups[0]
	j, i, bu := first[0], first[len(first)-1]+1, part.BatchUnits[0]
	segmentMiss := func() {
		lms, err := striper.Scratch(g, ids[j:i], bu)
		if err != nil {
			b.Fatal(err)
		}
		one.Groups[0] = lms
		if !segEv.EvaluateGroupAs(segEv.SegmentKey(g, batch, j, i, bu), &one, 0).Feasible {
			b.Fatalf("the partition's first group [%d,%d) is infeasible", j, i)
		}
	}
	segmentMiss()
	if perSegment := testing.AllocsPerRun(100, segmentMiss); perSegment > 1 {
		b.Fatalf("a segment miss allocates %.0f times, want at most 1", perSegment)
	}

	// walk replays one seeded operator sequence from the partition, calling
	// visit with the scheme, the group each applied move touched, the
	// operator and the mutator that applied it.
	const moves = 2000
	walk := func(visit func(s *core.Scheme, gi int, op core.Op, mu *core.Mutator)) {
		s := part.Scheme.Clone()
		rng := rand.New(rand.NewSource(3))
		mu := &core.Mutator{Graph: g, Drams: cfg.DRAMControllers(), Rng: rng}
		for it := 0; it < moves; it++ {
			gi := rng.Intn(len(s.Groups))
			if op, ok := mu.Apply(s.Groups[gi]); ok {
				visit(s, gi, op, mu)
			}
		}
	}
	uncached := eval.New(&cfg)
	var want []eval.GroupResult
	walk(func(s *core.Scheme, gi int, _ core.Op, _ *core.Mutator) {
		an, err := core.Analyze(s, gi, &cfg)
		if err != nil {
			b.Fatal(err)
		}
		want = append(want, uncached.EvaluateAnalysis(an, s.Batch))
	})

	var ev *eval.Evaluator
	var last *core.Scheme
	var lastGroup int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache := eval.NewCache()
		ev = eval.NewWithCache(&cfg, cache)
		b.StartTimer()
		k := 0
		walk(func(s *core.Scheme, gi int, _ core.Op, _ *core.Mutator) {
			if got := ev.EvaluateGroup(s, gi); got != want[k] {
				b.Fatalf("state %d (group %d): EvaluateGroup %+v, over sorted flows %+v", k, gi, got, want[k])
			}
			k++
			last, lastGroup = s, gi
		})
		b.StopTimer()
		if st := cache.Stats(); st != (eval.CacheStats{}) {
			b.Fatalf("EvaluateGroup walk: %+v; want the cache untouched", st)
		}
		b.StartTimer()
	}
	b.StopTimer()
	states := float64(len(want))

	// The delta path: the walk again through one GroupDelta per group, each
	// move marked as the annealer marks it — the MSs the operator changed, and
	// for an ofmap destination the layers of other groups that read it, whose
	// marks wait for their group's next visit.
	readers := make(map[int][][2]int) // producer layer -> (group, MS) reading it from another group
	for gj, lms := range part.Scheme.Groups {
		for y, ms := range lms.MSs {
			for _, in := range g.Layer(ms.Layer).Inputs {
				if in.Src >= 0 && lms.MSFor(in.Src) == nil {
					readers[in.Src] = append(readers[in.Src], [2]int{gj, y})
				}
			}
		}
	}
	// deltaWalk evaluates every state through the delta path and, when
	// count, returns how many times those evaluations allocated.
	deltaWalk := func(ev *eval.Evaluator, deltas []*eval.GroupDelta, count bool) (allocs uint64) {
		k := 0
		walk(func(s *core.Scheme, gi int, op core.Op, mu *core.Mutator) {
			d := deltas[gi]
			if op == core.OpFD {
				x := mu.Changed()[0]
				d.ChangedFD(x)
				if mu.ChangedOF() {
					for _, r := range readers[s.Groups[gi].MSs[x].Layer] {
						deltas[r[0]].ChangedFD(r[1])
					}
				}
			} else {
				for _, x := range mu.Changed() {
					d.Changed(x)
				}
			}
			var m uint64
			if count {
				m = mallocs()
			}
			got := ev.EvaluateGroupDelta(d, s)
			if count {
				allocs += mallocs() - m
			}
			if got != want[k] {
				b.Fatalf("state %d (group %d): delta path %+v, uncached over sorted flows %+v", k, gi, got, want[k])
			}
			d.Settle(true)
			k++
		})
		return allocs
	}
	newDeltas := func(ev *eval.Evaluator) []*eval.GroupDelta {
		deltas := make([]*eval.GroupDelta, len(part.Scheme.Groups))
		for gj := range deltas {
			deltas[gj], _ = ev.NewGroupDelta(part.Scheme, gj)
		}
		return deltas
	}
	var deltaTime time.Duration
	for i := 0; i < b.N; i++ {
		cache := eval.NewCache()
		ev = eval.NewWithCache(&cfg, cache)
		start := time.Now()
		deltaWalk(ev, newDeltas(ev), false)
		deltaTime += time.Since(start)
		if ds := cache.Stats(); ds != (eval.CacheStats{}) {
			b.Fatalf("delta walk: %+v; want the cache untouched", ds)
		}
	}
	// Replayed over warm deltas and a warm memo, every state of the walk is
	// computed through the delta path without allocating. A replay first
	// re-derives every delta whole for the partition's scheme, as a search's
	// deltas start, so each piece changes buffers once and every second
	// replay puts each piece in the buffer the first one grew it in. The
	// third replay is counted on one P with the collector off, after a
	// collection whose aftermath the replay's set-up gives time to settle: the
	// malloc count is the process's, and the runtime allocates too — its own
	// goroutines after each collection (the unique-map cleanup, the mark
	// workers), and a new M when restarting the world that ReadMemStats
	// stops wakes another P.
	deltas := newDeltas(ev)
	replay := func() uint64 {
		for gj, lms := range part.Scheme.Groups {
			for x := range lms.MSs {
				deltas[gj].Changed(x)
			}
			ev.EvaluateGroupDelta(deltas[gj], part.Scheme)
			deltas[gj].Settle(true)
		}
		return deltaWalk(ev, deltas, true)
	}
	replay()
	replay()
	procs, gcPercent := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	runtime.GC()
	allocs := replay()
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gcPercent)
	if allocs != 0 {
		b.Fatalf("a replay of the walk's %d delta misses allocates %d times, want 0", len(want), allocs)
	}

	// EvaluateGroupAs is the miss pipeline under a caller's key: run over one
	// key again and again it recomputes and overwrites, so the count is the
	// pipeline's own, without the map growth a new entry may cost. On a
	// monolithic array it stores a groupSummary by value; G-Arch's array
	// without its cut is one, and the scheme is valid on it.
	mono := cfg
	mono.XCut, mono.YCut = 1, 1
	monoEv := eval.NewWithCache(&mono, eval.NewCache())
	key := eval.CacheKey{Arch: 1, Graph: 2, FP: 3}
	monoEv.EvaluateGroupAs(key, last, lastGroup)
	if perMiss := testing.AllocsPerRun(100, func() { monoEv.EvaluateGroupAs(key, last, lastGroup) }); perMiss != 0 {
		b.Fatalf("a monolithic segment miss allocates %.0f times, want 0", perMiss)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/states, "ns/miss")
	b.ReportMetric(float64(deltaTime.Nanoseconds())/float64(b.N)/states, "ns/delta-miss")
	b.ReportMetric(states, "states")
	b.ReportMetric(perColdSegment, "allocs/cold-segment")
}

func BenchmarkMapTransformerFull(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.Transformer()
	opt := dse.DefaultOptions()
	opt.SAIterations = 300
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.NewSession().MapModel(&cfg, g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoCRoute(b *testing.B) {
	cfg := arch.Grayskull()
	net := noc.New(&cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Route(arch.CoreID(i%cfg.Cores()), arch.CoreID((i*7+13)%cfg.Cores()))
	}
}

func BenchmarkMonetaryCost(b *testing.B) {
	cfg := arch.GArch72()
	for i := 0; i < b.N; i++ {
		MonetaryCost(&cfg)
	}
}

// --- Ablations of design choices. ---

// BenchmarkAblation_MulticastVsUnicast quantifies the traffic saved by the
// NoC multicast trees the analyzer emits, on a channel-partitioned consumer
// (every consumer core needs the producer's full output).
func BenchmarkAblation_MulticastVsUnicast(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.TinyCNN()
	s, err := core.StripeScheme(g, &cfg, [][]int{{0, 1}}, []int{1}, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Re-partition the consumer conv across output channels so all of its
	// cores need the identical producer region.
	ms := s.Groups[0].MSs[1]
	k := len(ms.CG)
	if k > g.Layer(1).OK {
		k = g.Layer(1).OK
	}
	ms.CG = ms.CG[:k]
	ms.Part = core.Part{H: 1, W: 1, B: 1, K: k}
	an, err := core.Analyze(s, 0, &cfg)
	if err != nil {
		b.Fatal(err)
	}
	net := noc.New(&cfg)
	var multi, uni float64
	for i := 0; i < b.N; i++ {
		tm := net.NewTraffic()
		tu := net.NewTraffic()
		for _, f := range an.ActFlows {
			tm.Multicast(f.Src, f.Dsts, f.Bytes)
			for _, d := range f.Dsts {
				tu.Multicast(f.Src, []arch.CoreID{d}, f.Bytes)
			}
		}
		mo, md, _ := tm.TotalBytes()
		uo, ud, _ := tu.TotalBytes()
		multi, uni = mo+md, uo+ud
	}
	b.ReportMetric(uni/multi, "unicast_over_multicast_x")
}

// BenchmarkAblation_D2DEnergyModels compares the clock-forwarding (GRS) and
// clock-embedded (SerDes) D2D energy models of Sec. V-B2.
func BenchmarkAblation_D2DEnergyModels(b *testing.B) {
	s, cfg := benchScheme(b)
	grs := eval.New(cfg)
	sd := eval.New(cfg)
	sd.Params.D2DModel = eval.SerDes
	var rg, rs eval.Result
	for i := 0; i < b.N; i++ {
		rg = grs.Evaluate(s)
		rs = sd.Evaluate(s)
	}
	b.ReportMetric(rs.Energy.D2D/rg.Energy.D2D, "serdes_over_grs_x")
}

// BenchmarkAblation_SAOperators measures how much each exploration budget
// buys over the stripe baseline (the value of the five-operator SA).
func BenchmarkAblation_SAOperators(b *testing.B) {
	s, cfg := benchScheme(b)
	ev := eval.New(cfg)
	var impr float64
	for i := 0; i < b.N; i++ {
		opt := sa.DefaultOptions()
		opt.Iterations = 400
		r := sa.Optimize(s, ev, opt)
		impr = r.Improvement()
	}
	b.ReportMetric(impr, "sa_improvement_x")
}

// BenchmarkAblation_OperatorSubsets compares the full five-operator SA
// against searches restricted to single operator families, quantifying the
// paper's claim that the operator set jointly spans the space.
func BenchmarkAblation_OperatorSubsets(b *testing.B) {
	s, cfg := benchScheme(b)
	ev := eval.New(cfg)
	run := func(ops []core.Op) float64 {
		opt := sa.DefaultOptions()
		opt.Iterations = 400
		opt.Ops = ops
		return sa.Optimize(s, ev, opt).Improvement()
	}
	var full, partOnly, swapOnly float64
	for i := 0; i < b.N; i++ {
		full = run(nil)
		partOnly = run([]core.Op{core.OpPart})
		swapOnly = run([]core.Op{core.OpSwapIntra, core.OpSwapInter})
	}
	b.ReportMetric(full, "full_improvement_x")
	b.ReportMetric(partOnly, "part_only_x")
	b.ReportMetric(swapOnly, "swaps_only_x")
}

// BenchmarkAblation_GraphPartitionDP compares the DP partitioner against a
// naive fixed-size chunking of the layer list.
func BenchmarkAblation_GraphPartitionDP(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.TinyTransformer()
	ev := eval.New(&cfg)
	var ratio float64
	for i := 0; i < b.N; i++ {
		dp, err := graphpart.Partition(g, &cfg, ev, 8, graphpart.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		var chunks [][]int
		var bus []int
		for lo := 0; lo < len(g.Layers); lo += 6 {
			hi := lo + 6
			if hi > len(g.Layers) {
				hi = len(g.Layers)
			}
			ids := make([]int, 0, hi-lo)
			for id := lo; id < hi; id++ {
				ids = append(ids, id)
			}
			chunks = append(chunks, ids)
			bus = append(bus, 1)
		}
		naive, err := core.StripeScheme(g, &cfg, chunks, bus, 8)
		if err != nil {
			b.Fatal(err)
		}
		rd := ev.Evaluate(dp.Scheme)
		rn := ev.Evaluate(naive)
		ratio = (rn.Energy.Total() * rn.Delay) / (rd.Energy.Total() * rd.Delay)
	}
	b.ReportMetric(ratio, "naive_over_dp_cost_x")
}

// --- Pruning engine benchmarks: compulsory-traffic bounds, in-loop
// abandonment, disk-backed cache warmth. ---

// benchSweep runs one sweep on a fresh session and returns its best feasible
// candidate with the sweep's own stats.
func benchSweep(b *testing.B, cands []arch.Config, models []*dnn.Graph, opt dse.Options) (*dse.CandidateResult, dse.SweepStats) {
	b.Helper()
	rs, stats, err := dse.NewSession().RunContext(context.Background(), cands, models, opt)
	if err != nil {
		b.Fatal(err)
	}
	best := dse.Best(rs)
	if best == nil {
		b.Fatal("no feasible candidate")
	}
	return best, stats
}

// BenchmarkDSESweepInLoopAbandon measures the in-loop abandonment mechanism
// on a dominated cell at a deterministic domination point: a 4-restart
// portfolio whose candidate becomes dominated a third of the way into the
// second restart. The Stop hook must stop it within one polling stride —
// asserted in-bench as strictly fewer iterations than the two full restarts
// a between-restart check would have burned.
func BenchmarkDSESweepInLoopAbandon(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.TinyCNN()
	part, err := graphpart.Partition(g, &cfg, eval.New(&cfg), 8, graphpart.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opt := sa.DefaultOptions()
	opt.Iterations = 150
	const restarts = 4
	// Count one restart's in-loop polls with a hook that never fires.
	pollsPerRestart := 0
	counting := opt
	counting.Stop = func() bool { pollsPerRestart++; return false }
	sa.Optimize(part.Scheme, eval.New(&cfg), counting)
	// Domination lands mid-restart 2: after all polls of restart 1, the
	// between-restart poll and a third of restart 2's.
	fireAfter := pollsPerRestart + 1 + pollsPerRestart/3 + 1

	var pf sa.Portfolio
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		polls := 0
		o := opt
		o.Stop = func() bool {
			polls++
			return polls > fireAfter
		}
		pf = sa.MultiStart(part.Scheme, eval.New(&cfg), o, restarts)
	}
	b.StopTimer()
	if !pf.Abandoned {
		b.Fatal("dominated portfolio not abandoned")
	}
	if pf.Iterations <= opt.Iterations || pf.Iterations >= 2*opt.Iterations {
		b.Fatalf("abandoned after %d iterations, want mid-restart 2 (%d..%d)", pf.Iterations, opt.Iterations, 2*opt.Iterations)
	}
	b.ReportMetric(float64(pf.Iterations), "sa_iterations")
}

// --- Search engine benchmark: the per-cut bisection delay bound. ---

// cutBoundBench returns the cut-bound pruning workload: two healthy
// candidates plus four whose D2D links starve the chiplet bisection (the
// aggregate link sum stays huge, so only the per-cut term of the bound sees
// the choke point), under a single dominant-FC-weight model whose one
// explicit weight flow must cross the bisection. One worker, so the healthy
// candidates (lowest bounds) settle before any starved one is dispatched and
// the pruned count does not depend on scheduling.
func cutBoundBench(b *testing.B) ([]arch.Config, []*dnn.Graph, dse.Options) {
	var cands []arch.Config
	for _, bw := range []float64{1, 1.5, 2, 2.5} {
		w := arch.GArch72()
		w.D2DBW = bw
		w.Name = w.String()
		cands = append(cands, w)
	}
	strong := arch.GArch72()
	glb := arch.GArch72()
	glb.GLBPerCore *= 2
	glb.Name = glb.String()
	cands = append(cands, strong, glb)

	bld := dnn.NewBuilder("bigfc")
	in := bld.Input(1, 1, 8192)
	bld.FC("fc", in, 8192)
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	opt := dse.DefaultOptions()
	opt.Batch = 8
	opt.SAIterations = 150
	opt.Restarts = 2
	opt.Workers = 1
	opt.Prune = true
	return cands, []*dnn.Graph{g}, opt
}

// BenchmarkDSESweepCutBound runs the D2D-starved sweep under pruning and
// asserts in-bench that the per-cut bisection floor does its job: all four
// starved multi-chiplet candidates are pruned, and the best is bit-identical
// to the unpruned sweep's (soundness).
func BenchmarkDSESweepCutBound(b *testing.B) {
	cands, models, opt := cutBoundBench(b)
	var best *dse.CandidateResult
	var stats dse.SweepStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, stats = benchSweep(b, cands, models, opt)
	}
	b.StopTimer()
	opt.Prune = false
	want := dse.Best(dse.NewSession().Run(cands, models, opt))
	if want == nil || best.Obj != want.Obj || best.Cfg.Name != want.Cfg.Name {
		b.Fatalf("cut-bound sweep best %s (%g) differs from the unpruned sweep's %s (%g): the bound is unsound",
			best.Cfg.Name, best.Obj, want.Cfg.Name, want.Obj)
	}
	if stats.PrunedCandidates < 4 {
		b.Fatalf("pruned %d candidates, want the 4 D2D-starved ones: the bisection floor bought nothing",
			stats.PrunedCandidates)
	}
	b.ReportMetric(float64(stats.PrunedCandidates), "pruned_candidates")
}

// --- Distributed fleet benchmarks: shard the grid, share the incumbent,
// merge checkpoints. ---

// fleetBenchSpec is the fleet benchmark workload: four full-speed GArch72
// variants (NoC 32-96 GB/s) plus four DRAM-starved twins whose
// compulsory-traffic lower bound exceeds any full-speed candidate's
// achieved objective. The two halves are two segment groups (their DRAM
// controller counts differ), each cut into one-candidate shards, and the
// full-speed half leads the grid in enumeration order, so the fleet leases
// real work first. The coordinator folds the best each checkpoint upload
// carries into the fleet incumbent and hands it back on every lease and
// checkpoint response, so the starved half is pruned pre-cell — exactly the work an
// operator saves by pointing idle machines at one coordinator instead of
// splitting the grid into independent sweeps.
func fleetBenchSpec(b *testing.B) (dse.Spec, []arch.Config) {
	b.Helper()
	raw := `{
		"id": "bench-fleet",
		"space": {"tops": 72, "cuts": [1], "dram_per_tops": [2, 0.007],
		          "noc_gbps": [32, 48, 64, 96], "d2d_ratios": [0.5],
		          "glb_kb": [1024], "macs": [1024]},
		"models": ["tinycnn"],
		"sa_iterations": 300,
		"prune": true
	}`
	var spec dse.Spec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		b.Fatalf("fleet bench spec: %v", err)
	}
	if err := spec.Validate(); err != nil {
		b.Fatalf("fleet bench spec: %v", err)
	}
	cands, err := spec.Candidates()
	if err != nil {
		b.Fatalf("fleet bench candidates: %v", err)
	}
	// The prune story depends on grid order: the full-speed half must
	// enumerate first so shard 0 is real work, not a starved candidate.
	for i, c := range cands {
		if strong := c.DRAMBW > 100; strong != (i < len(cands)/2) {
			b.Fatalf("candidate %d (%s, DRAM %.1f GB/s) breaks the strong-first grid order", i, c.Name, c.DRAMBW)
		}
	}
	return spec, cands
}

// runFleetBench drains one fleet sweep of the benchmark grid — coordinator
// plus `workers` loopback worker loops, one shard per candidate, each
// worker pinned to one in-shard slot — and returns the drain wall time and
// the coordinator's final status.
func runFleetBench(b *testing.B, spec dse.Spec, shards, workers int) (time.Duration, fleet.SweepStatus) {
	b.Helper()
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{LeaseTTL: time.Minute})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	body, err := json.Marshal(fleet.SubmitRequest{Spec: spec, Shards: shards})
	if err != nil {
		b.Fatalf("marshal submit: %v", err)
	}
	resp, err := http.Post(srv.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatalf("submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("submit answered %d", resp.StatusCode)
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fleet.RunWorker(context.Background(), fleet.WorkerConfig{
				Coordinator:  srv.URL,
				Name:         fmt.Sprintf("bench-w%d", i),
				Workers:      1,
				ExitWhenIdle: true,
			})
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			b.Fatalf("fleet worker: %v", err)
		}
	}
	st, ok := coord.Status(spec.ID)
	if !ok || st.State != "done" {
		b.Fatalf("fleet sweep did not drain: %+v", st)
	}
	if !st.Incumbent.Found {
		b.Fatalf("fleet sweep found no feasible best")
	}
	return wall, st
}

// BenchmarkFleetSweep is the distributed-fleet twin run. Per iteration it
// maps the identical 8-candidate grid twice: once as an unpruned
// single-process sweep (what N independent single-candidate shards compute:
// splitting the grid across machines without a coordinator leaves every
// shard's incumbent alone with its own candidate, so nothing prunes) and
// once as the 2-worker, 8-shard fleet sharing its incumbent. The fleet
// prunes the starved half of the grid pre-cell off the shared incumbent,
// so it wins on one core by skipped work alone and adds
// near-linear scaling on top when the workers have real cores to spread
// over. Soundness is asserted in-bench: all runs end at the bit-identical
// best, and the fleet's total SA iteration count is strictly below the
// unpruned sweep's.
func BenchmarkFleetSweep(b *testing.B) {
	spec, cands := fleetBenchSpec(b)
	shards := len(cands)
	graphs, err := spec.Graphs()
	if err != nil {
		b.Fatal(err)
	}
	soloOpt := spec.Options()
	soloOpt.Prune = false
	soloOpt.Workers = 1
	sameBest := func(st fleet.SweepStatus, solo *dse.CandidateResult) bool {
		return st.Incumbent.Candidate == solo.Cfg.Name && st.Incumbent.Objective == solo.Obj
	}
	var soloNs, fleetNs time.Duration
	var solo *dse.CandidateResult
	var stSolo dse.SweepStats
	var stFleet fleet.SweepStatus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		solo, stSolo = benchSweep(b, cands, graphs, soloOpt)
		soloNs += time.Since(start)
		var d time.Duration
		d, stFleet = runFleetBench(b, spec, shards, 2)
		fleetNs += d
		if !sameBest(stFleet, solo) {
			b.Fatalf("fleet best %+v differs from the unpruned sweep's %s (%g): incumbent sharing is unsound",
				stFleet.Incumbent, solo.Cfg.Name, solo.Obj)
		}
	}
	b.StopTimer()

	// The deterministic iteration twin: one sequential worker, so each lease
	// already carries every earlier shard's fold and the pruned set does not
	// depend on scheduling.
	_, stSeq := runFleetBench(b, spec, shards, 1)
	if !sameBest(stSeq, solo) {
		b.Fatalf("sequential fleet best %+v differs from the unpruned sweep's %s (%g)",
			stSeq.Incumbent, solo.Cfg.Name, solo.Obj)
	}
	if stSeq.Stats.PrunedCandidates == 0 {
		b.Fatalf("shared fleet incumbent pruned nothing: %+v", stSeq.Stats)
	}
	if stSeq.Stats.SAIterations >= stSolo.SAIterations {
		b.Fatalf("fleet spent %d SA iterations, the unpruned sweep %d: want strictly fewer",
			stSeq.Stats.SAIterations, stSolo.SAIterations)
	}
	if stFleet.Stats.SAIterations >= stSolo.SAIterations {
		b.Fatalf("two-worker fleet spent %d SA iterations, the unpruned sweep %d: want strictly fewer",
			stFleet.Stats.SAIterations, stSolo.SAIterations)
	}

	b.ReportMetric(float64(soloNs.Nanoseconds())/float64(b.N), "solo_ns")
	b.ReportMetric(float64(fleetNs.Nanoseconds())/float64(b.N), "two_worker_ns")
	b.ReportMetric(float64(stSeq.Stats.SAIterations), "sa_iterations")
	b.ReportMetric(float64(stSolo.SAIterations), "solo_sa_iterations")
}
