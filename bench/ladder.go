package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/cost"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
	"gemini/internal/intracore"
	"gemini/internal/noc"
	"gemini/internal/sa"
)

// ladder collects one sample per traced cell for every layer metric.
type ladder struct {
	sc    scale
	cells int // feasible cells worked through

	nocBuildMS, nocCores, nocRouteNS                []float64
	partColdMS, partWarmMS, groupEvals, coldGroupUS []float64
	groupHitNS, schemeUS                            []float64
	analyzeUS, exploreUS, costUS                    []float64
	saMS, saIterUS, saIters, saAccept, saApplied    []float64
	cellMS, overheadShare, allocMB, mallocs         []float64
	simRatios                                       []float64

	// lastCache is the final cell's filled evaluation cache, reused by the
	// disk-spill probe.
	lastCache *eval.Cache
}

// timeLoop runs fn n times under one span and returns the mean call time in
// nanoseconds.
func timeLoop(tr *tracer, parent int, name string, n int, fn func(i int)) float64 {
	id := tr.begin(parent, name)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	tr.end(id)
	return float64(d.Nanoseconds()) / float64(n)
}

// timed runs fn under a span and returns its duration in milliseconds.
func timed(tr *tracer, parent int, name string, fn func()) float64 {
	id := tr.begin(parent, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(id)
	return float64(d) / float64(time.Millisecond)
}

// runLadder draws sc.ladderCells cells from the grid with the seed and runs
// each by hand, one public layer call at a time, then through
// dse.Session.MapModel. The hand-run result must equal MapModel's energy and
// delay bit for bit; any difference is returned as a failure.
func runLadder(g grid, opt dse.Options, seed int64, sc scale, tr *tracer, parent int) (*ladder, []string) {
	ld := &ladder{sc: sc}
	var failures []string
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(g.cells())
	for _, ci := range order[:min(sc.ladderCells, len(order))] {
		cfg, graph := &g.cands[ci/len(g.graphs)], g.graphs[ci%len(g.graphs)]
		if err := ld.cell(cfg, graph, opt, tr, parent); err != nil {
			failures = append(failures, fmt.Sprintf("ladder cell %s/%s: %v", cfg.Name, graph.Name, err))
		}
	}
	return ld, failures
}

func (ld *ladder) cell(cfg *arch.Config, g *dnn.Graph, opt dse.Options, tr *tracer, parent int) error {
	cellSpan := tr.begin(parent, "ladder.cell")
	defer tr.end(cellSpan)

	// The reference: the cell as a sweep would run it, on a cold session. A
	// collection before each timed half puts both on the same footing.
	var want *dse.MapResult
	var wantErr error
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cellMS := timed(tr, cellSpan, "dse.Session.MapModel", func() {
		want, wantErr = dse.NewSession().MapModel(cfg, g, opt)
	})
	runtime.ReadMemStats(&after)

	runtime.GC()
	var net *noc.Network
	nocMS := timed(tr, cellSpan, "noc.New", func() { net = noc.New(cfg) })
	cache := eval.NewCache()
	var ev *eval.Evaluator
	timed(tr, cellSpan, "eval.NewWithCache", func() { ev = eval.NewWithCache(cfg, cache) })

	gp := graphpart.DefaultOptions()
	gp.Beta, gp.Gamma = opt.Objective.Beta, opt.Objective.Gamma
	if opt.MaxGroupLayers > 0 {
		gp.MaxGroupLayers = opt.MaxGroupLayers
	}
	if len(opt.BatchUnits) > 0 {
		gp.BatchUnits = opt.BatchUnits
	}
	var part *graphpart.Result
	var err error
	coldMS := timed(tr, cellSpan, "graphpart.Partition.cold", func() { part, err = graphpart.Partition(g, cfg, ev, opt.Batch, gp) })
	if err != nil {
		if errors.Is(err, graphpart.ErrInfeasible) && errors.Is(wantErr, dse.ErrInfeasible) {
			return nil // infeasible both ways: nothing further to time
		}
		return fmt.Errorf("partition: %w (MapModel: %v)", err, wantErr)
	}
	cold := cache.Stats()
	warmMS := timed(tr, cellSpan, "graphpart.Partition.warm", func() { _, err = graphpart.Partition(g, cfg, ev, opt.Batch, gp) })
	if err != nil {
		return fmt.Errorf("warm partition: %w", err)
	}

	so := sa.DefaultOptions()
	so.Iterations, so.Seed = opt.SAIterations, opt.Seed
	so.Beta, so.Gamma = opt.Objective.Beta, opt.Objective.Gamma
	var pf sa.Portfolio
	saMS := timed(tr, cellSpan, "sa.MultiStart", func() { pf = sa.MultiStart(part.Scheme, ev, so, opt.Restarts) })
	best := pf.Best
	if !best.Eval.Feasible {
		if errors.Is(wantErr, dse.ErrInfeasible) {
			return nil
		}
		return fmt.Errorf("hand-run SA is infeasible, MapModel says %w", wantErr)
	}
	if wantErr != nil {
		return fmt.Errorf("MapModel failed where the hand-run succeeded: %w", wantErr)
	}
	var full eval.Result
	timed(tr, cellSpan, "eval.Evaluate", func() { full = ev.Evaluate(best.Scheme) })
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"SA energy", best.Eval.Energy.Total(), want.Energy},
		{"SA delay", best.Eval.Delay, want.Delay},
		{"Evaluate energy", full.Energy.Total(), want.Energy},
		{"Evaluate delay", full.Delay, want.Delay},
	} {
		if c.got != c.want {
			return fmt.Errorf("%s %v differs from MapModel's %v", c.what, c.got, c.want)
		}
	}

	// Micro-loops over the layers below a group evaluation.
	scheme, groups := best.Scheme, len(best.Scheme.Groups)
	hitNS := timeLoop(tr, cellSpan, "eval.EvaluateGroup.hit", ld.sc.loopCalls, func(i int) { ev.EvaluateGroup(scheme, i%groups) })
	schemeNS := timeLoop(tr, cellSpan, "eval.Evaluate.loop", ld.sc.loopCalls/groups+1, func(int) { ev.Evaluate(scheme) })
	analyses := make([]*core.Analysis, groups)
	analyzeNS := timeLoop(tr, cellSpan, "core.Analyze", 4*groups, func(i int) {
		analyses[i%groups], err = core.Analyze(scheme, i%groups, cfg)
	})
	if err != nil {
		return fmt.Errorf("core.Analyze: %w", err)
	}
	var works []intracore.Workload
	for _, an := range analyses {
		for c := arch.CoreID(0); int(c) < cfg.Cores(); c++ { // core order, not map order
			if w, ok := an.Works[c]; ok {
				works = append(works, w)
			}
		}
	}
	cp := intracore.Core{MACs: cfg.MACsPerCore, GLB: cfg.GLBPerCore, FreqGHz: cfg.FreqGHz}
	exploreNS := timeLoop(tr, cellSpan, "intracore.Explore", len(works), func(i int) { intracore.Explore(works[i], cp) })
	mc := cost.New()
	costNS := timeLoop(tr, cellSpan, "cost.Evaluate", ld.sc.loopCalls, func(int) { mc.Evaluate(cfg) })
	cores := cfg.Cores()
	routeNS := timeLoop(tr, cellSpan, "noc.Route", ld.sc.loopCalls, func(i int) {
		net.Route(arch.CoreID(i%cores), arch.CoreID((i*7+13)%cores))
	})
	simSpan := tr.begin(cellSpan, "eval.SimulateGroupNet")
	for gi := 0; gi < groups; gi++ {
		sim, analytic, err := ev.SimulateGroupNet(scheme, gi)
		if err != nil {
			tr.end(simSpan)
			return fmt.Errorf("SimulateGroupNet group %d: %w", gi, err)
		}
		if analytic > 0 {
			ld.simRatios = append(ld.simRatios, sim/analytic)
		}
	}
	tr.end(simSpan)

	ld.cells++
	ld.lastCache = cache
	add := func(dst *[]float64, v float64) { *dst = append(*dst, v) }
	add(&ld.nocBuildMS, nocMS)
	add(&ld.nocCores, float64(cores))
	add(&ld.nocRouteNS, routeNS)
	add(&ld.partColdMS, coldMS)
	add(&ld.partWarmMS, warmMS)
	add(&ld.groupEvals, float64(cold.Hits+cold.Misses))
	if cold.Misses > 0 {
		add(&ld.coldGroupUS, (coldMS-warmMS)*1e3/float64(cold.Misses))
	}
	add(&ld.groupHitNS, hitNS)
	add(&ld.schemeUS, schemeNS/1e3)
	add(&ld.analyzeUS, analyzeNS/1e3)
	add(&ld.exploreUS, exploreNS/1e3)
	add(&ld.costUS, costNS/1e3)
	add(&ld.saMS, saMS)
	add(&ld.saIters, float64(pf.Iterations))
	if pf.Iterations > 0 {
		add(&ld.saIterUS, saMS*1e3/float64(pf.Iterations))
	}
	if best.Attempted > 0 {
		add(&ld.saAccept, float64(best.Accepted)/float64(best.Attempted))
		add(&ld.saApplied, float64(best.Applied)/float64(best.Attempted))
	}
	add(&ld.cellMS, cellMS)
	add(&ld.overheadShare, (cellMS-coldMS-saMS)/cellMS)
	add(&ld.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	add(&ld.mallocs, float64(after.Mallocs-before.Mallocs))
	return nil
}

// report writes the ladder's medians into the result.
func (ld *ladder) report(r *result) {
	for name, v := range map[string][]float64{
		"noc.build_ms": ld.nocBuildMS, "noc.cores": ld.nocCores, "noc.route_ns": ld.nocRouteNS,
		"graphpart.partition_cold_ms": ld.partColdMS, "graphpart.partition_warm_ms": ld.partWarmMS,
		"graphpart.group_evals": ld.groupEvals, "eval.cold_group_us": ld.coldGroupUS,
		"eval.group_hit_ns": ld.groupHitNS, "eval.scheme_us": ld.schemeUS,
		"core.analyze_us": ld.analyzeUS, "intracore.explore_us": ld.exploreUS, "cost.evaluate_us": ld.costUS,
		"sa.optimize_ms": ld.saMS, "sa.iter_us": ld.saIterUS, "sa.iterations": ld.saIters,
		"sa.accept_share": ld.saAccept, "sa.applied_share": ld.saApplied,
		"dse.cell_ms": ld.cellMS, "dse.cell_overhead_share": ld.overheadShare,
		"dse.alloc_mb_per_cell": ld.allocMB, "dse.mallocs_per_cell": ld.mallocs,
		"eval.sim_ratio_p50": ld.simRatios,
	} {
		r.set(name, median(v))
	}
	r.set("eval.sim_ratio_max", percentile(ld.simRatios, 100))
}

// probeParallel runs a seeded sc.parallelCands-candidate, one-model sub-grid on a cold
// session with one worker and again with two; efficiency is t1 / (2 * t2).
// The two-worker session then feeds the checkpoint probe.
func probeParallel(g grid, opt dse.Options, seed int64, sc scale, r *result, tr *tracer, parent int) {
	span := tr.begin(parent, "probe.parallel")
	defer tr.end(span)
	rng := rand.New(rand.NewSource(seed))
	var cands []arch.Config
	for _, i := range rng.Perm(len(g.cands))[:min(sc.parallelCands, len(g.cands))] {
		cands = append(cands, g.cands[i])
	}
	graphs := g.graphs[:1]
	opt.OnResult, opt.Dispatch = nil, nil
	var ses *dse.Session
	var wall [2]float64
	for i, workers := range []int{1, workerSlots} {
		opt.Workers = workers
		ses = dse.NewSession()
		wall[i] = timed(tr, span, fmt.Sprintf("dse.RunContext.workers%d", workers), func() {
			if _, _, err := ses.RunContext(context.Background(), cands, graphs, opt); err != nil {
				r.failf("parallel probe: %v", err)
			}
		})
	}
	r.set("dse.parallel_efficiency_2", wall[0]/(workerSlots*wall[1]))

	var buf bytes.Buffer
	r.set("dse.checkpoint_save_ms", timed(tr, span, "dse.SaveCheckpoint", func() {
		if err := ses.SaveCheckpoint(&buf); err != nil {
			r.failf("checkpoint save: %v", err)
		}
	}))
	r.set("dse.checkpoint_bytes", float64(buf.Len()))
	fresh := dse.NewSession()
	r.set("dse.checkpoint_load_ms", timed(tr, span, "dse.LoadCheckpoint", func() {
		if err := fresh.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			r.failf("checkpoint load: %v", err)
		}
	}))
	if got, want := fresh.CheckpointCells(), ses.CheckpointCells(); got != want {
		r.failf("checkpoint round trip restored %d cells, want %d", got, want)
	}
}

// probeDisk spills a filled evaluation cache to a temporary cache directory
// and warms a fresh session from it: what a restarted server pays at start-up.
func probeDisk(cache *eval.Cache, outDir string, r *result, tr *tracer, parent int) {
	if cache == nil {
		return
	}
	dir, err := os.MkdirTemp(outDir, "diskcache-*")
	if err != nil {
		r.failf("disk probe: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	path := dse.CachePath(dir)
	r.set("eval.disk_save_ms", timed(tr, parent, "eval.Cache.SaveDisk", func() {
		if err := cache.SaveDisk(path); err != nil {
			r.failf("disk save: %v", err)
		}
	}))
	if fi, err := os.Stat(path); err == nil {
		r.set("eval.disk_bytes", float64(fi.Size()))
	}
	var loaded int
	r.set("eval.disk_load_ms", timed(tr, parent, "dse.Session.WarmDiskCache", func() {
		var err error
		if loaded, err = dse.NewSession().WarmDiskCache(dir); err != nil {
			r.failf("disk load: %v", err)
		}
	}))
	if want := cache.Stats().Entries; loaded != want {
		r.failf("disk round trip loaded %d entries, want %d", loaded, want)
	}
}
