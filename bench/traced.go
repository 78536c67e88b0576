package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runTraced is the per-layer run, kept apart from the timed one: an untraced
// reference pass, the same pass again with client-side spans, the hand-run
// cell ladder, and the probes that need a session of their own. The spans go
// to <outdir>/trace-<workload>.json.
func runTraced(w workload, o options) result {
	r := result{Workload: w.name, Seed: o.seed, Trace: true, Correct: true, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		r.set(d.Name, 0) // metrics that do not apply to this workload stay 0
	}
	tr := newTracer()
	root := tr.begin(0, "run."+w.name)

	setupSpan := tr.begin(root, "setup")
	e, _, err := setup(w, o.seed, o.smoke, tr, setupSpan)
	tr.end(setupSpan)
	if err != nil {
		r.failf("setup: %v", err)
		return r
	}
	defer e.close()
	cells := e.g.cells()
	r.set("dnn.build_ms", median(tr.durationsMS("dnn.build")))
	r.set("dse.enumerate_ms", median(tr.durationsMS("dse.enumerate")))
	r.set("dse.candidates", float64(len(e.g.cands)))
	r.set("dse.cells", float64(cells))

	refSpan := tr.begin(root, "reference_pass") // tracing off inside
	ref := e.runPass(0, nil, 0)
	tr.end(refSpan)
	r.fold(&ref, cells)
	passSpan := tr.begin(root, "pass")
	p := e.runPass(1, tr, passSpan)
	tr.end(passSpan)
	r.fold(&p, cells)
	r.Passes = 2
	r.set("trace_overhead_share", (p.wall-ref.wall)/ref.wall)
	reportPass(&r, &p, e)
	r.set("fleet.lease_rtt_ms", median(tr.durationsMS("fleet.rpc/lease"))) // 0 off the fleet

	if w.kind == kindBurst {
		// The burst once more with a DataDir: what persistence costs, whether
		// finished ids resume from their checkpoints, what is left on disk.
		dir, err := os.MkdirTemp(o.outDir, "datadir-*")
		if err != nil {
			r.failf("datadir: %v", err)
			return r
		}
		defer os.RemoveAll(dir)
		span := tr.begin(root, "pass.datadir")
		persisted := burstPass(w.spec(o.seed, o.smoke), cells, scaleFor(o.smoke).burstPerTenant, dir, tr, span)
		tr.end(span)
		r.fold(&persisted, cells)
		r.set("serve.datadir_cost_share", (persisted.wall-p.wall)/p.wall)
		r.set("serve.resume_ms", median(persisted.resumeMS))
		r.set("serve.data_dir_files", float64(persisted.dataDirFiles))
	}
	if w.kind == kindFleet {
		// The same spec through one in-process server is the fleet's
		// baseline: what is left over is lease, incumbent and merge cost.
		single := env{w: w, smoke: e.smoke, seed: e.seed, g: e.g}
		single.w.kind = kindCold
		base := single.runPass(2, nil, 0)
		r.fold(&base, cells)
		r.set("fleet.overhead_share", (ref.wall-base.wall)/base.wall)
		if base.best != ref.best {
			r.failf("fleet best %v differs from the single-server best %v at the same seed", ref.best, base.best)
		}
	}

	spec, sc := w.spec(o.seed, o.smoke), scaleFor(o.smoke)
	opt := spec.Options()
	ladderSpan := tr.begin(root, "ladder")
	ld, failures := runLadder(e.g, opt, o.seed, sc, tr, ladderSpan)
	tr.end(ladderSpan)
	for _, f := range failures {
		r.failf("%s", f)
	}
	if ld.cells == 0 {
		r.failf("ladder: no feasible cell among the %d drawn", sc.ladderCells)
	} else {
		ld.report(&r)
	}
	probeSpan := tr.begin(root, "probes")
	probeParallel(e.g, opt, o.seed, sc, &r, tr, probeSpan)
	probeDisk(ld.lastCache, o.outDir, &r, tr, probeSpan)
	tr.end(probeSpan)
	tr.end(root)

	if err := tr.write(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
		r.failf("writing spans: %v", err)
	}
	r.spans = tr.spans
	return r
}

// reportPass fills the metrics read off the traced pass itself: the sweep
// scheduler's accounting, the evaluation cache, the client's view of the
// stream, and the fleet's control plane.
func reportPass(r *result, p *pass, e *env) {
	cells := e.g.cells()
	sweeps := max(len(p.sweeps), 1)
	r.set("dse.cells_per_s", float64(cells*sweeps)/p.wall)
	r.set("eval.cache_hit_rate", p.cache.hitRate())
	r.set("eval.cache_flushes", float64(p.cache.flushes))
	r.set("eval.cache_entries", float64(p.cache.entries))
	r.set("eval.cache_misses", float64(p.cache.misses))

	if fp := p.fleet; fp != nil {
		st := fp.status.Stats
		r.set("dse.pruned_share", float64(st.PrunedCandidates)/float64(len(e.g.cands)))
		r.set("fleet.uploads", float64(st.Uploads))
		r.set("fleet.expired_leases", float64(st.ExpiredLeases))
		r.set("fleet.recomputed_settled_cells", float64(st.RecomputedSettledCells))
		r.set("fleet.sa_iterations", float64(st.SAIterations))
		r.set("fleet.worker_imbalance", percentile(fp.workerBusy, 100)/mean(fp.workerBusy))
		return
	}

	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var toStart, queueWait, firstResult, events, bytes, lat []float64
	var results, cands, pruned, abandoned int
	for i := range p.sweeps {
		sw := &p.sweeps[i]
		if !sw.ok() || sw.final.Stats == nil {
			continue
		}
		toStart = append(toStart, ms(sw.start.Sub(sw.post)))
		if !sw.queued.IsZero() {
			queueWait = append(queueWait, ms(sw.start.Sub(sw.queued)))
		}
		if sw.results > 0 {
			firstResult = append(firstResult, ms(sw.firstResult.Sub(sw.post)))
		}
		events, bytes = append(events, float64(sw.events)), append(bytes, float64(sw.bytes))
		lat = append(lat, sw.latencyMS())
		results += sw.results
		cands += sw.final.Stats.Candidates
		pruned += sw.final.Stats.PrunedCandidates
		abandoned += sw.final.Stats.AbandonedRestarts
	}
	if cands > 0 {
		r.set("dse.pruned_share", float64(pruned)/float64(cands))
		r.set("serve.result_event_share", float64(results)/float64(cands))
	}
	r.set("dse.abandoned_restarts", float64(abandoned))
	r.set("serve.submit_to_start_ms", median(toStart))
	r.set("serve.queue_wait_ms", median(queueWait))
	r.set("serve.first_result_ms", median(firstResult))
	r.set("serve.stream_events", median(events))
	r.set("serve.stream_bytes", median(bytes))
	r.set("serve.resume_ms", median(p.resumeMS))
	r.set("serve.sweep_latency_p99_ms", percentile(lat, 99))
}

// durationsMS lists the durations of every span with the given name.
func (t *tracer) durationsMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// printSelfTimes writes the spans' total and self time by name, largest self
// time first: where the traced run's wall-clock went.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	total := make(map[string]int64)
	count := make(map[string]int)
	for _, s := range spans {
		total[s.Name] += s.End - s.Start
		count[s.Name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool {
		if self[names[a]] != self[names[b]] {
			return self[names[a]] > self[names[b]]
		}
		return names[a] < names[b]
	})
	fmt.Fprintf(w, "  %-32s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %8d %12.3f %12.3f\n", n, count[n], float64(total[n])/1e6, float64(self[n])/1e6)
	}
}
