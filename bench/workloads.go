package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/fleet"
	"gemini/internal/serve"
)

// kind selects how a workload's passes are driven.
type kind int

const (
	kindCold  kind = iota // fresh server per pass, one sweep
	kindWarm              // one server, primed in set-up, one sweep per pass
	kindBurst             // fresh server per pass, two closed-loop tenants
	kindFleet             // coordinator plus two loopback workers
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	kind kind
	// cells is the (candidate, model) grid one sweep must report at full
	// scale; the smoke scale derives its own from the spec.
	cells int
	// spec builds the sweep spec for a seed at either scale.
	spec func(seed int64, smoke bool) dse.Spec
	// byHandOnly keeps the workload out of BENCHMARK.json: the driver's
	// total-time cap does not fit it, so it runs only when asked for.
	byHandOnly bool
}

// scale holds the sizes that differ between the real benchmark and the
// smoke run the unit test drives; the specs shrink with the same switch.
type scale struct {
	burstPerTenant int // sweeps each of the two tenants submits per pass
	fleetShards    int
	ladderCells    int // cells the traced run works through by hand
	parallelCands  int // candidates of the workers-1-vs-2 sub-grid
	// loopCalls is how many calls a micro-loop times: enough that a
	// nanosecond-scale call is read off a millisecond-scale interval.
	loopCalls int
	// setupWindow is how long set-up is repeated for. One construction is a
	// fraction of a millisecond and the first few dozen run while the
	// process is still faulting in its heap, so a handful of samples would
	// mostly measure process start.
	setupWindow time.Duration
}

func scaleFor(smoke bool) scale {
	if smoke {
		return scale{burstPerTenant: 8, fleetShards: 4, ladderCells: 2, parallelCands: 4, loopCalls: 1000, setupWindow: time.Millisecond}
	}
	return scale{burstPerTenant: 300, fleetShards: 16, ladderCells: 8, parallelCands: 16, loopCalls: 20000,
		setupWindow: 300 * time.Millisecond}
}

func zooModels(smoke bool, full ...string) []string {
	if smoke {
		return []string{"tinycnn", "tinytransformer"}[:len(full)]
	}
	return full
}

// smallSpace is a cut-free override grid: len(dram) x len(noc) x len(glb) x
// len(macs) monolithic candidates.
func smallSpace(dram, noc []float64, glb, macs []int) dse.SpaceSpec {
	return dse.SpaceSpec{TOPS: 72, Cuts: []int{1}, DRAMPerTOPS: dram, NoCBWs: noc,
		D2DRatios: []float64{0.5}, GLBsKB: glb, MACs: macs}
}

func zoo72Spec(seed int64, smoke bool) dse.Spec {
	sp := dse.Spec{
		Space:  dse.SpaceSpec{TOPS: 72, Reduced: true},
		Models: zooModels(smoke, "resnet50", "transformer"),
		Prune:  true, Seed: seed,
	}
	if smoke {
		sp.Space = smallSpace([]float64{1, 2}, []float64{32, 64}, []int{1024, 2048}, []int{1024})
		sp.SAIterations = 100
	}
	return sp
}

func saDeepSpec(seed int64, smoke bool) dse.Spec {
	sp := dse.Spec{
		Space:        smallSpace([]float64{1, 2}, []float64{32, 64}, []int{1024, 2048}, []int{1024, 2048}),
		Models:       zooModels(smoke, "resnet50", "transformer"),
		SAIterations: 5000, Restarts: 4, Seed: seed,
	}
	if smoke {
		sp.SAIterations, sp.Restarts = 400, 2
	}
	return sp
}

func zoo512Spec(seed int64, smoke bool) dse.Spec {
	sp := dse.Spec{
		Space:  dse.SpaceSpec{TOPS: 512, Reduced: true, Cuts: []int{2, 4}},
		Models: zooModels(smoke, "transformerlarge"),
		Prune:  true, Seed: seed,
	}
	if smoke {
		sp.Space.DRAMPerTOPS, sp.Space.NoCBWs = []float64{2}, []float64{64}
		sp.Space.GLBsKB, sp.Space.MACs = []int{1024}, []int{4096}
		sp.SAIterations = 50
	}
	return sp
}

func burstSpec(seed int64, smoke bool) dse.Spec {
	return dse.Spec{
		Space:        smallSpace([]float64{2}, []float64{32, 64}, []int{1024}, []int{1024}),
		Models:       []string{"tinycnn", "tinytransformer"},
		SAIterations: 100, Workers: 0, Seed: seed,
	}
}

var workloads = []workload{
	{name: "zoo72_cold", kind: kindCold, cells: 224, spec: zoo72Spec,
		why: "reduced 72-TOPs Table I grid x {resnet50, transformer} on a fresh server: graphpart and cold eval do ~85% of the work"},
	{name: "zoo72_warm", kind: kindWarm, cells: 224, spec: zoo72Spec,
		why: "the same grid again on the primed server at seed+1: every Partition lookup is a potential eval.Cache hit"},
	{name: "sa_deep", kind: kindCold, cells: 32, spec: saDeepSpec,
		why: "16 candidates at 5000 SA iterations x 4 restarts: SA moves over memoised eval dominate, graphpart is ~20%"},
	{name: "zoo512", kind: kindCold, cells: 16, spec: zoo512Spec, byHandOnly: true,
		why: "512-TOPs meshes of 64-256 cores on transformerlarge: route tables, core.Analyze and multicast cost grow with core count"},
	{name: "queue_burst", kind: kindBurst, cells: 4, spec: burstSpec,
		why: "600 tiny whole-pool sweeps from two closed-loop tenants: admission, DRR dispatch, NDJSON and checkpoint files do the work"},
	{name: "fleet72", kind: kindFleet, cells: 224, spec: zoo72Spec,
		why: "the zoo72_cold spec through a coordinator and two loopback workers over 16 shards: lease, incumbent and merge overhead"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// grid is a resolved spec: what the harness needs to know about the sweep
// independently of what the server reports.
type grid struct {
	cands  []arch.Config
	graphs []*dnn.Graph
}

func (g grid) cells() int { return len(g.cands) * len(g.graphs) }

// resolve validates the spec, enumerates its candidates and builds its
// graphs, with a span around each layer when tracing.
func resolve(spec dse.Spec, tr *tracer, parent int) (grid, error) {
	if err := spec.Validate(); err != nil {
		return grid{}, err
	}
	id := tr.begin(parent, "dse.enumerate")
	cands, err := spec.Candidates()
	tr.end(id)
	if err != nil {
		return grid{}, err
	}
	id = tr.begin(parent, "dnn.build")
	graphs, err := spec.Graphs()
	tr.end(id)
	return grid{cands: cands, graphs: graphs}, err
}

// pass is one timed repetition of a workload.
type pass struct {
	wall, cpu, heapMB float64
	sweeps            []sweepRun
	best              float64 // objective of the first sweep's best
	cache             cacheCounts
	fleet             *fleetPass
	failures          []string

	// Traced runs only.
	resumeMS     []float64 // latency of re-POSTing finished ids
	dataDirFiles int
}

func (p *pass) failf(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// liveHeapMB forces a collection and reads what survived it. It collects
// twice: connections and files of the previous pass's server carry
// finalizers, which run after the first cycle and free memory in the second.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measure times fn, which submits work and returns when it has all ended,
// and fills the pass's wall, CPU and live-heap numbers. The servers fn used
// must still be alive when measure returns.
func (p *pass) measure(fn func()) {
	cpu0, t0 := cpuSeconds(), time.Now()
	fn()
	p.wall = time.Since(t0).Seconds()
	p.cpu = cpuSeconds() - cpu0
	p.heapMB = liveHeapMB()
}

// checkSweeps applies the output checks to every sweep of a pass. Grid
// sizes come from the done event's stats and from GET /sweeps/{id}, never
// from counting result events: the stream drops results whose display name
// another candidate shares (recorded as serve.result_event_share).
func (p *pass) checkSweeps(s *testServer) {
	bestAt := make(map[int64]float64) // seed -> best objective: equal seeds must agree bit for bit
	for i := range p.sweeps {
		r := &p.sweeps[i]
		if !r.ok() {
			p.failf("sweep %s: err=%v terminal=%q error_cells=%d", r.id, r.err, r.final.Type, r.errorCells)
			continue
		}
		st := r.final.Stats
		if st == nil || st.Cells != r.cells {
			p.failf("sweep %s: done stats %+v, want %d cells", r.id, st, r.cells)
			continue
		}
		if st.Panics+st.DeadlineExceeded+st.PersistenceErrors > 0 {
			p.failf("sweep %s: faults in stats: %+v", r.id, *st)
		}
		var status serve.SweepStatus
		if err := getJSON(s, "/sweeps/"+r.id, &status); err != nil {
			p.failf("sweep %s: status: %v", r.id, err)
			continue
		}
		if status.State != serve.StateDone || status.Cells != r.cells || status.Stats == nil || status.Stats.Cells != r.cells {
			p.failf("sweep %s: status state=%s cells=%d, want done/%d", r.id, status.State, status.Cells, r.cells)
		}
		best := r.final.Best
		if best == nil || !(best.Objective > 0) {
			p.failf("sweep %s: no feasible best", r.id)
			continue
		}
		if r.minResultObj > 0 && best.Objective > r.minResultObj {
			p.failf("sweep %s: best %g is worse than a streamed result %g", r.id, best.Objective, r.minResultObj)
		}
		if prev, seen := bestAt[r.seed]; seen && prev != best.Objective {
			p.failf("sweep %s: best %g differs from %g at the same seed", r.id, best.Objective, prev)
		}
		bestAt[r.seed] = best.Objective
		if i == 0 {
			p.best = best.Objective
		}
	}
}

// sweepPass runs one closed-loop sweep on s and checks it.
func sweepPass(s *testServer, spec dse.Spec, cells int, tr *tracer, parent int) pass {
	var p pass
	before, err := serverCache(s)
	if err != nil {
		p.failf("healthz: %v", err)
	}
	p.measure(func() {
		p.sweeps = append(p.sweeps, postSweep(context.Background(), s, spec, cells, tr, parent))
	})
	after, err := serverCache(s)
	if err != nil {
		p.failf("healthz: %v", err)
	}
	p.cache = after.sub(before)
	p.checkSweeps(s)
	if tr != nil {
		p.probeResume(s, []dse.Spec{spec}, cells, tr, parent)
	}
	return p
}

// burstPass drains n unique-id sweeps from each of two closed-loop tenants
// on a fresh server. workers 0 makes every sweep ask for the whole pool, so
// the tenants alternate through the queue and one of them always waits. Every
// sweep carries the same seed: after the first, the session answers from its
// settled cells, so what is timed is admission, dispatch and streaming.
//
// The timed passes run without a DataDir. With one, nine tenths of a pass is
// checkpoint and status file I/O and half of that is kernel time that swings
// by 2x with the host's disk, which no bound can hold. The traced run adds a
// pass with dataDir set: it prices persistence (serve.datadir_cost_share),
// re-POSTs finished ids and counts the files left behind.
func burstPass(spec dse.Spec, cells, n int, dataDir string, tr *tracer, parent int) pass {
	var p pass
	s := newTestServer(dataDir)
	defer s.close()
	specs := make([][]dse.Spec, 2)
	runs := make([][]sweepRun, 2)
	for k := range specs {
		for i := 0; i < n; i++ {
			sp := spec
			sp.Tenant = fmt.Sprintf("t%d", k)
			sp.ID = fmt.Sprintf("burst-t%d-%03d", k, i)
			specs[k] = append(specs[k], sp)
		}
	}
	p.measure(func() {
		var wg sync.WaitGroup
		for k := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, sp := range specs[k] {
					runs[k] = append(runs[k], postSweep(context.Background(), s, sp, cells, tr, parent))
				}
			}()
		}
		wg.Wait()
	})
	var err error
	if p.cache, err = serverCache(s); err != nil {
		p.failf("healthz: %v", err)
	}
	p.sweeps = append(runs[0], runs[1]...)
	p.checkSweeps(s)
	if dataDir != "" {
		p.probeResume(s, specs[0][:min(resumeProbes, n)], cells, tr, parent)
		if files, err := os.ReadDir(dataDir); err == nil {
			p.dataDirFiles = len(files)
		}
	}
	return p
}

// resumeProbes is how many finished ids the traced run re-POSTs.
const resumeProbes = 50

// probeResume re-POSTs finished sweeps under their own ids and requires
// every cell to come back from the checkpoint (traced runs only).
func (p *pass) probeResume(s *testServer, specs []dse.Spec, cells int, tr *tracer, parent int) {
	id := tr.begin(parent, "serve.resume")
	defer tr.end(id)
	for _, sp := range specs {
		r := postSweep(context.Background(), s, sp, cells, nil, 0)
		if !r.ok() || r.final.Stats == nil || r.final.Stats.ResumedCells != cells {
			p.failf("resume of %s: err=%v stats=%+v, want %d resumed cells", sp.ID, r.err, r.final.Stats, cells)
			continue
		}
		p.resumeMS = append(p.resumeMS, r.latencyMS())
	}
}

// fleetPass is what a fleet drain adds to a pass.
type fleetPass struct {
	status     fleet.SweepStatus
	workerBusy []float64 // seconds each worker spent in RunWorker
}

// rpcTracer records a span per control-plane round trip of one worker
// (traced runs): fleet.rpc/lease, /renew, /incumbent, /checkpoint.
type rpcTracer struct {
	tr     *tracer
	parent int
}

func (r rpcTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	id := r.tr.begin(r.parent, "fleet.rpc"+req.URL.Path)
	defer r.tr.end(id)
	return http.DefaultTransport.RoundTrip(req)
}

// runFleetPass submits spec to a fresh coordinator and drains it with two
// one-slot loopback workers. Wall time runs from the submit to the
// coordinator reporting the sweep done.
func runFleetPass(spec dse.Spec, cells, shards int, tr *tracer, parent int) pass {
	var p pass
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{})
	ts := httptest.NewServer(coord)
	defer ts.Close()
	fp := &fleetPass{workerBusy: make([]float64, workerSlots)}
	p.fleet = fp
	sessions := make([]*dse.Session, workerSlots)
	for i := range sessions {
		sessions[i] = dse.NewSession()
	}
	errs := make([]error, workerSlots)
	p.measure(func() {
		body, _ := json.Marshal(fleet.SubmitRequest{Spec: spec, Shards: shards})
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			p.failf("fleet submit: %v", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			p.failf("fleet submit answered %d", resp.StatusCode)
			return
		}
		var wg sync.WaitGroup
		for i := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := fleet.WorkerConfig{
					Coordinator: ts.URL, Name: fmt.Sprintf("w%d", i),
					Workers: 1, ExitWhenIdle: true, Session: sessions[i],
				}
				if tr != nil {
					span := tr.begin(parent, "fleet.worker")
					defer tr.end(span)
					cfg.Client = &http.Client{Timeout: 30 * time.Second, Transport: rpcTracer{tr, span}}
				}
				t0 := time.Now()
				errs[i] = fleet.RunWorker(context.Background(), cfg)
				fp.workerBusy[i] = time.Since(t0).Seconds()
			}()
		}
		wg.Wait()
		fp.status, _ = coord.Status(spec.ID)
	})
	if len(p.failures) > 0 {
		return p
	}
	for i, err := range errs {
		if err != nil {
			p.failf("fleet worker %d: %v", i, err)
		}
	}
	for _, ses := range sessions {
		cs := ses.CacheStats()
		p.cache.hits += cs.Hits
		p.cache.misses += cs.Misses
		p.cache.flushes += cs.Flushes
		p.cache.entries += cs.Entries
	}
	st := fp.status
	if st.State != "done" || st.Cells != cells || st.ShardsDone != st.Shards {
		p.failf("fleet sweep state=%s cells=%d shards %d/%d, want done/%d", st.State, st.Cells, st.ShardsDone, st.Shards, cells)
	}
	if st.Stats.RecomputedSettledCells != 0 {
		p.failf("fleet recomputed %d settled cells, want 0", st.Stats.RecomputedSettledCells)
	}
	if !st.Incumbent.Found || !(st.Incumbent.Objective > 0) {
		p.failf("fleet sweep found no feasible best")
	}
	p.best = st.Incumbent.Objective
	return p
}

// verifyBest recomputes the reported best candidate from scratch with
// dse.Run and requires the objective to match bit for bit. Display names
// are shared by XCut/YCut transposes, so every candidate with the winning
// name is tried. This is the timed run's independent output check; it runs
// outside every measured interval.
func verifyBest(spec dse.Spec, g grid, name string, objective float64) error {
	opt := spec.Options()
	opt.Prune = false
	opt.Workers = workerSlots
	var got []float64
	for i := range g.cands {
		if g.cands[i].Name != name {
			continue
		}
		res := dse.NewSession().Run(g.cands[i:i+1], g.graphs, opt)
		if len(res) == 1 && res[0].Feasible {
			if res[0].Obj == objective {
				return nil
			}
			got = append(got, res[0].Obj)
		}
	}
	return fmt.Errorf("best %q objective %v not reproduced by dse.Run (got %v)", name, objective, got)
}

// latenciesMS lists the pass's per-sweep latencies; a fleet drain is one sweep.
func (p *pass) latenciesMS() []float64 {
	if p.fleet != nil {
		return []float64{p.wall * 1e3}
	}
	out := make([]float64, len(p.sweeps))
	for i := range p.sweeps {
		out[i] = p.sweeps[i].latencyMS()
	}
	return out
}

// bestName returns the winning architecture's display name for a pass.
func (p *pass) bestName() string {
	if p.fleet != nil {
		return p.fleet.status.Incumbent.Candidate
	}
	for i := range p.sweeps {
		if b := p.sweeps[i].final.Best; b != nil {
			return b.Arch
		}
	}
	return ""
}

// env is a workload's live state between set-up and its passes.
type env struct {
	w      workload
	smoke  bool
	seed   int64
	g      grid
	server *testServer // the warm workload keeps its primed server for every pass
}

func (e *env) close() {
	if e.server != nil {
		e.server.close()
	}
}

// passSeed is the SA seed of pass n. Passes on a fresh server all use the
// workload seed. The warm workload re-runs the primed grid at a seed the
// server has not seen (seed+1, seed+2, ...), so its settled cells cannot
// answer the sweep and only the evaluation cache can help.
func (e *env) passSeed(n int) int64 {
	if e.w.kind == kindWarm {
		return e.seed + 1 + int64(n)
	}
	return e.seed
}

// setupReps is the least number of times set-up is repeated, however short
// the scale's setupWindow; setup_s is the median.
const setupReps = 21

// setup builds the workload's environment and reports set-up time: graph
// building, space enumeration and server construction (median over the
// repetitions), plus, for the warm workload, the priming sweep.
func setup(w workload, seed int64, smoke bool, tr *tracer, parent int) (*env, float64, error) {
	e := &env{w: w, smoke: smoke, seed: seed}
	var samples []float64
	window := scaleFor(smoke).setupWindow
	for rep, begin := 0, time.Now(); rep < setupReps || time.Since(begin) < window; rep++ {
		t0 := time.Now()
		traceRep := tr
		if rep > 0 {
			traceRep = nil // one set of set-up spans is enough
		}
		g, err := resolve(w.spec(seed, smoke), traceRep, parent)
		if err != nil {
			return nil, 0, err
		}
		id := traceRep.begin(parent, "serve.New")
		var stop func()
		if w.kind == kindFleet {
			stop = httptest.NewServer(fleet.NewCoordinator(fleet.CoordinatorConfig{})).Close
		} else {
			stop = newTestServer("").close
		}
		traceRep.end(id)
		samples = append(samples, time.Since(t0).Seconds())
		stop()
		e.g = g
	}
	setupS := median(samples)
	if !smoke && e.g.cells() != w.cells {
		return nil, 0, fmt.Errorf("%s: spec resolves to %d cells, want %d", w.name, e.g.cells(), w.cells)
	}
	if w.kind == kindWarm {
		e.server = newTestServer("")
		t0 := time.Now()
		spec := w.spec(seed, smoke)
		spec.ID = "prime"
		id := tr.begin(parent, "setup.prime")
		p := sweepPass(e.server, spec, e.g.cells(), nil, 0)
		tr.end(id)
		if len(p.failures) > 0 {
			e.close()
			return nil, 0, fmt.Errorf("priming sweep: %v", p.failures)
		}
		setupS += time.Since(t0).Seconds()
	}
	return e, setupS, nil
}

// runPass executes pass number n of the workload.
func (e *env) runPass(n int, tr *tracer, parent int) pass {
	spec := e.w.spec(e.passSeed(n), e.smoke)
	spec.ID = fmt.Sprintf("%s-p%d", e.w.name, n)
	cells := e.g.cells()
	switch e.w.kind {
	case kindWarm:
		return sweepPass(e.server, spec, cells, tr, parent)
	case kindBurst:
		return burstPass(spec, cells, scaleFor(e.smoke).burstPerTenant, "", tr, parent)
	case kindFleet:
		return runFleetPass(spec, cells, scaleFor(e.smoke).fleetShards, tr, parent)
	default:
		s := newTestServer("")
		defer s.close()
		return sweepPass(s, spec, cells, tr, parent)
	}
}
