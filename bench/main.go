// Command bench is the repo's end-to-end benchmark: real-zoo Table I sweeps
// submitted over POST /sweep and through the fleet, timed to the done event,
// plus a traced run that decomposes a cell into its layers. BENCHMARK.json
// at the repo root names it; README.md in this directory says what every
// workload and metric is for.
//
//	go run ./bench                         all workloads, end-to-end metrics
//	go run ./bench -trace                  per-layer metrics and span files
//	go run ./bench -workload sa_deep -seed 7 -seconds 20 -out a.json
//	go run ./bench -compare a.json b.json  judge two sets of runs by the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 10

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string // span files and temporary DataDirs live here
}

// result is one workload's run: the record -out appends and -compare reads.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Passes    int               `json:"passes"`
	Metrics   map[string]metric `json:"metrics"`
	Failures  []string          `json:"failures,omitempty"`

	spans []span // traced runs: printed as the self-time table
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64) {
	d, ok := metricByName[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	if !isFinite(v) {
		r.failf("metric %s is not finite: %v", name, v)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: d.Unit}
}

func (r *result) failf(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// fold adds a pass's accounting: every cell of a sweep that did not end
// done counts as failed, as does every cell that reported status error.
func (r *result) fold(p *pass, cells int) {
	for i := range p.sweeps {
		r.Attempted += cells
		if sw := &p.sweeps[i]; sw.err != nil || sw.final.Type != "done" {
			r.Failed += cells
		} else {
			r.Failed += sw.errorCells
		}
	}
	if p.fleet != nil {
		r.Attempted += cells
		if p.fleet.status.State != "done" {
			r.Failed += cells
		}
	}
	for _, f := range p.failures {
		r.failf("%s", f)
	}
}

// contractLine is the one-object last line the benchmark driver parses.
func (r *result) contractLine(defs []metricDef) string {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct && r.Failed == 0, r.Attempted, r.Failed, make(map[string]metric, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = r.Metrics[d.Name]
	}
	raw, _ := json.Marshal(out)
	return string(raw)
}

// print writes the human-readable metric table followed by the contract line.
func (r *result) print(w io.Writer, defs []metricDef) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  passes %d  attempted %d  failed %d\n",
		r.Workload, r.Seed, mode, r.Passes, r.Attempted, r.Failed)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, m.Value, m.Unit)
	}
	if r.Trace {
		printSelfTimes(w, r.spans)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
	fmt.Fprintln(w, r.contractLine(defs))
}

// runTimed is the tracing-off run: set up, repeat passes while the next one
// still fits in the time budget, report medians.
func runTimed(w workload, o options) result {
	r := result{Workload: w.name, Seed: o.seed, Correct: true, Metrics: map[string]metric{}}
	e, setupS, err := setup(w, o.seed, o.smoke, nil, 0)
	if err != nil {
		r.failf("setup: %v", err)
		return r
	}
	defer e.close()
	// Each pass is folded into numbers as soon as it ends and then dropped,
	// so what the harness retains does not show up in the next pass's heap.
	var first pass
	var wall, cpu, heap, lat []float64
	begin := time.Now()
	for n := 0; ; n++ {
		t0 := time.Now()
		p := e.runPass(n, nil, 0)
		r.fold(&p, e.g.cells())
		wall, cpu, heap = append(wall, p.wall), append(cpu, p.cpu), append(heap, p.heapMB)
		lat = append(lat, p.latenciesMS()...)
		if n == 0 {
			// Copied, not sliced: a slice would pin every sweep of the pass.
			first = pass{best: p.best, fleet: p.fleet, sweeps: append([]sweepRun(nil), p.sweeps[:min(1, len(p.sweeps))]...)}
		} else if p.best != first.best && w.kind != kindWarm {
			r.failf("pass %d best %g differs from pass 0 best %g at the same seed", n, p.best, first.best)
		}
		if time.Since(begin)+time.Since(t0) > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	r.Passes = len(wall)
	if r.Correct {
		spec := w.spec(e.passSeed(0), o.smoke)
		if err := verifyBest(spec, e.g, first.bestName(), first.best); err != nil {
			r.failf("%v", err)
		}
	}
	r.set("setup_s", setupS)
	r.set("sweep_wall_s", median(wall))
	r.set("sweep_cpu_s", median(cpu))
	r.set("best_objective", first.best)
	r.set("live_heap_mb", heap[0])
	r.set("sweep_latency_p50_ms", median(lat))
	r.set("sweep_latency_p90_ms", percentile(lat, 90))
	r.set("sweeps_per_s", float64(len(lat))/sum(wall))
	return r
}

// normalizeArgs lets -trace be used both as a bare switch and in the
// driver's "--trace 0|1" form, which the flag package's boolean syntax
// would otherwise read as a switch followed by a stray argument.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the sweeps' SA seed and the traced sample's draw")
	seconds := fs.Float64("seconds", defaultSeconds, "measurement budget per workload; passes repeat while the next one fits")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and bench/out/trace-<workload>.json")
	out := fs.String("out", "", "append this invocation's results to a JSON run set (for -compare)")
	compare := fs.Bool("compare", false, "compare two run sets: bench -compare a.json b.json")
	smoke := fs.Bool("smoke", false, "tiny grids for every workload (the unit-test scale)")
	outDir := fs.String("outdir", filepath.Join("bench", "out"), "directory for span files and temporary data")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seed < 1 {
		fmt.Fprintln(stderr, "bench: -seed must be >= 1 (the sweep spec treats 0 as unset)")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	// Two processors and two worker slots everywhere, whatever the host has.
	runtime.GOMAXPROCS(workerSlots)
	o := options{seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke, outDir: *outDir}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	ok := true
	var results []result
	var coldBest float64 // zoo72_cold's best, when this invocation ran it
	for _, w := range selected {
		var r result
		if o.trace {
			r = runTraced(w, o)
		} else {
			r = runTimed(w, o)
		}
		if r.Attempted == 0 {
			r.Attempted, r.Failed = 1, 1
		}
		// The fleet must land on the single-process best at the same seed.
		if best := r.Metrics["best_objective"].Value; w.name == "zoo72_cold" {
			coldBest = best
		} else if w.name == "fleet72" && coldBest != 0 && best != coldBest {
			r.failf("fleet72 best_objective %v differs from zoo72_cold's %v", best, coldBest)
		}
		r.print(stdout, defs)
		results = append(results, r)
		ok = ok && r.Correct && r.Failed == 0
	}
	if *out != "" {
		if err := appendRunSet(*out, results); err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", *out, err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
