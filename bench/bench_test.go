package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestMedianPercentileQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Reference values from Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{ten, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{17.65, 17.76, 17.78, 17.44, 17.20}, [3]float64{17.32, 17.65, 17.77}},
	} {
		q1, q2, q3 := quartiles(c.v)
		for i, got := range [3]float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.v, i, got, c.want[i])
			}
		}
	}
	if got := spreadShare([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spreadShare = %v, want 0.2", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "worker", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "worker", Start: 40, End: 90}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "rpc", Start: 20, End: 30},
		{ID: 5, Parent: 1, Name: "late", Start: 95, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	// pass: 100 minus the union [10,90] and the clipped [95,100] = 15.
	// worker: (50 - 10) + 50 = 90. rpc: 10. late: 25.
	for name, want := range map[string]int64{"pass": 15, "worker": 90, "rpc": 10, "late": 25} {
		if self[name] != want {
			t.Errorf("self[%s] = %d, want %d", name, self[name], want)
		}
	}
	var off *tracer
	if id := off.begin(0, "x"); id != 0 {
		t.Errorf("nil tracer begin = %d, want 0", id)
	}
	off.end(0) // must not panic
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{80, 120, 100, 70, 130}
	for _, c := range []struct {
		name    string
		d       metricDef
		a, b    []float64
		verdict string
	}{
		{"same", lower, steady, steady, verdictOK},
		{"within bound", lower, steady, []float64{108, 109, 107, 108, 108}, verdictOK},
		{"beyond bound", lower, steady, []float64{112, 113, 111, 112, 112}, verdictBreach},
		{"faster is fine", lower, steady, []float64{50, 51, 49, 50, 50}, verdictOK},
		{"noisy, same median", lower, noisy, noisy, verdictUnresolved},
		{"noisy but every run better", lower, noisy, []float64{60, 65, 62, 61, 69}, verdictOK},
		{"rate dropped", higher, steady, []float64{85, 86, 84, 85, 85}, verdictBreach},
		{"rate rose", higher, steady, []float64{150, 151, 149, 150, 150}, verdictOK},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.verdict {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.verdict)
		}
	}
	if worse, _ := judge(higher, []float64{100}, []float64{80}); math.Abs(worse-0.2) > 1e-12 {
		t.Errorf("worse share = %v, want 0.2", worse)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "sa_deep", "--trace", "1", "--seed", "3", "-trace", "0", "-trace"})
	want := []string{"--workload", "sa_deep", "--trace=1", "--seed", "3", "-trace=0", "-trace"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesHarness holds BENCHMARK.json and the harness's own
// declarations together: same workloads, same metrics, same units, bounds.
func TestManifestMatchesHarness(t *testing.T) {
	m := readManifest(t)
	if strings.Join(m.Command, " ") != "go run ./bench" || len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("command %v / paths %v, want go run ./bench / [bench]", m.Command, m.Paths)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, want the harness default %d", m.RunSeconds, defaultSeconds)
	}
	var driven []workload
	for _, w := range workloads {
		if !w.byHandOnly {
			driven = append(driven, w)
		}
	}
	if len(m.Workloads) != len(driven) {
		t.Fatalf("manifest has %d workloads, harness drives %d", len(m.Workloads), len(driven))
	}
	for i, w := range driven {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, harness %s / %s", i, m.Workloads[i], w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, harness %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: manifest %+v, harness %+v", kind, i, g, d)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) {
				t.Errorf("%s[%d]: name %q or unit %q outside the allowed alphabet", kind, i, g.Name, g.Unit)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s[%d] %s: bound present = %t, want %t", kind, i, g.Name, g.Bound != nil, bounded)
			} else if bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s[%d] %s: bound %v, harness %v, want equal and in (0, 0.25]", kind, i, g.Name, *g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// contract is the last stdout line of a run.
type contract struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// TestSmokeEveryWorkload runs every workload at the smoke scale, timed and
// traced, through the same entry point the driver uses, and requires every
// metric BENCHMARK.json names to be printed with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	m := readManifest(t)
	dir := t.TempDir()
	sets := [2]string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for _, w := range workloads {
		for _, c := range []struct {
			trace string
			want  []manifestMetric
		}{{"0", m.EndToEnd}, {"1", m.PerLayer}} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0", "--trace", c.trace,
				"-smoke", "-outdir", dir, "-out", sets[0]}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.name, c.trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var got contract
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s trace=%s: last line is not the contract object: %v", w.name, c.trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%t attempted=%d failed=%d", w.name, c.trace, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(c.want) {
				t.Errorf("%s trace=%s: %d metrics printed, manifest names %d", w.name, c.trace, len(got.Metrics), len(c.want))
			}
			for _, d := range c.want {
				v, ok := got.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s printed as %+v (present %t), want unit %s", w.name, c.trace, d.Name, v, ok, d.Unit)
				}
				if c.trace == "0" && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v.Value)
				}
				if !strings.Contains(stdout.String(), d.Name) {
					t.Errorf("%s trace=%s: %s missing from the printed table", w.name, c.trace, d.Name)
				}
			}
			if c.trace == "1" {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}
	// Temporary DataDirs and disk-cache spills are gone; only the run set
	// and the span files remain.
	left, _ := filepath.Glob(filepath.Join(dir, "*"))
	for _, p := range left {
		if b := filepath.Base(p); b != "a.json" && !strings.HasPrefix(b, "trace-") {
			t.Errorf("left behind: %s", p)
		}
	}

	// A set compared with itself breaches nothing; best_objective is exact.
	raw, err := os.ReadFile(sets[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sets[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", sets[0], sets[1]}, &stdout, &stderr); code != 0 {
		t.Errorf("self-compare exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "best_objective") || strings.Contains(stdout.String(), verdictBreach) {
		t.Errorf("self-compare output:\n%s", stdout.String())
	}
	// Make every wall time of set B half as slow again: that is a breach.
	var rs runSet
	if err := json.Unmarshal(raw, &rs); err != nil {
		t.Fatal(err)
	}
	for _, r := range rs.Runs {
		if v, ok := r.Metrics["sweep_wall_s"]; ok {
			v.Value *= 1.5
			r.Metrics["sweep_wall_s"] = v
		}
	}
	slow, _ := json.Marshal(rs)
	if err := os.WriteFile(sets[1], slow, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"-compare", sets[0], sets[1]}, &stdout, &stderr); code != 1 {
		t.Errorf("compare against a 50%% slower set: exit %d, want 1\n%s", code, stdout.String())
	}
}

func TestUnknownWorkloadAndSeed(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
	if code := run([]string{"-seed", "0"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("seed 0: exit %d, stdout %q", code, stdout.String())
	}
}
