package lint

import (
	"go/ast"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestDeterminismAnalyzer(t *testing.T) {
	AnalyzerTest(t, "testdata/src/determinism", DeterminismAnalyzer)
}

func TestDeterminismOutputMode(t *testing.T) {
	AnalyzerTest(t, "testdata/src/determinismoutput", DeterminismAnalyzer)
}

func TestLockHygieneAnalyzer(t *testing.T) {
	AnalyzerTest(t, "testdata/src/lockhygiene", LockHygieneAnalyzer)
}

func TestHotPathAllocAnalyzer(t *testing.T) {
	AnalyzerTest(t, "testdata/src/hotpathalloc", HotPathAllocAnalyzer)
}

func TestErrClassAnalyzer(t *testing.T) {
	AnalyzerTest(t, "testdata/src/errclass", ErrClassAnalyzer)
}

func TestExportedDocAnalyzer(t *testing.T) {
	AnalyzerTest(t, "testdata/src/exporteddoc", ExportedDocAnalyzer)
}

func TestExportedDocPackageClause(t *testing.T) {
	AnalyzerTest(t, "testdata/src/exporteddocpkg", ExportedDocAnalyzer)
}

// TestLoaderModulePatterns exercises import-path and wildcard loading
// against the real module.
func TestLoaderModulePatterns(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load("gemini/internal/lint")
	if err != nil {
		t.Fatalf("load by import path: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "gemini/internal/lint" {
		t.Fatalf("load by import path: got %d packages, want exactly gemini/internal/lint", len(pkgs))
	}
	pkgs, err = l.Load("gemini/internal/...")
	if err != nil {
		t.Fatalf("load wildcard: %v", err)
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.Path] = true
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("wildcard load matched testdata package %s", p.Path)
		}
	}
	for _, want := range []string{"gemini/internal/dse", "gemini/internal/eval", "gemini/internal/sa"} {
		if !seen[want] {
			t.Errorf("wildcard load missed %s (got %v)", want, pkgs)
		}
	}
}

// TestSuiteCleanOnRepo is the regression pin for the suite's first real run:
// every engine and command package must pass every analyzer with zero
// findings. Any new finding is either a real regression (fix it) or a
// deliberate exception (suppress it with a reasoned //gemini:*-ok comment).
func TestSuiteCleanOnRepo(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load("gemini/internal/...", "gemini/cmd/...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestNoallocAnnotationsMatchBenchCoverage ties the //gemini:noalloc
// annotation set to measured zero-allocation evidence: every function a
// testing.AllocsPerRun pin covers (per the table below) must be annotated,
// and every annotated function in the module must appear in exactly that
// evidence set. Annotating an unmeasured function or measuring an
// unannotated one fails here, so the analyzer's reach and the pins cannot
// drift apart.
func TestNoallocAnnotationsMatchBenchCoverage(t *testing.T) {
	// Functions each AllocsPerRun pin exercises, keyed by the pinning test.
	allocsPerRunPins := map[string][]string{
		"internal/eval/alloc_test.go:TestEvaluateGroupAllocFree": {
			"gemini/internal/core.AnalyzeInto",
			"gemini/internal/eval.Evaluator.EvaluateGroup",
			"gemini/internal/eval.Evaluator.summary",
			"gemini/internal/eval.Evaluator.finish",
			"gemini/internal/eval.Evaluator.summarizeAnalysis",
			// summarizeGroup is exactly AnalyzeInto and summarizeAnalysis
			// around a sync.Pool Get/Put of their scratch.
			"gemini/internal/eval.Evaluator.summarizeGroup",
			// What summarizeAnalysis routes and digests traffic with.
			"gemini/internal/eval.AddActivations",
			"gemini/internal/noc.Traffic.Digest",
			"gemini/internal/noc.Traffic.ClassLoads",
			"gemini/internal/noc.Traffic.DRAMLoad",
			"gemini/internal/noc.Network.Resolve",
		},
		"internal/graphpart/alloc_test.go:TestSegmentHitAllocFree": {
			"gemini/internal/eval.Evaluator.SegmentKey",
			"gemini/internal/eval.Evaluator.LookupGroup",
			// G-Arch-72 has two chiplets: its segments are cut-free entries,
			// resolved under the asker's cut on every hit.
			"gemini/internal/eval.Evaluator.resolve",
			"gemini/internal/graphpart.segmenter.evaluate",
		},
		"internal/graphpart/alloc_test.go:TestSegmentMissAllocs": {
			"gemini/internal/core.Striper.Scratch",
			"gemini/internal/core.stripeBufs.stripes",
			"gemini/internal/core.stripeBufs.allocateCores",
			"gemini/internal/graphpart.segmenter.evaluateMiss",
		},
		"internal/sa/alloc_test.go:TestMovePathAllocFree": {
			"gemini/internal/sa.measure",
			"gemini/internal/sa.state.cost",
			"gemini/internal/sa.annealer.step",
		},
		"internal/noc/alloc_test.go:TestSideOfAllocFree": {
			"gemini/internal/noc.Cut.SideOf",
		},
	}
	expected := map[string]bool{}
	for pin, funcs := range allocsPerRunPins {
		file, test, _ := strings.Cut(pin, ":")
		src, err := os.ReadFile("../../" + file)
		if err != nil || !strings.Contains(string(src), "func "+test+"(") {
			t.Errorf("pin %s not found (%v)", pin, err)
		}
		for _, f := range funcs {
			expected[f] = true
		}
	}

	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load("gemini/internal/...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	annotated := map[string]bool{}
	for _, pkg := range pkgs {
		for _, name := range NoallocFuncs(pkg) {
			annotated[pkg.Path+"."+name] = true
		}
	}

	var missing, extra []string
	for f := range expected {
		if !annotated[f] {
			missing = append(missing, f)
		}
	}
	for f := range annotated {
		if !expected[f] {
			extra = append(extra, f)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, f := range missing {
		t.Errorf("%s has an AllocsPerRun pin but no //gemini:noalloc annotation", f)
	}
	for _, f := range extra {
		t.Errorf("%s is annotated //gemini:noalloc but has no AllocsPerRun pin", f)
	}
}

// TestDirectiveParsing pins the //gemini: comment grammar.
func TestDirectiveParsing(t *testing.T) {
	cases := []struct {
		text      string
		key, val  string
		directive bool
	}{
		{"//gemini:noalloc", "noalloc", "", true},
		{"//gemini:nondeterministic-ok sorted below", "nondeterministic-ok", "sorted below", true},
		{"//gemini:lock-ok callback cannot panic", "lock-ok", "callback cannot panic", true},
		{"// gemini:noalloc", "", "", false},
		{"// ordinary comment mentioning //gemini:noalloc inline", "", "", false},
		{"//gemini:", "", "", false},
	}
	for _, c := range cases {
		d, ok := parseDirective(&ast.Comment{Text: c.text})
		if ok != c.directive || d.Key != c.key || d.Value != c.val {
			t.Errorf("parseDirective(%q) = %+v, %v; want key=%q val=%q ok=%v", c.text, d, ok, c.key, c.val, c.directive)
		}
	}
}
