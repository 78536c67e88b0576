package dse

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

// tinySpec is a one-candidate sweep spec used across the spec tests.
func tinySpec() Spec {
	return Spec{
		ID:     "spec-test",
		Space:  SpaceSpec{TOPS: 72, Cuts: []int{1}, DRAMPerTOPS: []float64{2}, NoCBWs: []float64{32}, D2DRatios: []float64{0.5}, GLBsKB: []int{1024}, MACs: []int{1024}},
		Models: []string{"tinycnn"},

		SAIterations: 40,
		Workers:      1,
	}
}

func TestSpecDefaults(t *testing.T) {
	s := Spec{Space: SpaceSpec{TOPS: 72}, Models: []string{"transformer"}}
	if err := s.Validate(); err != nil {
		t.Fatalf("minimal spec invalid: %v", err)
	}
	opt := s.Options()
	def := DefaultOptions()
	if opt.Batch != def.Batch || opt.SAIterations != def.SAIterations ||
		opt.Restarts != def.Restarts || opt.Seed != def.Seed {
		t.Errorf("zero spec fields must take DefaultOptions defaults, got %+v", opt)
	}
	if opt.Objective != MCED {
		t.Errorf("nil objective must default to MCED, got %+v", opt.Objective)
	}
}

func TestSpecOverrides(t *testing.T) {
	raw := `{
		"id": "s1",
		"space": {"tops": 128, "reduced": true, "macs": [2048]},
		"models": ["tinycnn", "tinytransformer"],
		"batch": 8, "sa_iterations": 50, "restarts": 3,
		"workers": 2, "seed": 7, "batch_units": [1, 2],
		"objective": {"alpha": 1, "beta": 2, "gamma": 0},
		"prune": true
	}`
	var s Spec
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	opt := s.Options()
	if opt.SweepID != "s1" || opt.Batch != 8 || opt.SAIterations != 50 ||
		opt.Restarts != 3 || opt.Workers != 2 || opt.Seed != 7 ||
		!opt.Prune {
		t.Errorf("spec fields not mapped: %+v", opt)
	}
	if opt.Objective != (Objective{Alpha: 1, Beta: 2, Gamma: 0}) {
		t.Errorf("objective not mapped: %+v", opt.Objective)
	}
	sp, err := s.Space.Space()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.MACs) != 1 || sp.MACs[0] != 2048 || !strings.Contains(sp.Name, "reduced") {
		t.Errorf("space overrides not applied: %+v", sp)
	}
	gs, err := s.Graphs()
	if err != nil || len(gs) != 2 {
		t.Fatalf("Graphs() = %d, %v", len(gs), err)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	base := tinySpec()
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"bad tops", func(s *Spec) { s.Space.TOPS = 100 }, "tops"},
		{"no models", func(s *Spec) { s.Models = nil }, "no models"},
		{"unknown model", func(s *Spec) { s.Models = []string{"nope"} }, "unknown model"},
		{"negative restarts", func(s *Spec) { s.Restarts = -1 }, "restarts"},
		{"negative seed", func(s *Spec) { s.Seed = -4 }, "seed"},
		{"zero batch unit", func(s *Spec) { s.BatchUnits = []int{0} }, "batch_units"},
		{"negative exponent", func(s *Spec) { s.Objective = &ObjectiveSpec{Alpha: -1} }, "objective"},
		{"bad glb", func(s *Spec) { s.Space.GLBsKB = []int{-3} }, "glb_kb"},
	}
	for _, c := range cases {
		s := base
		c.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("base spec must be valid: %v", err)
	}
}

func TestSpecCandidates(t *testing.T) {
	s := tinySpec()
	cands, err := s.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("tiny spec enumerates %d candidates, want 1", len(cands))
	}
	// Cuts that divide no core-array edge enumerate nothing: an error, not
	// an instantly-complete empty sweep.
	s.Space.Cuts = []int{5}
	if _, err := s.Candidates(); err == nil {
		t.Error("empty enumeration must error")
	}
}

// TestSpecSweepMatchesRun pins the spec resolution end to end: running the
// resolved (candidates, graphs, options) through a session is bit-identical
// to the equivalent hand-built Run.
func TestSpecSweepMatchesRun(t *testing.T) {
	s := tinySpec()
	cands, err := s.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	gs, err := s.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	opt := s.Options()
	got, stats, err := NewSession().RunContext(context.Background(), cands, gs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Canceled {
		t.Errorf("stats = %+v, want not canceled", stats)
	}
	want := NewSession().Run(cands, gs, opt)
	resultsEqual(t, want, got, "spec sweep")
}

// TestRunContextCanceledBeforeStart: every cell of a pre-canceled sweep
// still reaches the scheduler and fails fast, so each candidate streams
// exactly one row, and that row reads canceled, never infeasible. The same
// holds for a sweep canceled inside its first cell, which the annealer's
// stop hook abandons.
func TestRunContextCanceledBeforeStart(t *testing.T) {
	for _, inCell := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		ses := NewSession()
		if inCell {
			ses.mapModel = func(c *cellRun, cfg *arch.Config, g *dnn.Graph, o Mapping, stop func() bool) (*MapResult, error) {
				cancel()
				return mapModelEval(c, cfg, g, o, stop)
			}
		} else {
			cancel()
		}
		opt := testOptions()
		opt.SweepID = "pre-canceled"
		streamed := map[string]int{}
		opt.OnResult = func(cr CandidateResult) { streamed[cr.Cfg.Name]++ }
		cands := testCands()
		results, stats, err := ses.RunContext(ctx, cands, []*dnn.Graph{testCNN, testTF}, opt)
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("in cell %t: err = %v, want context.Canceled", inCell, err)
		}
		if !stats.Canceled {
			t.Errorf("in cell %t: stats.Canceled = false", inCell)
		}
		for _, c := range cands {
			if streamed[c.Name] != 1 {
				t.Errorf("in cell %t: %s: OnResult called %d times, want 1", inCell, c.Name, streamed[c.Name])
			}
		}
		for i := range results {
			if results[i].Err == nil || !errors.Is(results[i].Err, context.Canceled) {
				t.Errorf("in cell %t: %s: Err = %v, want context.Canceled", inCell, results[i].Cfg.Name, results[i].Err)
			}
			if st := results[i].Status(); st == "infeasible" {
				t.Errorf("in cell %t: %s: status %q, want error", inCell, results[i].Cfg.Name, st)
			}
		}
		if n := ses.CheckpointCells(); n != 0 {
			t.Errorf("in cell %t: canceled sweep checkpointed %d cells, want 0", inCell, n)
		}
	}
}

// TestRunContextCancelMidSweep pins the resume contract: cells settled
// before cancellation stay checkpointed, canceled cells carry errors and
// are retried — and only they are recomputed — on the resumed sweep.
func TestRunContextCancelMidSweep(t *testing.T) {
	cands := testCands()
	models := []*dnn.Graph{testCNN, testTF}
	opt := testOptions()
	opt.Workers = 1

	ses := NewSession()
	ctx, cancel := context.WithCancel(context.Background())
	opt.OnResult = func(CandidateResult) { cancel() } // cancel after the first candidate settles
	results, stats, err := ses.RunContext(ctx, cands, models, opt)
	if !errors.Is(err, context.Canceled) || !stats.Canceled {
		t.Fatalf("err = %v, stats.Canceled = %v, want canceled", err, stats.Canceled)
	}
	var canceled int
	for i := range results {
		if errors.Is(results[i].Err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no candidate reported the cancellation")
	}
	settled := ses.CheckpointCells()
	if settled != len(models) {
		t.Fatalf("checkpointed %d cells before cancellation, want %d", settled, len(models))
	}
	if got := ses.SettledCells(cands, models, opt); got != settled {
		t.Errorf("SettledCells = %d, want %d", got, settled)
	}
	other := opt
	other.Seed += 100
	if got := ses.SettledCells(cands, models, other); got != 0 {
		t.Errorf("SettledCells under different options = %d, want 0", got)
	}

	opt.OnResult = nil
	resumed, stats2, err := ses.RunContext(context.Background(), cands, models, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.ResumedCells != settled {
		t.Errorf("resumed sweep restored %d cells, want %d", stats2.ResumedCells, settled)
	}
	want := NewSession().Run(cands, models, testOptionsLike(opt))
	resultsEqual(t, want, resumed, "resumed after cancel")
}

// testOptionsLike strips the sweep-scoped fields (id, callback) so a fresh
// Run is comparable.
func testOptionsLike(opt Options) Options {
	opt.SweepID = ""
	opt.OnResult = nil
	return opt
}

// TestSweepIDExcludedFromFingerprint pins the checkpoint-compatibility
// claim: renaming a sweep must keep hitting its old cells.
func TestSweepIDExcludedFromFingerprint(t *testing.T) {
	ses := NewSession()
	ses.mapModel = func(*cellRun, *arch.Config, *dnn.Graph, Mapping, func() bool) (*MapResult, error) {
		return nil, ErrInfeasible
	}
	cands, models := testCands()[:1], []*dnn.Graph{testCNN}
	a := testOptions()
	a.SweepID = "first"
	ses.Run(cands, models, a)
	b := a
	b.SweepID = "second"
	if n := ses.SettledCells(cands, models, b); n != 1 {
		t.Errorf("renamed sweep finds %d settled cells, want 1", n)
	}
}

// specOnlyFields are the Spec fields Options leaves alone, with the reason.
// Perturbing one must leave Options unchanged; perturbing any other field
// must change it, so a new Spec field that Options forgets fails here.
var specOnlyFields = map[string]string{
	"Space":    "resolved by Candidates; the architecture fingerprint keys each cell",
	"Models":   "resolved by Graphs; the model name keys each cell",
	"Tenant":   "admission and fair share at the sweep service; the engine never sees it",
	"Priority": "dispatch class at the sweep service; it orders and preempts sweeps",
}

func TestSpecOptionsConsumesEveryField(t *testing.T) {
	want := perturbed[Spec](t, "").Options()
	for _, path := range leafPaths[Spec]() {
		changed := !reflect.DeepEqual(perturbed[Spec](t, path).Options(), want)
		top, _, _ := strings.Cut(path[1:], ".")
		if reason, specOnly := specOnlyFields[top]; specOnly && changed {
			t.Errorf("Spec%s changed Options; %s", path, reason)
		} else if !specOnly && !changed {
			t.Errorf("Spec%s did not change Options: resolve it there or add it to specOnlyFields with a reason", path)
		}
	}
}

// TestSpaceSpecOverridesDoNotMutateBase guards against aliasing: resolving
// one spec twice (or two specs from one base) must not share slices with
// the Table I base grids.
func TestSpaceSpecOverridesDoNotMutateBase(t *testing.T) {
	before := len(Space72().Enumerate())
	s := SpaceSpec{TOPS: 72, MACs: []int{1024}}
	if _, err := s.Space(); err != nil {
		t.Fatal(err)
	}
	if got := len(Space72().Enumerate()); got != before {
		t.Errorf("SpaceSpec.Space mutated the base grid: %d != %d candidates", got, before)
	}
}
