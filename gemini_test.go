package gemini

import (
	"reflect"
	"strings"
	"testing"

	"gemini/internal/dnn"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
)

func quickOpts() MapOptions {
	opt := DefaultMapOptions()
	opt.Batch = 4
	opt.SAIterations = 150
	opt.MaxGroupLayers = 7
	opt.BatchUnits = []int{1, 2}
	return opt
}

func TestModelsList(t *testing.T) {
	names := Models()
	if len(names) != 11 {
		t.Fatalf("models = %v, want 11 entries", names)
	}
	for _, want := range []string{"resnet50", "transformer", "googlenet"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing model %q", want)
		}
	}
}

func TestMapPublicAPI(t *testing.T) {
	cfg := GArch72()
	m, err := Map(&cfg, dnn.TinyCNN(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Result.Feasible || m.Result.Delay <= 0 {
		t.Fatalf("bad result: %+v", m.Result)
	}
	// The search starts from the T-Map stripe scheme and keeps its best.
	tm, err := MapTangram(&cfg, dnn.TinyCNN(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if m.Result.EDP() > tm.Result.EDP() {
		t.Errorf("SA worsened EDP: %v -> %v", tm.Result.EDP(), m.Result.EDP())
	}
	if m.AvgLayersPerGroup <= 0 {
		t.Error("missing pipeline stats")
	}
}

func TestMapTangramBaseline(t *testing.T) {
	cfg := GArch72()
	tm, err := MapTangram(&cfg, dnn.TinyCNN(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Baseline is exactly the DP partition's stripe scheme, unannealed: its
	// result is a fresh evaluator's evaluation of that scheme and of the
	// scheme it returns.
	opt := quickOpts()
	gp := graphpart.DefaultOptions()
	gp.MaxGroupLayers, gp.BatchUnits = opt.MaxGroupLayers, opt.BatchUnits
	part, err := graphpart.Partition(dnn.TinyCNN(), &cfg, eval.New(&cfg), opt.Batch, gp)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Scheme{"stripe": part.Scheme, "returned": tm.Scheme} {
		if fresh := eval.New(&cfg).Evaluate(s); !reflect.DeepEqual(tm.Result, fresh) {
			t.Errorf("T-Map should not anneal: result %+v, fresh evaluation of the %s scheme %+v", tm.Result, name, fresh)
		}
	}
	gm, err := Map(&cfg, dnn.TinyCNN(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if gm.Result.EDP() > tm.Result.EDP() {
		t.Errorf("G-Map EDP %v worse than T-Map %v", gm.Result.EDP(), tm.Result.EDP())
	}
}

func TestMapValidatesInput(t *testing.T) {
	cfg := GArch72()
	cfg.XCut = 5 // invalid
	if _, err := Map(&cfg, dnn.TinyCNN(), quickOpts()); err == nil {
		t.Error("invalid arch accepted")
	}
	cfg2 := GArch72()
	opt := quickOpts()
	opt.Batch = 0
	if _, err := Map(&cfg2, dnn.TinyCNN(), opt); err == nil {
		t.Error("zero batch accepted")
	}
}

func TestMonetaryCostAPI(t *testing.T) {
	s := SimbaArch()
	g := GArch72()
	bs, bg := MonetaryCost(&s), MonetaryCost(&g)
	if bs.Total() <= 0 || bg.Total() <= 0 {
		t.Fatal("non-positive MC")
	}
}

func TestTrafficHeatmapAPI(t *testing.T) {
	cfg := GArch72()
	m, err := Map(&cfg, dnn.TinyTransformer(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	csv, ascii, err := TrafficHeatmap(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv, "from_x") || len(ascii) == 0 {
		t.Error("heatmap outputs malformed")
	}
	if _, _, err := TrafficHeatmap(m, 99); err == nil {
		t.Error("out-of-range group accepted")
	}
	on, _ := HopStats(m)
	if on <= 0 {
		t.Error("hop stats empty")
	}
}

func TestExploreArchitecturesAPI(t *testing.T) {
	cfgA, cfgB := GArch72(), SimbaArch()
	opt := DefaultDSEOptions()
	opt.Batch = 4
	opt.SAIterations = 50
	opt.MaxGroupLayers = 7
	opt.BatchUnits = []int{1, 2}
	results := ExploreArchitectures([]Arch{cfgA, cfgB}, []*Model{dnn.TinyCNN()}, opt)
	best := BestArchitecture(results)
	if best == nil {
		t.Fatal("no feasible architecture")
	}
	if best.Obj <= 0 {
		t.Error("degenerate objective")
	}
}
