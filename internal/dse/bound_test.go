package dse

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/cost"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// randomCandidate perturbs GArch72 into a random valid configuration,
// covering cuts, topologies, bandwidths and core resources.
func randomCandidate(rng *rand.Rand) arch.Config {
	cfg := arch.GArch72()
	cfg.NoCBW = float64(8 * (1 + rng.Intn(8)))
	cfg.D2DBW = float64(4 * (1 + rng.Intn(8)))
	cfg.DRAMBW = float64(32 * (1 + rng.Intn(8)))
	cfg.GLBPerCore = []int{512 * 1024, 1 * arch.MB, 2 * arch.MB}[rng.Intn(3)]
	cfg.MACsPerCore = []int{256, 512, 1024}[rng.Intn(3)]
	cfg.FreqGHz = []float64{0.5, 1, 2}[rng.Intn(3)]
	cfg.XCut = 1 + rng.Intn(3) // 6x6 cores: 1, 2 and 3 all divide
	cfg.YCut = 1 + rng.Intn(3)
	if rng.Intn(2) == 1 {
		cfg.Topology = arch.FoldedTorus
	}
	cfg.Name = cfg.String()
	return cfg
}

// TestBoundSoundnessRandomized is the property test behind pruning: for
// randomized candidates, models and batch options, the energy/delay lower
// bounds must never exceed what the real mapping pipeline achieves. A
// violation here means pruning can discard the true optimum.
func TestBoundSoundnessRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models := []*dnn.Graph{
		testCNN,
		testTF,
		dnn.Synth(11, dnn.DefaultSynthParams()),
		dnn.Synth(42, dnn.SynthParams{Layers: 9, MaxChannels: 48, Spatial: 24, ResidualProb: 0.5, BranchProb: 0.5}),
	}
	optVariants := []Options{
		func() Options { o := testOptions(); return o }(),
		func() Options {
			o := testOptions()
			o.Batch = 8
			o.BatchUnits = []int{1, 2, 4}
			return o
		}(),
		func() Options {
			o := testOptions()
			o.Batch = 3
			o.BatchUnits = []int{1}
			o.SAIterations = 40
			return o
		}(),
	}
	p := eval.DefaultParams()
	checked := 0
	for i := 0; i < 6; i++ {
		cfg := randomCandidate(rng)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("generated invalid candidate: %v", err)
		}
		g := models[i%len(models)]
		opt := optVariants[i%len(optVariants)]
		opt.Seed = int64(i + 1)
		eLB, dLB := lowerBoundED(&cfg, computeDemand(g), &p, opt)
		if eLB <= 0 || dLB <= 0 {
			t.Fatalf("%s/%s: degenerate bounds e=%v d=%v", cfg.Name, g.Name, eLB, dLB)
		}
		mr, err := NewSession().MapModel(&cfg, g, opt)
		if err != nil {
			continue // infeasible pair: nothing to bound
		}
		checked++
		if eLB > mr.Energy {
			t.Errorf("%s/%s: energy bound %v exceeds achieved %v", cfg.Name, g.Name, eLB, mr.Energy)
		}
		if dLB > mr.Delay {
			t.Errorf("%s/%s: delay bound %v exceeds achieved %v", cfg.Name, g.Name, dLB, mr.Delay)
		}
	}
	if checked == 0 {
		t.Fatal("no feasible pair was checked; the property test is vacuous")
	}
}

// TestBoundGLBStreamingExcess: a single layer whose weights exceed the
// aggregate GLB must stream its excess on every pass, so the bound rises
// with the capacity term — and must still lie below the mapped outcome.
func TestBoundGLBStreamingExcess(t *testing.T) {
	cfg := arch.GArch72() // 36 cores x 2 MB = 72 MB aggregate GLB
	b := dnn.NewBuilder("bigfc")
	in := b.Input(1, 1, 16384)
	b.FC("fc", in, 8192) // 16384x8192 = 128 MB of weights
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	opt := testOptions()
	opt.Batch = 8
	opt.BatchUnits = []int{1, 2} // >= 4 passes, excess streams >= 3 extra times
	p := eval.DefaultParams()
	eLB, dLB := lowerBoundED(&cfg, computeDemand(g), &p, opt)

	// weights alone: 128 MB; excess (128-72) MB streams on >= 3 more passes,
	// so the DRAM floor must reach the streamed volume, clearly above the
	// load-once floor.
	wb := computeDemand(g).weightBytes
	agg := float64(cfg.Cores()) * float64(cfg.GLBPerCore)
	streamed := wb + float64(minPasses(opt)-1)*(wb-agg)
	if streamed < 2*wb {
		t.Fatalf("workload streams only %v bytes over %v of weights", streamed, wb)
	}
	if want := streamed / (cfg.DRAMBW * 1e9); dLB < want {
		t.Fatalf("capacity term missing from the delay floor: %v < %v", dLB, want)
	}
	if want := streamed * p.DRAMpJPerByte * 1e-12; eLB < want {
		t.Fatalf("capacity term missing from the energy floor: %v < %v", eLB, want)
	}

	mr, err := NewSession().MapModel(&cfg, g, opt)
	if err != nil {
		t.Fatalf("big-FC model unexpectedly unmappable: %v", err)
	}
	if eLB > mr.Energy || dLB > mr.Delay {
		t.Fatalf("bound (%v, %v) exceeds achieved (%v, %v)", eLB, dLB, mr.Energy, mr.Delay)
	}
}

// TestCoveredDim pins the gap-aware window cover against brute force.
func TestCoveredDim(t *testing.T) {
	brute := func(n, k, stride, pad, src int) int {
		if stride <= 0 {
			stride = 1
		}
		if k < 1 {
			k = 1
		}
		seen := make(map[int]bool)
		for o := 0; o < n; o++ {
			for x := o*stride - pad; x < o*stride-pad+k; x++ {
				if x >= 0 && x < src {
					seen[x] = true
				}
			}
		}
		return len(seen)
	}
	cases := [][5]int{
		{56, 3, 1, 1, 56},  // dense conv
		{28, 1, 2, 0, 56},  // strided 1x1 projection: every other row unread
		{28, 3, 2, 1, 56},  // strided 3x3
		{7, 2, 3, 0, 20},   // stride > kernel with tail clipping
		{5, 7, 1, 3, 5},    // kernel larger than input
		{1, 1, 1, 0, 1},    // degenerate
		{14, 3, 5, 2, 100}, // sparse windows inside a large input
	}
	for _, c := range cases {
		got := coveredDim(c[0], c[1], c[2], c[3], c[4])
		want := brute(c[0], c[1], c[2], c[3], c[4])
		if got != want {
			t.Errorf("coveredDim%v = %d, want %d", c, got, want)
		}
	}
}

// TestCutFloorTightensOnStarvedD2D: on a multi-chiplet candidate whose
// bisection bandwidth is far below the aggregate link sum, a model with one
// dominant weight channel must get its delay floor from the per-cut term —
// strictly above what the same candidate with healthy D2D links gets, which
// is the gap BenchmarkDSESweepCutBound's pruning rests on — while still
// bounding the real mapped outcome from below.
func TestCutFloorTightensOnStarvedD2D(t *testing.T) {
	healthy := arch.GArch72()
	cfg := arch.GArch72()
	cfg.D2DBW = 1 // 12 GB/s bisection vs 144 GB/s DRAM + ~3.8 TB/s link sum
	cfg.Name = cfg.String()
	b := dnn.NewBuilder("bigfc")
	in := b.Input(1, 1, 8192)
	b.FC("fc", in, 8192) // 64 MB: one dominant explicit weight flow
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := eval.DefaultParams()
	opt := testOptions()
	eH, dH := lowerBoundED(&healthy, computeDemand(g), &p, opt)
	eS, dS := lowerBoundED(&cfg, computeDemand(g), &p, opt)
	if dS <= dH {
		t.Errorf("starved bisection did not tighten the delay bound: %v <= healthy %v", dS, dH)
	}
	if cut := cutFloor(&cfg, computeDemand(g), float64(opt.Batch), minPasses(opt)); dS != cut {
		t.Errorf("delay bound %v is not the per-cut floor %v", dS, cut)
	}
	if eS != eH {
		t.Errorf("the cut term changed the energy floor: %v vs %v", eS, eH)
	}
	mr, err := NewSession().MapModel(&cfg, g, opt)
	if err != nil {
		t.Fatalf("dominant-FC model unexpectedly unmappable: %v", err)
	}
	if dS > mr.Delay {
		t.Fatalf("cut bound %v exceeds achieved delay %v", dS, mr.Delay)
	}
}

// TestBoundTightensOrdering: on a memory-starved candidate the bound must
// be strictly tighter than its compute + weight-DRAM terms alone (the
// compulsory activation and interconnect floors are what buy the earlier
// pruning).
func TestBoundTightensOrdering(t *testing.T) {
	cfg := arch.GArch72()
	cfg.DRAMBW = 32 // memory-bound: activation floors dominate
	cfg.Name = cfg.String()
	p := eval.DefaultParams()
	opt := testOptions()
	eLB, dLB := lowerBoundED(&cfg, computeDemand(testCNN), &p, opt)
	d := computeDemand(testCNN)
	macs := d.macs * float64(opt.Batch)
	e1 := macs*p.MACpJ*1e-12 + d.weightBytes*p.DRAMpJPerByte*1e-12
	d1 := math.Max(macs/(float64(cfg.Cores())*float64(cfg.MACsPerCore)*cfg.FreqGHz*1e9), d.weightBytes/(cfg.DRAMBW*1e9))
	if eLB <= e1 {
		t.Errorf("energy bound did not tighten: %v <= compute+weight floor %v", eLB, e1)
	}
	if dLB < d1 {
		t.Errorf("delay bound regressed: %v < compute+weight floor %v", dLB, d1)
	}
}

// TestBoundSoundOnRealZoo checks the bound where sweeps actually use it: a
// fixed sample of reduced 72-TOPs multi-chiplet candidates (the ones with
// chiplet cuts, so the per-cut term is live) against resnet50 and
// transformer, each mapped for real. The bound the scheduler gates the
// candidate on must not exceed its achieved objective, nor any per-model
// floor its achieved value.
func TestBoundSoundOnRealZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("maps real zoo models")
	}
	var multi []arch.Config
	for _, c := range Space72().Reduced().Enumerate() {
		if c.Chiplets() > 1 {
			multi = append(multi, c)
		}
	}
	if len(multi) < 4 {
		t.Fatalf("reduced 72-TOPs space has %d multi-chiplet candidates", len(multi))
	}
	models := []*dnn.Graph{dnn.ResNet50(), dnn.Transformer()}
	opt := DefaultOptions()
	opt.SAIterations = 60
	p := eval.DefaultParams()
	mce := cost.New()
	sample := make([]arch.Config, 4)
	for i := range sample {
		sample[i] = multi[i*len(multi)/4]
	}
	// A fresh session holds no checkpoint, so each states[i].lb is the
	// candidate's pure bound.
	sc := NewSession().newScheduler(context.Background(), sample, models, opt)
	cutLive := 0
	for i, cfg := range sample {
		per := make([]pairOutcome, len(models))
		for mi, g := range models {
			mr, err := NewSession().MapModel(&cfg, g, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, g.Name, err)
			}
			eLB, dLB := lowerBoundED(&cfg, computeDemand(g), &p, opt)
			if eLB > mr.Energy || dLB > mr.Delay {
				t.Errorf("%s/%s: bound (%v J, %v s) exceeds achieved (%v J, %v s)", cfg.Name, g.Name, eLB, dLB, mr.Energy, mr.Delay)
			}
			if cutFloor(&cfg, computeDemand(g), float64(opt.Batch), minPasses(opt)) > 0 {
				cutLive++
			}
			per[mi] = mr.asOutcome()
		}
		cr := reduceCandidate(&cfg, per, models, mce, opt)
		if lb := sc.states[i].lb; !cr.Feasible || lb > cr.Obj {
			t.Errorf("%s: scheduler bound %v exceeds achieved objective %v", cfg.Name, lb, cr.Obj)
		}
	}
	if cutLive == 0 {
		t.Error("the per-cut term was zero on every sampled cell; the sample does not exercise it")
	}
}
