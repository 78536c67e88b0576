package core

import (
	"math/rand"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

func testCfg() *arch.Config {
	c := arch.GArch72()
	return &c
}

// allLayers returns every layer ID of a graph.
func allLayers(g *dnn.Graph) []int {
	ids := make([]int, len(g.Layers))
	for i := range g.Layers {
		ids[i] = i
	}
	return ids
}

// tinyScheme maps the whole TinyCNN as one stripe group.
func tinyScheme(t *testing.T, cfg *arch.Config, bu int) *Scheme {
	t.Helper()
	g := dnn.TinyCNN()
	s, err := StripeScheme(g, cfg, [][]int{allLayers(g)}, []int{bu}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNIDCorrespondence(t *testing.T) {
	p := Part{H: 1, W: 1, B: 2, K: 2}
	// Paper Fig. 3 example: IDs (0,0,0,0)->0, (0,0,0,1)->1, (0,0,1,0)->2, (0,0,1,1)->3.
	want := map[[4]int]int{
		{0, 0, 0, 0}: 0, {0, 0, 0, 1}: 1, {0, 0, 1, 0}: 2, {0, 0, 1, 1}: 3,
	}
	for id, nid := range want {
		if got := p.NID(id[0], id[1], id[2], id[3]); got != nid {
			t.Errorf("NID%v = %d, want %d", id, got, nid)
		}
	}
	// NID is a bijection onto [0, N).
	p2 := Part{H: 2, W: 3, B: 2, K: 2}
	seen := make(map[int]bool)
	for h := 0; h < p2.H; h++ {
		for w := 0; w < p2.W; w++ {
			for b := 0; b < p2.B; b++ {
				for k := 0; k < p2.K; k++ {
					nid := p2.NID(h, w, b, k)
					if nid < 0 || nid >= p2.N() || seen[nid] {
						t.Fatalf("NID collision or range error at (%d,%d,%d,%d)=%d", h, w, b, k, nid)
					}
					seen[nid] = true
				}
			}
		}
	}
}

func TestStripeSchemeValidates(t *testing.T) {
	cfg := testCfg()
	s := tinyScheme(t, cfg, 2)
	if err := s.Validate(cfg); err != nil {
		t.Fatalf("stripe scheme invalid: %v", err)
	}
}

func TestStripeSchemeResNetValidates(t *testing.T) {
	cfg := testCfg()
	g := dnn.ResNet50()
	// Split into chunks of at most 18 layers (two groups per 36 cores).
	var groups [][]int
	var bus []int
	for lo := 0; lo < len(g.Layers); lo += 18 {
		hi := lo + 18
		if hi > len(g.Layers) {
			hi = len(g.Layers)
		}
		ids := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			ids = append(ids, i)
		}
		groups = append(groups, ids)
		bus = append(bus, 1)
	}
	s, err := StripeScheme(g, cfg, groups, bus, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(cfg); err != nil {
		t.Fatalf("resnet stripes invalid: %v", err)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	cfg := testCfg()

	s := tinyScheme(t, cfg, 2)
	s.Groups[0].MSs[0].CG[0] = arch.CoreID(999)
	if err := s.Validate(cfg); err == nil {
		t.Error("invalid core ID accepted")
	}

	s = tinyScheme(t, cfg, 2)
	s.Groups[0].MSs[0].Part.K = 3 // |CG| no longer matches
	if err := s.Validate(cfg); err == nil {
		t.Error("part/CG mismatch accepted")
	}

	s = tinyScheme(t, cfg, 2)
	s.Groups[0].MSs[1].CG[0] = s.Groups[0].MSs[0].CG[0] // duplicate core
	if err := s.Validate(cfg); err == nil {
		t.Error("overlapping CGs accepted")
	}

	s = tinyScheme(t, cfg, 2)
	s.Groups[0].MSs[0].FD.IF = FDImplicit // first layer needs explicit IF
	if err := s.Validate(cfg); err == nil {
		t.Error("missing explicit IF accepted")
	}

	s = tinyScheme(t, cfg, 2)
	s.Groups[0].MSs[2].FD.WGT = 1 // eltwise has no weights
	if err := s.Validate(cfg); err == nil {
		t.Error("explicit WGT on weight-less layer accepted")
	}

	s = tinyScheme(t, cfg, 2)
	last := s.Groups[0].MSs[len(s.Groups[0].MSs)-1]
	last.FD.OF = cfg.DRAMControllers() + 1 // out of range
	if err := s.Validate(cfg); err == nil {
		t.Error("out-of-range OF accepted")
	}
}

func TestStripesUseDistinctConsecutiveCores(t *testing.T) {
	cfg := testCfg()
	s := tinyScheme(t, cfg, 2)
	used := map[arch.CoreID]bool{}
	total := 0
	for _, ms := range s.Groups[0].MSs {
		for _, c := range ms.CG {
			if used[c] {
				t.Fatalf("core %d assigned twice", c)
			}
			used[c] = true
			total++
		}
	}
	if total > cfg.Cores() {
		t.Fatalf("assigned %d cores, have %d", total, cfg.Cores())
	}
	if total < cfg.Cores()/2 {
		t.Errorf("stripes used only %d of %d cores", total, cfg.Cores())
	}
}

func TestHeuristicPartPrefersSpatial(t *testing.T) {
	l := &dnn.Layer{Kind: dnn.Conv, OH: 32, OW: 32, OK: 64, IC: 32, R: 3, S: 3, Stride: 1, Groups: 1}
	p, ok := HeuristicPart(l, 1, 8)
	if !ok {
		t.Fatal("no factorization for 8")
	}
	if p.K != 1 || p.B != 1 {
		t.Errorf("heuristic part = %+v, want spatial-only split", p)
	}
	if p.N() != 8 {
		t.Errorf("part product = %d", p.N())
	}
}

func TestHeuristicPartFallsBackToK(t *testing.T) {
	// A 1x1 spatial layer (FC-like) can only split across K and B.
	l := &dnn.Layer{Kind: dnn.FC, OH: 1, OW: 1, OK: 1000, IC: 2048, HasWeights: true}
	p, ok := HeuristicPart(l, 1, 6)
	if !ok {
		t.Fatal("no factorization")
	}
	if p.K != 6 {
		t.Errorf("part = %+v, want K=6", p)
	}
}

func TestAllocateCoresProportional(t *testing.T) {
	g := dnn.TinyCNN()
	var b stripeBufs
	if err := b.allocateCores(g, allLayers(g), 36, 2); err != nil {
		t.Fatal(err)
	}
	alloc := b.alloc
	total := 0
	heaviest, heaviestIdx := int64(0), 0
	for i, id := range allLayers(g) {
		total += alloc[i]
		if alloc[i] < 1 {
			t.Errorf("layer %d got %d cores", id, alloc[i])
		}
		if m := g.Layer(id).MACs(); m > heaviest {
			heaviest, heaviestIdx = m, i
		}
	}
	if total > 36 {
		t.Errorf("allocated %d cores of 36", total)
	}
	max := 0
	for _, a := range alloc {
		if a > max {
			max = a
		}
	}
	if alloc[heaviestIdx] != max {
		t.Errorf("heaviest layer got %d cores, max is %d", alloc[heaviestIdx], max)
	}
}

func TestAllocateCoresErrors(t *testing.T) {
	g := dnn.TinyCNN()
	var b stripeBufs
	if err := b.allocateCores(g, allLayers(g), 3, 1); err == nil {
		t.Error("7 layers on 3 cores should fail")
	}
	if err := b.allocateCores(g, nil, 36, 1); err == nil {
		t.Error("empty group should fail")
	}
}

func TestRandomPartAlwaysValid(t *testing.T) {
	mu := &Mutator{Rng: rand.New(rand.NewSource(11))}
	l := &dnn.Layer{Kind: dnn.Conv, OH: 14, OW: 14, OK: 256, IC: 64, R: 3, S: 3, Stride: 1, Groups: 1}
	for n := 1; n <= 36; n++ {
		for trial := 0; trial < 20; trial++ {
			p, ok := mu.randomPart(l, 4, n)
			if !ok {
				t.Fatalf("no factorization for n=%d", n)
			}
			if p.N() != n || !p.Valid(l, 4) {
				t.Fatalf("invalid random part %+v for n=%d", p, n)
			}
		}
	}
}

func TestOperatorsPreserveInvariants(t *testing.T) {
	cfg := testCfg()
	rng := rand.New(rand.NewSource(42))
	mu := &Mutator{Graph: dnn.TinyCNN(), Drams: cfg.DRAMControllers(), Rng: rng}
	s := tinyScheme(t, cfg, 2)
	mu.Graph = s.Graph
	applied := map[Op]int{}
	for i := 0; i < 2000; i++ {
		op, ok := mu.Apply(s.Groups[0])
		if ok {
			applied[op]++
		}
		if err := s.Validate(cfg); err != nil {
			t.Fatalf("iteration %d op %v broke invariants: %v", i, op, err)
		}
	}
	for op := Op(0); op < numOps; op++ {
		if applied[op] == 0 {
			t.Errorf("operator %v never succeeded in 2000 iterations", op)
		}
	}
}

func TestOpMoveChangesSizes(t *testing.T) {
	cfg := testCfg()
	rng := rand.New(rand.NewSource(7))
	s := tinyScheme(t, cfg, 2)
	mu := &Mutator{Graph: s.Graph, Drams: cfg.DRAMControllers(), Rng: rng}
	before := make([]int, len(s.Groups[0].MSs))
	for i, ms := range s.Groups[0].MSs {
		before[i] = len(ms.CG)
	}
	moved := false
	for i := 0; i < 200 && !moved; i++ {
		if mu.ApplyOp(s.Groups[0], OpMove) {
			for j, ms := range s.Groups[0].MSs {
				if len(ms.CG) != before[j] {
					moved = true
				}
			}
		}
	}
	if !moved {
		t.Fatal("OP4 never changed CG sizes")
	}
	if err := s.Validate(cfg); err != nil {
		t.Fatal(err)
	}
}

// OP4 reachability (paper claim): a CG of size s can reach any size in
// [1, s + spare] through a sequence of OP4 moves.
func TestOpMoveReachability(t *testing.T) {
	cfg := testCfg()
	rng := rand.New(rand.NewSource(3))
	s := tinyScheme(t, cfg, 2)
	mu := &Mutator{Graph: s.Graph, Drams: cfg.DRAMControllers(), Rng: rng}
	target := s.Groups[0].MSs[0]
	sizes := map[int]bool{len(target.CG): true}
	for i := 0; i < 5000; i++ {
		mu.ApplyOp(s.Groups[0], OpMove)
		sizes[len(target.CG)] = true
	}
	if !sizes[1] {
		t.Error("OP4 never shrank the first CG to one core")
	}
	if len(sizes) < 4 {
		t.Errorf("OP4 explored only %d distinct sizes", len(sizes))
	}
}

func TestCloneIsDeep(t *testing.T) {
	cfg := testCfg()
	s := tinyScheme(t, cfg, 2)
	cp := s.Clone()
	cp.Groups[0].MSs[0].CG[0] = arch.CoreID(35)
	cp.Groups[0].MSs[0].Part = Part{H: 1, W: 1, B: 1, K: 1}
	cp.Groups[0].MSs[0].FD.IF = 2
	orig := s.Groups[0].MSs[0]
	if orig.CG[0] == arch.CoreID(35) && orig.Part.N() == 1 {
		t.Error("clone shares state with original")
	}
}

func TestNeedsExplicitOF(t *testing.T) {
	g := dnn.TinyCNN()
	all := map[int]bool{}
	for i := range g.Layers {
		all[i] = true
	}
	last := len(g.Layers) - 1
	if !NeedsExplicitOF(g, all, last) {
		t.Error("DNN output layer must store ofmaps")
	}
	if NeedsExplicitOF(g, all, 0) {
		t.Error("interior layer with in-group consumers should be implicit")
	}
	// With the group cut after layer 0, layer 0's consumers are outside.
	if !NeedsExplicitOF(g, map[int]bool{0: true}, 0) {
		t.Error("cross-group producer must store ofmaps")
	}
}

// needsExplicitOFScan is the full-graph scan NeedsExplicitOF ran before the
// graph carried a consumer index, kept as the reference.
func needsExplicitOFScan(g *dnn.Graph, group map[int]bool, layer int) bool {
	consumers := 0
	for _, l := range g.Layers {
		for _, in := range l.Inputs {
			if in.Src == layer {
				consumers++
				if !group[l.ID] {
					return true
				}
			}
		}
	}
	return consumers == 0
}

// TestNeedsExplicitOFMatchesFullScan: the consumer-index lookup answers what
// the full scan answered, for every layer (inside the group or not) against
// every contiguous window the partitioner can propose and a non-contiguous
// group SA can reach.
func TestNeedsExplicitOFMatchesFullScan(t *testing.T) {
	for _, g := range []*dnn.Graph{dnn.ResNet50(), dnn.Transformer(), dnn.TinyCNN()} {
		n := len(g.Layers)
		check := func(group map[int]bool, what string) {
			for id := 0; id < n; id++ {
				if got, want := NeedsExplicitOF(g, group, id), needsExplicitOFScan(g, group, id); got != want {
					t.Fatalf("%s: layer %d in %s: indexed %v, full scan %v", g.Name, id, what, got, want)
				}
			}
		}
		for j := 0; j < n; j++ {
			group := map[int]bool{}
			for i := j; i < n && i-j < 20; i++ {
				group[i] = true
				check(group, "window")
			}
		}
		sparse := map[int]bool{}
		for id := 0; id < n; id += 3 {
			sparse[id] = true
		}
		check(sparse, "every third layer")
	}
}
