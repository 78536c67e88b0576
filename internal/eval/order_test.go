package eval_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
	"gemini/internal/noc"
)

// orderCase is one partitioned model on one architecture, with the evaluator
// that summarizes its groups.
type orderCase struct {
	cfg *arch.Config
	ev  *eval.Evaluator
	s   *core.Scheme
}

// orderCases partitions ResNet-50 and the Transformer on G-Arch-72, a 6x3
// array cut into six 3x1 chiplets, and the folded-torus G-Arch. Built once:
// the fuzz target calls it per input.
var orderCases = sync.OnceValue(func() []orderCase {
	six := arch.GArch72()
	six.Name, six.CoresX, six.CoresY, six.XCut, six.YCut = "6x3-6chiplet", 6, 3, 2, 3
	var cases []orderCase
	for _, cfg := range []arch.Config{arch.GArch72(), six, arch.GArchTorus()} {
		if err := cfg.Validate(); err != nil {
			panic(err)
		}
		for _, g := range []*dnn.Graph{dnn.ResNet50(), dnn.Transformer()} {
			ev := eval.New(&cfg)
			part, err := graphpart.Partition(g, &cfg, ev, 64, graphpart.DefaultOptions())
			if err != nil {
				panic(err)
			}
			cases = append(cases, orderCase{cfg: &cfg, ev: ev, s: part.Scheme})
		}
	}
	return cases
})

// checkOrderInvariant summarizes group gi of the case from core.Analyze's
// flows, then again under `perms` seeded shuffles of ActFlows, ActDRAM and
// WeightFlows, and requires every summary to be == the first. It also
// requires what makes that true: integer bytes, and loads below 2^53 in the
// traffic's 1/d-byte unit.
func checkOrderInvariant(t *testing.T, c orderCase, s *core.Scheme, gi int, seed int64, perms int) {
	t.Helper()
	an, err := core.Analyze(s, gi, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := c.ev.SummarizeAnalysis(an)
	checkIntegral(t, c.cfg, an, first)
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < perms; p++ {
		rng.Shuffle(len(an.ActFlows), func(i, j int) { an.ActFlows[i], an.ActFlows[j] = an.ActFlows[j], an.ActFlows[i] })
		rng.Shuffle(len(an.ActDRAM), func(i, j int) { an.ActDRAM[i], an.ActDRAM[j] = an.ActDRAM[j], an.ActDRAM[i] })
		rng.Shuffle(len(an.WeightFlows), func(i, j int) { an.WeightFlows[i], an.WeightFlows[j] = an.WeightFlows[j], an.WeightFlows[i] })
		if got := c.ev.SummarizeAnalysis(an); got != first {
			t.Fatalf("%s on %s group %d, shuffle %d of seed %d: summary %+v, in emission order %+v",
				s.Graph.Name, c.cfg.Name, gi, p, seed, got, first)
		}
	}
}

// checkIntegral asserts the premise of adding flows in any order: every
// activation and DRAM flow carries an integer number of bytes, and d times
// each traffic's byte total — its largest load in units of 1/d byte, on an
// array of d DRAM controllers — stays below 2^53, so every partial sum of
// the loads is exact.
func checkIntegral(t *testing.T, cfg *arch.Config, an *core.Analysis, sum eval.Summary) {
	t.Helper()
	const exact = 1 << 53
	integral := func(kind string, bytes float64) {
		if bytes != math.Trunc(bytes) || bytes < 0 {
			t.Fatalf("%s flow of %v bytes: the evaluator sums flows in any order because their bytes are "+
				"non-negative integers (dnn.ElemBytes = %v); a fractional ElemBytes must bring a fixed flow order back", kind, bytes, float64(dnn.ElemBytes))
		}
	}
	for _, f := range an.ActFlows {
		integral("activation", f.Bytes)
	}
	for _, f := range an.ActDRAM {
		integral("DRAM activation", f.Bytes)
	}
	for _, f := range an.WeightFlows {
		integral("weight", f.Bytes)
	}
	d := float64(cfg.DRAMControllers())
	for _, dg := range []noc.Digest{sum.PerPass, sum.Once} {
		if total := d * (dg.NoCBytes + dg.D2DBytes + dg.DRAMBytes); total >= exact {
			t.Fatalf("a traffic of %v units (d = %v): not below 2^53, so integer sums are no longer exact in any order", total, d)
		}
	}
}

// walk applies n random SA operators to a clone of the case's scheme, calling
// visit with the scheme and the mutated group after each one that applied.
func walk(t *testing.T, c orderCase, seed int64, n int, visit func(s *core.Scheme, gi int)) {
	t.Helper()
	s := c.s.Clone()
	rng := rand.New(rand.NewSource(seed))
	mu := &core.Mutator{Graph: s.Graph, Drams: c.cfg.DRAMControllers(), Rng: rng}
	for it := 0; it < n; it++ {
		gi := rng.Intn(len(s.Groups))
		if _, ok := mu.Apply(s.Groups[gi]); ok {
			visit(s, gi)
		}
	}
}

// TestDigestInvariantUnderFlowOrder is the oracle for adding flows in any
// order: for every group of the partitioned ResNet-50 and Transformer on three
// architectures (mesh, six chiplets, folded torus) and for the group touched
// by each of 200 SA moves from each, 8 seeded permutations of ActFlows,
// ActDRAM and WeightFlows summarize to exactly the summary of the lists as
// core.Analyze returns them.
func TestDigestInvariantUnderFlowOrder(t *testing.T) {
	groups, flows, dram := 0, 0, 0
	for ci, c := range orderCases() {
		for gi := range c.s.Groups {
			checkOrderInvariant(t, c, c.s, gi, int64(gi), 8)
			groups++
		}
		walk(t, c, int64(100+ci), 200, func(s *core.Scheme, gi int) {
			checkOrderInvariant(t, c, s, gi, int64(gi), 8)
			groups++
		})
		an, err := core.Analyze(c.s, 0, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		flows += len(an.ActFlows)
		dram += min(len(an.ActDRAM), len(an.WeightFlows))
	}
	t.Logf("%d group states x 8 permutations", groups)
	if flows == 0 || dram == 0 {
		t.Errorf("group 0 of every case has %d activation flows and min(ActDRAM, WeightFlows) = %d: nothing was permuted", flows, dram)
	}
}

// TestActFlowBytesIntegral checks the premise alone over a longer walk: every
// emitted flow's bytes equal their Trunc and every load stays below 2^53.
func TestActFlowBytesIntegral(t *testing.T) {
	for ci, c := range orderCases() {
		walk(t, c, int64(500+ci), 400, func(s *core.Scheme, gi int) {
			an, err := core.Analyze(s, gi, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkIntegral(t, c.cfg, an, c.ev.SummarizeAnalysis(an))
		})
	}
}

// FuzzFlowOrder fuzzes the permutation seed, the case, and how far a seeded
// SA walk has moved the scheme before the touched group's flows are permuted.
func FuzzFlowOrder(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(-7), uint8(3), uint8(40))
	f.Add(int64(1<<40), uint8(5), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, pick, moves uint8) {
		cases := orderCases()
		c := cases[int(pick)%len(cases)]
		s, gi := c.s, int(pick)%len(c.s.Groups)
		walk(t, c, seed, int(moves), func(ws *core.Scheme, wgi int) { s, gi = ws, wgi })
		checkOrderInvariant(t, c, s, gi, seed, 4)
	})
}
