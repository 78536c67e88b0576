package eval

import (
	"math"
	"math/rand"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
)

// summariesPin is the hash TestSummariesPinned computed when traffic began to
// be counted exactly in 1/d-byte units, each figure rounded once. Against the
// pin before (0xac7dc718a0604cb8, byte-hops summed per noc boundary class and
// interleaved DRAM shares of bytes/d added in one fixed flow order), 15,034
// of the 56,400 traffic fields moved, by at most 10 ulp (1.3e-15 relative),
// and no other field moved. Against the per-traversal sums before that (pin
// 0x14e583a3ff832fa3), 10,253 of the 18,800 NoC/D2D byte-hop totals had
// moved, by at most 244 ulp (4.1e-14 relative).
const summariesPin = 0x4b76a218ddc1dfe2

// hashSummary folds every field of a group summary into h, floats by their
// bit patterns.
func hashSummary(h uint64, s *groupSummary) uint64 {
	feasible := uint64(0)
	if s.Feasible {
		feasible = 1
	}
	h = fnv1a(h, feasible)
	h = fnv1a(h, uint64(s.BatchUnit))
	h = fnv1a(h, uint64(s.Depth))
	for _, f := range [...]float64{s.MaxComp, s.MAC, s.GLB, s.AvgUtil,
		s.PerPass.PeakNoC, s.PerPass.PeakD2D, s.PerPass.PeakDRAM, s.PerPass.NoCBytes, s.PerPass.D2DBytes, s.PerPass.DRAMBytes,
		s.Once.PeakNoC, s.Once.PeakD2D, s.Once.PeakDRAM, s.Once.NoCBytes, s.Once.D2DBytes, s.Once.DRAMBytes} {
		h = fnv1a(h, math.Float64bits(f))
	}
	return h
}

// TestSummariesPinned hashes the bandwidth-free summary — every field, bit for
// bit — of every DP segment x batch unit of TinyCNN and TinyTransformer, and
// of every group state a seeded 300-move walk of the five SA operators visits
// from a two-group stripe scheme of each (so cross-group ofmap placement is
// read too), on G-Arch-72 and on G-Arch-72 with an 8 KB GLB (where weights
// stream and some states do not fit). A change here means the evaluator
// computes a different number, not merely the same number differently.
func TestSummariesPinned(t *testing.T) {
	small := arch.GArch72()
	small.GLBPerCore = 8 << 10
	h := uint64(fnvOffset)
	states, feasible := 0, 0
	fold := func(sum groupSummary) {
		h = hashSummary(h, &sum)
		states++
		if sum.Feasible {
			feasible++
		}
	}
	for _, cfg := range []arch.Config{arch.GArch72(), small} {
		ev := New(&cfg)
		st := core.NewStriper(&cfg)
		for _, g := range []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()} {
			ids := allLayers(g)
			for j := range ids {
				for i := j + 1; i <= len(ids); i++ {
					for _, bu := range []int{1, 2, 4, 8} {
						lms, err := st.Stripes(g, ids[j:i], bu)
						if err != nil {
							t.Fatal(err)
						}
						fold(ev.summarizeGroup(&core.Scheme{Graph: g, Batch: 8, Groups: []*core.LMS{lms}}, 0))
					}
				}
			}

			half := len(ids) / 2
			s, err := core.StripeScheme(g, &cfg, [][]int{ids[:half], ids[half:]}, []int{2, 1}, 8)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			mu := &core.Mutator{Graph: g, Drams: cfg.DRAMControllers(), Rng: rng}
			for it := 0; it < 300; it++ {
				if _, ok := mu.Apply(s.Groups[rng.Intn(len(s.Groups))]); !ok {
					continue
				}
				if err := s.Validate(&cfg); err != nil {
					t.Fatalf("%s move %d: %v", g.Name, it, err)
				}
				for gi := range s.Groups { // an OF move in group 0 re-sources group 1's reads
					fold(ev.summarizeGroup(s, gi))
				}
			}
		}
	}
	t.Logf("%d group states hashed, %d feasible", states, feasible)
	if feasible == 0 || feasible == states {
		t.Errorf("%d of %d states feasible: the pin is one-sided", feasible, states)
	}
	if h != summariesPin {
		t.Errorf("group summaries hash to %#016x, pinned %#016x: the evaluator's numbers moved", h, uint64(summariesPin))
	}
}
