package eval

import (
	"math/big"
	"math/rand"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/noc"
)

// exactTraffic is a reference noc.Traffic in exact rationals: every link and
// controller load in bytes, an interleaved flow's share bytes/d and all.
type exactTraffic struct {
	net        *noc.Network
	link, ctrl []big.Rat
}

func newExactTraffic(n *noc.Network) *exactTraffic {
	return &exactTraffic{net: n, link: make([]big.Rat, len(n.Links)), ctrl: make([]big.Rat, n.Controllers())}
}

// add adds bytes to controller ctrl (if ctrl >= 0) and once to every link of
// the union of the paths.
func (x *exactTraffic) add(ctrl int, bytes *big.Rat, paths ...[]int32) {
	if ctrl >= 0 {
		x.ctrl[ctrl].Add(&x.ctrl[ctrl], bytes)
	}
	seen := map[int32]bool{}
	for _, p := range paths {
		for _, l := range p {
			if !seen[l] {
				seen[l] = true
				x.link[l].Add(&x.link[l], bytes)
			}
		}
	}
}

// dram adds a DRAM read multicast to cores, or a write from cores[0], on ctrl
// or, for ctrl < 0, a 1/d share on each of the d controllers.
func (x *exactTraffic) dram(ctrl int, cores []arch.CoreID, bytes float64, write bool) {
	if len(cores) == 0 {
		return
	}
	d := x.net.Controllers()
	share := new(big.Rat).SetFloat64(bytes)
	ctrls := []int{ctrl % d}
	if ctrl < 0 {
		share.Quo(share, big.NewRat(int64(d), 1))
		ctrls = ctrls[:0]
		for c := 0; c < d; c++ {
			ctrls = append(ctrls, c)
		}
	}
	for _, c := range ctrls {
		var paths [][]int32
		if write {
			paths = append(paths, x.net.Route(cores[0], x.net.PortCore(c, cores[0])))
		} else {
			for _, dst := range cores {
				paths = append(paths, x.net.Route(x.net.PortCore(c, dst), dst))
			}
		}
		x.add(c, share, paths...)
	}
}

// digest rounds every exact figure of the traffic to float64 once.
func (x *exactTraffic) digest() noc.Digest {
	var peakNoC, peakD2D, peakDRAM, nocBytes, d2dBytes, dramBytes big.Rat
	maxRat := func(m, v *big.Rat) {
		if v.Cmp(m) > 0 {
			m.Set(v)
		}
	}
	for l := range x.link {
		if x.net.Links[l].D2D {
			maxRat(&peakD2D, &x.link[l])
			d2dBytes.Add(&d2dBytes, &x.link[l])
		} else {
			maxRat(&peakNoC, &x.link[l])
			nocBytes.Add(&nocBytes, &x.link[l])
		}
	}
	for c := range x.ctrl {
		maxRat(&peakDRAM, &x.ctrl[c])
		dramBytes.Add(&dramBytes, &x.ctrl[c])
	}
	f := func(r *big.Rat) float64 { v, _ := r.Float64(); return v }
	return noc.Digest{PeakNoC: f(&peakNoC), PeakD2D: f(&peakD2D), PeakDRAM: f(&peakDRAM),
		NoCBytes: f(&nocBytes), D2DBytes: f(&d2dBytes), DRAMBytes: f(&dramBytes)}
}

// exactDigests routes a feasible group's flows as the evaluator does — the
// weight slices of GLB-resident cores into the load-once traffic, the rest
// and every activation flow per pass — into exact traffic, and returns both
// digests.
func exactDigests(e *Evaluator, an *core.Analysis) (pass, once noc.Digest) {
	tr, wo := newExactTraffic(e.Net), newExactTraffic(e.Net)
	for _, f := range an.ActFlows {
		var paths [][]int32
		for _, dst := range f.Dsts {
			paths = append(paths, e.Net.Route(f.Src, dst))
		}
		tr.add(-1, new(big.Rat).SetFloat64(f.Bytes), paths...)
	}
	for _, f := range an.ActDRAM {
		tr.dram(f.Ctrl, f.Cores, f.Bytes, f.Write)
	}
	for _, f := range an.WeightFlows {
		var res, str []arch.CoreID
		for _, c := range f.Cores {
			if e.cache.memo.Explore(an.CoreWorks[c], e.coreParams()).WeightsResident {
				res = append(res, c)
			} else {
				str = append(str, c)
			}
		}
		wo.dram(f.Ctrl, res, f.Bytes, false)
		tr.dram(f.Ctrl, str, f.Bytes, false)
	}
	return tr.digest(), wo.digest()
}

// TestDigestIsExactRoundedOnce holds the evaluator's traffic digests against
// an exact rational reference: for every DP segment of TinyCNN and
// TinyTransformer at batch units 1 and 4, and every group state of a seeded
// 150-move walk from a two-group stripe scheme of each, on G-Arch-72 (five
// DRAM controllers, so an interleaved share is no binary fraction), on the
// same array with an 8 KB GLB (weights stream) and on the folded-torus
// G-Arch, each field of both digests equals the exact load rounded to
// float64 once.
func TestDigestIsExactRoundedOnce(t *testing.T) {
	small := arch.GArch72()
	small.GLBPerCore = 8 << 10
	states, interleaved := 0, 0
	for _, cfg := range []arch.Config{arch.GArch72(), small, arch.GArchTorus()} {
		ev := New(&cfg)
		st := core.NewStriper(&cfg)
		check := func(s *core.Scheme, gi int) {
			t.Helper()
			sum := ev.summarizeGroup(s, gi)
			if !sum.Feasible {
				return
			}
			an, err := core.Analyze(s, gi, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			pass, once := exactDigests(ev, an)
			if sum.PerPass != pass || sum.Once != once {
				t.Fatalf("%s on %s group %d: digests\n%+v\n%+v\nexact, rounded once\n%+v\n%+v",
					s.Graph.Name, cfg.Name, gi, sum.PerPass, sum.Once, pass, once)
			}
			states++
			for _, f := range append(an.ActDRAM[:len(an.ActDRAM):len(an.ActDRAM)], an.WeightFlows...) {
				if f.Ctrl < 0 {
					interleaved++
					break
				}
			}
		}
		for _, g := range []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()} {
			ids := allLayers(g)
			for j := range ids {
				for i := j + 1; i <= len(ids); i++ {
					for _, bu := range []int{1, 4} {
						lms, err := st.Stripes(g, ids[j:i], bu)
						if err != nil {
							t.Fatal(err)
						}
						check(&core.Scheme{Graph: g, Batch: 8, Groups: []*core.LMS{lms}}, 0)
					}
				}
			}
			half := len(ids) / 2
			s, err := core.StripeScheme(g, &cfg, [][]int{ids[:half], ids[half:]}, []int{2, 1}, 8)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			mu := &core.Mutator{Graph: g, Drams: cfg.DRAMControllers(), Rng: rng}
			for it := 0; it < 150; it++ {
				if _, ok := mu.Apply(s.Groups[rng.Intn(len(s.Groups))]); !ok {
					continue
				}
				for gi := range s.Groups {
					check(s, gi)
				}
			}
		}
	}
	t.Logf("%d feasible group states, %d with an interleaved DRAM flow", states, interleaved)
	if interleaved == 0 || interleaved == states {
		t.Errorf("%d of %d states interleave a DRAM flow: the reference is one-sided", interleaved, states)
	}
}
