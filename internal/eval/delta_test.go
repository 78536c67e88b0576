package eval

import (
	"math/rand"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
)

// TestDeltaKeyIsGroupKey holds the key the delta path hashes — from the first
// MS a move changed, with the cross-group context read from the producers'
// recorded places — against groupKey's from scratch, after every move of a
// seeded walk that keeps or undoes each move at random, for the mutated group
// and, after an ofmap-destination change, for every group reading it.
func TestDeltaKeyIsGroupKey(t *testing.T) {
	for _, cfg := range []arch.Config{arch.GArch72(), arch.GArchTorus()} {
		for _, g := range []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()} {
			ids := allLayers(g)
			var groups [][]int
			var bus []int
			for lo := 0; lo < len(ids); lo += 2 {
				groups = append(groups, ids[lo:min(lo+2, len(ids))])
				bus = append(bus, 2)
			}
			s, err := core.StripeScheme(g, &cfg, groups, bus, 8)
			if err != nil {
				t.Fatal(err)
			}
			ev := New(&cfg)
			deltas := make([]*GroupDelta, len(s.Groups))
			for gi := range deltas {
				deltas[gi] = ev.NewGroupDelta(s, gi)
			}
			rng := rand.New(rand.NewSource(7))
			mu := &core.Mutator{Graph: g, Drams: cfg.DRAMControllers(), Rng: rng}
			checked := 0
			for it := 0; it < 600; it++ {
				gi := rng.Intn(len(s.Groups))
				old := s.Groups[gi]
				s.Groups[gi] = old.Clone()
				op, ok := mu.Apply(s.Groups[gi])
				if !ok {
					s.Groups[gi] = old
					continue
				}
				touched := []int{gi}
				if op == core.OpFD {
					x := mu.Changed()[0]
					deltas[gi].ChangedFD(x)
					if mu.ChangedOF() {
						layer := s.Groups[gi].MSs[x].Layer
						for gj, lms := range s.Groups {
							for y, ms := range lms.MSs {
								for _, in := range g.Layer(ms.Layer).Inputs {
									if gj != gi && in.Src == layer {
										deltas[gj].ChangedFD(y)
										if touched[len(touched)-1] != gj {
											touched = append(touched, gj)
										}
									}
								}
							}
						}
					}
				} else {
					for _, x := range mu.Changed() {
						deltas[gi].Changed(x)
					}
				}
				for _, gj := range touched {
					if got, want := ev.deltaKey(deltas[gj], s), ev.groupKey(s, gj); got != want {
						t.Fatalf("%s on %s, move %d (%v on group %d): group %d delta key %+v, from scratch %+v",
							g.Name, cfg.Name, it, op, gi, gj, got, want)
					}
					checked++
				}
				accept := rng.Intn(2) == 0
				if !accept {
					s.Groups[gi] = old
				}
				for _, gj := range touched {
					deltas[gj].Settle(accept)
				}
			}
			if checked < 300 {
				t.Fatalf("%s on %s: %d keys checked", g.Name, cfg.Name, checked)
			}
		}
	}
}
