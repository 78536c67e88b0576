package noc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gemini/internal/arch"
)

// TestSharedRouteTable is the oracle for sharing one route table across the
// cuts of a core array: on every mesh and folded torus from 1x1 to 8x8 cores,
// under every chiplet cut that divides it, a Network built on the monolithic
// cut's table gives the same Route for every ordered core pair, the same
// Links and the same ClassLoads over a seeded set of multicasts as one New
// builds with a table of its own.
func TestSharedRouteTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	networks := 0
	for _, topo := range []arch.Topology{arch.Mesh, arch.FoldedTorus} {
		for w := 1; w <= 8; w++ {
			for h := 1; h <= 8; h++ {
				var shared *Routes
				for xc := 1; xc <= w; xc++ {
					for yc := 1; yc <= h; yc++ {
						if w%xc != 0 || h%yc != 0 {
							continue
						}
						cfg := arch.Config{
							Name: "array", CoresX: w, CoresY: h, XCut: xc, YCut: yc,
							NoCBW: 32, D2DBW: 16, DRAMBW: 128, MACsPerCore: 1024, GLBPerCore: 1 << 20,
							FreqGHz: 1, Topology: topo,
						}
						if shared == nil {
							shared = NewRoutes(&cfg)
						}
						own, on := New(&cfg), NewOn(&cfg, shared)
						networks++
						if !reflect.DeepEqual(own.Links, on.Links) {
							t.Fatalf("%dx%d %s cut %dx%d: links differ on a shared table", w, h, topo, xc, yc)
						}
						cores := cfg.Cores()
						for src := 0; src < cores; src++ {
							for dst := 0; dst < cores; dst++ {
								a, b := own.Route(arch.CoreID(src), arch.CoreID(dst)), on.Route(arch.CoreID(src), arch.CoreID(dst))
								if !slices.Equal(a, b) {
									t.Fatalf("%dx%d %s cut %dx%d: route %d->%d is %v, on a shared table %v", w, h, topo, xc, yc, src, dst, a, b)
								}
							}
						}
						ta, tb := own.NewTraffic(), on.NewTraffic()
						for i := 0; i < 8; i++ {
							src := arch.CoreID(rng.Intn(cores))
							var dsts []arch.CoreID
							for d := 0; d < cores; d++ {
								if rng.Intn(3) == 0 {
									dsts = append(dsts, arch.CoreID(d))
								}
							}
							bytes := 1000 * rng.Float64()
							ta.Multicast(src, dsts, bytes)
							tb.Multicast(src, dsts, bytes)
						}
						if a, b := ta.ClassLoads(), tb.ClassLoads(); !slices.Equal(a, b) {
							t.Fatalf("%dx%d %s cut %dx%d: class loads %v, on a shared table %v", w, h, topo, xc, yc, a, b)
						}
					}
				}
			}
		}
	}
	t.Logf("%d networks checked", networks)
}

// TestNewOnRejectsOtherArray: a route table serves only its own core array
// and topology.
func TestNewOnRejectsOtherArray(t *testing.T) {
	mesh := arch.GArch72()
	torus := mesh
	torus.Topology = arch.FoldedTorus
	wide := mesh
	wide.CoresX *= 2
	for _, other := range []*arch.Config{&torus, &wide} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on %s's route table did not panic", other, mesh.Name)
				}
			}()
			NewOn(other, NewRoutes(&mesh))
		}()
	}
}
