package noc

import (
	"math/rand"
	"testing"

	"gemini/internal/arch"
)

// classKey is a boundary class named by geometry: the axis, and gcd(b, edge)
// of the boundary b a link crosses, or 0 for that axis's wrap links.
type classKey struct {
	vertical bool
	g        int
}

// geometricClass names link l's class from its endpoints alone.
func geometricClass(cfg *arch.Config, l Link) classKey {
	fx, fy := cfg.CoreXY(l.From)
	tx, ty := cfg.CoreXY(l.To)
	if fy == ty {
		if abs(fx-tx) > 1 {
			return classKey{false, 0}
		}
		return classKey{false, gcd(max(fx, tx), cfg.CoresX)}
	}
	if abs(fy-ty) > 1 {
		return classKey{true, 0}
	}
	return classKey{true, gcd(max(fy, ty), cfg.CoresY)}
}

// canonicalKeys lists the classes of a core array in the order Digest adds
// them: x classes by ascending gcd, the x wrap, then the same for y.
func canonicalKeys(cfg *arch.Config) []classKey {
	var keys []classKey
	for _, ax := range []struct {
		vertical bool
		edge     int
	}{{false, cfg.CoresX}, {true, cfg.CoresY}} {
		for g := 1; g < ax.edge; g++ {
			if ax.edge%g == 0 {
				keys = append(keys, classKey{ax.vertical, g})
			}
		}
		if cfg.Topology == arch.FoldedTorus && ax.edge > 2 {
			keys = append(keys, classKey{ax.vertical, 0})
		}
	}
	return keys
}

// bruteDigest recomputes tr's Digest link by link from geometry: each
// class's loads summed in link order, the classes added in canonical order,
// each link's D2D flag its own, and every figure converted to bytes last.
func bruteDigest(t *testing.T, n *Network, tr *Traffic) Digest {
	var d Digest
	for _, key := range canonicalKeys(n.Cfg) {
		var sum float64
		d2d, members := false, 0
		for l, link := range n.Links {
			if geometricClass(n.Cfg, link) != key {
				continue
			}
			if members > 0 && link.D2D != d2d {
				t.Fatalf("%s: class %+v mixes D2D and on-chip links", n.Cfg.Name, key)
			}
			d2d = link.D2D
			members++
			sum += tr.load[l]
			if link.D2D {
				d.PeakD2D = max(d.PeakD2D, tr.load[l])
			} else {
				d.PeakNoC = max(d.PeakNoC, tr.load[l])
			}
		}
		if members == 0 {
			t.Fatalf("%s: class %+v has no links", n.Cfg.Name, key)
		}
		if d2d {
			d.D2DBytes += sum
		} else {
			d.NoCBytes += sum
		}
	}
	for i := range tr.dramRead {
		v := tr.dramRead[i] + tr.dramWrite[i]
		d.PeakDRAM = max(d.PeakDRAM, v)
		d.DRAMBytes += v
	}
	u := n.units()
	return Digest{PeakNoC: d.PeakNoC / u, PeakD2D: d.PeakD2D / u, PeakDRAM: d.PeakDRAM / u,
		NoCBytes: d.NoCBytes / u, D2DBytes: d.D2DBytes / u, DRAMBytes: d.DRAMBytes / u}
}

// TestBoundaryClassRule discharges the boundary-class rule by exhaustive
// search: on every core array of 1..16 x 1..16 cores, mesh and folded torus,
// under every chiplet cut that divides it, the D2D flag a class's cut rule
// gives equals every member link's D2D flag, the number of classes is the
// array's alone, and Digest over random non-integer loads — where summation
// order shows in the last bits — equals a link-by-link recomputation in the
// canonical class order.
func TestBoundaryClassRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	networks := 0
	for _, topo := range []arch.Topology{arch.Mesh, arch.FoldedTorus} {
		for w := 1; w <= 16; w++ {
			for h := 1; h <= 16; h++ {
				classes := -1
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
						n := newLinkGraph(&cfg) // Digest reads no route
						networks++
						for l, link := range n.Links {
							if n.classD2D[n.class[l]] != link.D2D {
								t.Fatalf("%dx%d %s cut %dx%d: link %d-%d is D2D=%t, its class says %t",
									w, h, topo, xc, yc, link.From, link.To, link.D2D, n.classD2D[n.class[l]])
							}
						}
						if classes < 0 {
							classes = n.Classes()
						} else if n.Classes() != classes {
							t.Fatalf("%dx%d %s: cut %dx%d has %d classes, cut 1x1 %d", w, h, topo, xc, yc, n.Classes(), classes)
						}
						if len(canonicalKeys(&cfg)) != classes {
							t.Fatalf("%dx%d %s: %d classes, geometry names %d", w, h, topo, classes, len(canonicalKeys(&cfg)))
						}
						tr := n.NewTraffic()
						for l := range tr.load {
							tr.load[l] = 1000 * rng.Float64()
						}
						for i := range tr.dramRead {
							tr.dramRead[i], tr.dramWrite[i] = 1000*rng.Float64(), 1000*rng.Float64()
						}
						if got, want := tr.Digest(), bruteDigest(t, n, tr); got != want {
							t.Fatalf("%dx%d %s cut %dx%d: Digest %+v, link by link %+v", w, h, topo, xc, yc, got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d networks checked", networks)
}
