package noc

import (
	"reflect"
	"strings"
	"testing"

	"gemini/internal/arch"
)

func TestD2DPressureDoubling(t *testing.T) {
	// Fig. 9 note: with D2D bandwidth at half the NoC's, equal byte loads
	// show double the pressure on D2D links. HeatmapRows' pressure metric
	// (load / bandwidth) encodes exactly that.
	c := meshCfg() // NoC 32, D2D 16
	n := New(c)
	tr := n.NewTraffic()
	tr.Multicast(c.CoreAt(1, 0), []arch.CoreID{c.CoreAt(2, 0)}, 1000) // on-chip
	tr.Multicast(c.CoreAt(2, 1), []arch.CoreID{c.CoreAt(3, 1)}, 1000) // D2D crossing
	var onP, d2dP float64
	for _, r := range tr.HeatmapRows() {
		if r.Bytes == 0 {
			continue
		}
		if r.D2D {
			d2dP = r.Pressure
		} else {
			onP = r.Pressure
		}
	}
	if d2dP != 2*onP {
		t.Errorf("D2D pressure %v, want 2x on-chip %v", d2dP, onP)
	}
}

func TestTorusChipletCutD2D(t *testing.T) {
	// A folded torus with cuts still marks boundary (and wrap) links D2D.
	cfg := arch.GArchTorus() // 10x6, 2x3 cuts
	n := New(&cfg)
	d2d := 0
	for _, l := range n.Links {
		if l.D2D {
			d2d++
		}
	}
	if d2d == 0 {
		t.Fatal("torus with cuts should have D2D links")
	}
	// Wrap links connect opposite edges, which lie in different chiplets.
	wrap := n.Route(cfg.CoreAt(0, 0), cfg.CoreAt(9, 0))
	if len(wrap) != 1 {
		t.Fatalf("expected single wrap hop, got %d", len(wrap))
	}
	if !n.Links[wrap[0]].D2D {
		t.Error("wrap link between edge chiplets should be D2D")
	}
}

func TestTwoByTwoTorusHasNoWrap(t *testing.T) {
	cfg := arch.Config{
		CoresX: 2, CoresY: 2, XCut: 1, YCut: 1,
		NoCBW: 32, DRAMBW: 64, MACsPerCore: 1024, GLBPerCore: 1 << 20,
		FreqGHz: 1, Topology: arch.FoldedTorus,
	}
	n := New(&cfg)
	// Wrap links on a 2-wide dimension would duplicate the direct link.
	want := 2*(2-1)*2 + 2*2*(2-1)
	if len(n.Links) != want {
		t.Errorf("2x2 torus links = %d, want %d (no wraps)", len(n.Links), want)
	}
}

func TestCSVStable(t *testing.T) {
	c := meshCfg()
	n := New(c)
	tr := n.NewTraffic()
	tr.Multicast(c.CoreAt(0, 0), []arch.CoreID{c.CoreAt(5, 5)}, 500)
	a, b := tr.CSV(), tr.CSV()
	if a != b {
		t.Error("CSV output not deterministic")
	}
	if !strings.Contains(a, "true") {
		t.Error("no D2D rows serialized despite crossing the cut")
	}
}

func TestBottleneckInfiniteOnZeroBW(t *testing.T) {
	cfg := arch.GArch72()
	cfg.D2DBW = 0
	n := New(&cfg)
	tr := n.NewTraffic()
	tr.Multicast(cfg.CoreAt(2, 0), []arch.CoreID{cfg.CoreAt(3, 0)}, 100)
	if got := tr.BottleneckTime(); got < 1e100 {
		t.Errorf("zero-bandwidth link should give effectively infinite time, got %v", got)
	}
}

// TestLinkBWSumMatchesLinkGraph pins the arithmetic link-bandwidth
// aggregate (used by the DSE bound engine) to the actual link set New
// builds, across topologies and cut layouts.
func TestLinkBWSumMatchesLinkGraph(t *testing.T) {
	cfgs := []arch.Config{arch.GArch72(), arch.Grayskull()}
	mono := arch.GArch72()
	mono.XCut, mono.YCut = 1, 1
	cfgs = append(cfgs, mono)
	cuts := arch.GArch72()
	cuts.XCut, cuts.YCut = 3, 3
	cfgs = append(cfgs, cuts)
	torus := cuts
	torus.Topology = arch.FoldedTorus
	cfgs = append(cfgs, torus)
	for _, cfg := range cfgs {
		n := New(&cfg)
		want := 0.0
		for i := range n.Links {
			want += n.LinkBW(i)
		}
		if got := LinkBWSum(&cfg); got != want {
			t.Errorf("%s %s: LinkBWSum = %v, want %v (from %d links)",
				cfg.Topology, cfg.Name, got, want, len(n.Links))
		}
	}
}

// TestDRAMReadControllerIndexing: a single-destination DRAM read multicast
// loads the controller and the route from the controller's port to the
// destination — 4096·d units for a pinned read, 4096 on each of the d
// controllers for an interleaved one — for every controller index a caller
// can pass: interleaved (-1), in range, and past the end, which every entry
// point wraps the same way (DRAMRead used to index the load table
// raw and panic).
func TestDRAMReadControllerIndexing(t *testing.T) {
	torus := arch.GArchTorus()
	for _, cfg := range []*arch.Config{meshCfg(), &torus} {
		n := New(cfg)
		for ctrl := -1; ctrl < 2*n.Controllers(); ctrl++ {
			for dst := arch.CoreID(0); int(dst) < cfg.Cores(); dst++ {
				uni, multi := n.NewTraffic(), n.NewTraffic()
				read := func(c int, units float64) {
					uni.dramRead[c%n.Controllers()] += units
					uni.addPath(n.Route(n.PortCore(c, dst), dst), units)
				}
				if ctrl < 0 {
					for c := 0; c < n.Controllers(); c++ {
						read(c, 4096)
					}
				} else {
					read(ctrl, 4096*n.units())
				}
				multi.DRAMRead(ctrl, []arch.CoreID{dst}, 4096)
				if !reflect.DeepEqual(uni.load, multi.load) || !reflect.DeepEqual(uni.dramRead, multi.dramRead) ||
					uni.Digest() != multi.Digest() {
					t.Fatalf("%s ctrl %d -> core %d: unicast read %v/%+v, single-destination multicast %v/%+v",
						cfg.Name, ctrl, dst, uni.dramRead, uni.Digest(), multi.dramRead, multi.Digest())
				}
			}
		}
	}
}
