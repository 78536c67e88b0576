package noc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gemini/internal/arch"
)

func meshCfg() *arch.Config {
	c := arch.GArch72()
	return &c
}

func TestMeshLinkCount(t *testing.T) {
	c := meshCfg() // 6x6
	n := New(c)
	want := 2*(6-1)*6 + 2*6*(6-1) // directed horizontal + vertical
	if len(n.Links) != want {
		t.Errorf("links = %d, want %d", len(n.Links), want)
	}
}

func TestD2DLinksAtCut(t *testing.T) {
	c := meshCfg() // XCut=2 between x=2 and x=3
	n := New(c)
	d2d := 0
	for _, l := range n.Links {
		fx, _ := c.CoreXY(l.From)
		tx, _ := c.CoreXY(l.To)
		cross := (fx == 2 && tx == 3) || (fx == 3 && tx == 2)
		if l.D2D != cross {
			t.Fatalf("link %v-%v D2D=%t, want %t", l.From, l.To, l.D2D, cross)
		}
		if l.D2D {
			d2d++
		}
	}
	if d2d != 12 { // 6 rows x 2 directions
		t.Errorf("d2d links = %d, want 12", d2d)
	}
}

func TestRouteManhattan(t *testing.T) {
	c := meshCfg()
	n := New(c)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := arch.CoreID(rng.Intn(c.Cores()))
		b := arch.CoreID(rng.Intn(c.Cores()))
		ax, ay := c.CoreXY(a)
		bx, by := c.CoreXY(b)
		want := abs(ax-bx) + abs(ay-by)
		if got := len(n.Route(a, b)); got != want {
			t.Fatalf("route %v->%v len=%d, want %d", a, b, got, want)
		}
	}
}

func TestRoutePathContiguous(t *testing.T) {
	c := meshCfg()
	n := New(c)
	src, dst := c.CoreAt(0, 0), c.CoreAt(5, 5)
	cur := src
	for _, li := range n.Route(src, dst) {
		l := n.Links[li]
		if l.From != cur {
			t.Fatalf("path discontinuity at %v (link from %v)", cur, l.From)
		}
		cur = l.To
	}
	if cur != dst {
		t.Fatalf("path ends at %v, want %v", cur, dst)
	}
}

func TestTorusShorterOrEqual(t *testing.T) {
	mesh := arch.Grayskull()
	mesh.Topology = arch.Mesh
	torus := arch.Grayskull()
	nm, nt := New(&mesh), New(&torus)
	rng := rand.New(rand.NewSource(2))
	shorter := 0
	for i := 0; i < 500; i++ {
		a := arch.CoreID(rng.Intn(mesh.Cores()))
		b := arch.CoreID(rng.Intn(mesh.Cores()))
		lm, lt := len(nm.Route(a, b)), len(nt.Route(a, b))
		if lt > lm {
			t.Fatalf("torus path %v->%v longer than mesh (%d > %d)", a, b, lt, lm)
		}
		if lt < lm {
			shorter++
		}
	}
	if shorter == 0 {
		t.Error("torus never used wrap links")
	}
}

func TestTorusWrapPath(t *testing.T) {
	c := arch.Grayskull() // 12x10 folded torus
	n := New(&c)
	// Opposite edge cores: wrap distance is 1 per dimension.
	got := len(n.Route(c.CoreAt(0, 0), c.CoreAt(11, 0)))
	if got != 1 {
		t.Errorf("wrap route length = %d, want 1", got)
	}
}

func TestUnicastAccumulates(t *testing.T) {
	c := meshCfg()
	n := New(c)
	tr := n.NewTraffic()
	tr.Multicast(c.CoreAt(0, 0), []arch.CoreID{c.CoreAt(3, 0)}, 100)
	onchip, d2d, _ := tr.TotalBytes()
	// 3 hops: two on-chip (0->1->2), one D2D (2->3).
	if onchip != 200 || d2d != 100 {
		t.Errorf("onchip=%v d2d=%v, want 200/100", onchip, d2d)
	}
	if got, _ := tr.MaxLinkLoad(); got != 100 {
		t.Errorf("max link load = %v", got)
	}
}

func TestMulticastDedup(t *testing.T) {
	c := meshCfg()
	n := New(c)
	src := c.CoreAt(0, 0)
	dsts := []arch.CoreID{c.CoreAt(2, 0), c.CoreAt(2, 1), c.CoreAt(2, 2)}

	uni := n.NewTraffic()
	for _, d := range dsts {
		uni.Multicast(src, []arch.CoreID{d}, 100)
	}
	multi := n.NewTraffic()
	multi.Multicast(src, dsts, 100)

	uo, _, _ := uni.TotalBytes()
	mo, _, _ := multi.TotalBytes()
	if mo >= uo {
		t.Errorf("multicast byte-hops %v should beat unicast %v", mo, uo)
	}
	// Tree: 0->1->2 shared (2 links), then 2 vertical links = 4 links.
	if mo != 400 {
		t.Errorf("multicast hops = %v, want 400", mo)
	}
	// Longest single path is a lower bound.
	single := n.NewTraffic()
	single.Multicast(src, []arch.CoreID{dsts[2]}, 100)
	so, _, _ := single.TotalBytes()
	if mo < so {
		t.Errorf("multicast %v below longest unicast %v", mo, so)
	}
}

func TestMulticastPropertyBounds(t *testing.T) {
	c := meshCfg()
	n := New(c)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		src := arch.CoreID(rng.Intn(c.Cores()))
		k := 1 + rng.Intn(5)
		dsts := make([]arch.CoreID, k)
		for j := range dsts {
			dsts[j] = arch.CoreID(rng.Intn(c.Cores()))
		}
		uni, multi := n.NewTraffic(), n.NewTraffic()
		longest := 0.0
		for _, d := range dsts {
			uni.Multicast(src, []arch.CoreID{d}, 10)
			one := n.NewTraffic()
			one.Multicast(src, []arch.CoreID{d}, 10)
			oo, od, _ := one.TotalBytes()
			if oo+od > longest {
				longest = oo + od
			}
		}
		multi.Multicast(src, dsts, 10)
		uo, ud, _ := uni.TotalBytes()
		mo, md, _ := multi.TotalBytes()
		if mo+md > uo+ud {
			t.Fatalf("multicast exceeded unicast sum (%v > %v)", mo+md, uo+ud)
		}
		if mo+md < longest {
			t.Fatalf("multicast below longest single path (%v < %v)", mo+md, longest)
		}
	}
}

func TestDRAMInterleaveBalances(t *testing.T) {
	c := meshCfg()
	n := New(c)
	tr := n.NewTraffic()
	tr.DRAMRead(-1, []arch.CoreID{c.CoreAt(3, 3)}, 1000)
	for i := range tr.dramRead {
		if tr.dramRead[i] == 0 {
			t.Errorf("controller %d unused under interleave", i)
		}
	}
	if total := tr.Digest().DRAMBytes; total != 1000 {
		t.Errorf("total read = %v, want 1000", total)
	}
}

func TestDRAMSpecificController(t *testing.T) {
	c := meshCfg()
	n := New(c)
	tr := n.NewTraffic()
	tr.DRAMWrite(1, c.CoreAt(3, 3), 500)
	if got := tr.dramWrite[1] / n.units(); got != 500 {
		t.Errorf("ctrl 1 write = %v", got)
	}
	for i := range tr.dramWrite {
		if i != 1 && tr.dramWrite[i] != 0 {
			t.Errorf("ctrl %d unexpectedly used", i)
		}
	}
}

func TestBottleneckTime(t *testing.T) {
	c := meshCfg()
	n := New(c)
	tr := n.NewTraffic()
	// Load one on-chip link with 32e9 bytes at 32 GB/s -> exactly 1 s.
	tr.Multicast(c.CoreAt(0, 0), []arch.CoreID{c.CoreAt(1, 0)}, 32e9)
	if got := tr.BottleneckTime(); got < 0.99 || got > 1.01 {
		t.Errorf("bottleneck = %v s, want ~1", got)
	}
	// The same bytes over a D2D link (16 GB/s) take twice as long.
	tr2 := n.NewTraffic()
	tr2.Multicast(c.CoreAt(2, 0), []arch.CoreID{c.CoreAt(3, 0)}, 32e9)
	if got := tr2.BottleneckTime(); got < 1.99 || got > 2.01 {
		t.Errorf("d2d bottleneck = %v s, want ~2", got)
	}
}

// TestAddFromScales: the Digest of a transfer of three times the bytes is
// three times the Digest, peaks and byte-hops alike.
func TestAddFromScales(t *testing.T) {
	c := meshCfg()
	n := New(c)
	a, b := n.NewTraffic(), n.NewTraffic()
	a.Multicast(c.CoreAt(0, 0), []arch.CoreID{c.CoreAt(5, 0)}, 100)
	a.DRAMWrite(0, c.CoreAt(2, 2), 50)
	b.Multicast(c.CoreAt(0, 0), []arch.CoreID{c.CoreAt(5, 0)}, 300)
	b.DRAMWrite(0, c.CoreAt(2, 2), 150)
	da, db := a.Digest(), b.Digest()
	if da.NoCBytes == 0 || da.D2DBytes == 0 || db != (Digest{
		PeakNoC: 3 * da.PeakNoC, PeakD2D: 3 * da.PeakD2D, PeakDRAM: 3 * da.PeakDRAM,
		NoCBytes: 3 * da.NoCBytes, D2DBytes: 3 * da.D2DBytes, DRAMBytes: 3 * da.DRAMBytes,
	}) {
		t.Errorf("digest of 3x the bytes %+v, of 1x %+v", db, da)
	}
}

func TestResetClears(t *testing.T) {
	c := meshCfg()
	n := New(c)
	tr := n.NewTraffic()
	tr.Multicast(c.CoreAt(0, 0), []arch.CoreID{c.CoreAt(5, 5)}, 100)
	tr.DRAMRead(0, []arch.CoreID{c.CoreAt(2, 2)}, 50)
	tr.Reset()
	o, d, dr := tr.TotalBytes()
	if o != 0 || d != 0 || dr != 0 {
		t.Errorf("reset left traffic: %v %v %v", o, d, dr)
	}
}

func TestHeatmapOutputs(t *testing.T) {
	c := meshCfg()
	n := New(c)
	tr := n.NewTraffic()
	tr.Multicast(c.CoreAt(0, 0), []arch.CoreID{c.CoreAt(5, 5)}, 1000)
	rows := tr.HeatmapRows()
	if len(rows) != len(n.Links) {
		t.Fatalf("rows = %d, want %d", len(rows), len(n.Links))
	}
	if rows[0].Pressure < rows[len(rows)-1].Pressure {
		t.Error("rows not sorted by pressure")
	}
	csv := tr.CSV()
	if !strings.HasPrefix(csv, "from_x,from_y") || strings.Count(csv, "\n") != len(n.Links)+1 {
		t.Error("csv malformed")
	}
	ascii := tr.ASCII()
	if !strings.Contains(ascii, "|") {
		t.Error("ascii heatmap missing chiplet cut marker")
	}
	if len(strings.Split(strings.TrimSpace(ascii), "\n")) != c.CoresY {
		t.Errorf("ascii rows = %d", len(strings.Split(strings.TrimSpace(ascii), "\n")))
	}
}

func TestPortCoreNearestRow(t *testing.T) {
	c := meshCfg()
	n := New(c)
	// Controller 0 spans the top rows of the left edge; a peer in its span
	// gets the same-row port.
	peer := c.CoreAt(4, 0)
	port := n.PortCore(0, peer)
	px, py := c.CoreXY(port)
	if px != 0 {
		t.Errorf("port x = %d, want left edge", px)
	}
	if py != 0 {
		t.Errorf("port y = %d, want row 0", py)
	}
}

// TestPortCoreTableMatchesScan pins the table noc.New precomputes against the
// scan PortCore used to run per DRAM flow — the controller's first attachment
// core at the least row distance — for every (controller, core) pair,
// controller indices past the count (they wrap) included. The 8x2 array at
// 320 GB/s has five controllers per edge sharing two rows.
func TestPortCoreTableMatchesScan(t *testing.T) {
	wide := arch.GArch72()
	wide.CoresX, wide.CoresY, wide.XCut, wide.YCut, wide.DRAMBW = 8, 2, 1, 1, 320
	for _, cfg := range []arch.Config{arch.GArch72(), arch.GArchTorus(), arch.Grayskull(), wide} {
		n := New(&cfg)
		ports := cfg.DRAMPorts()
		if cfg.CoresY == 2 && len(ports) <= 2*cfg.CoresY {
			t.Fatalf("%s: %d controllers do not outnumber the edge rows", cfg.Name, len(ports))
		}
		for ctrl := 0; ctrl < 2*len(ports); ctrl++ {
			p := ports[ctrl%len(ports)]
			for id := 0; id < cfg.Cores(); id++ {
				peer := arch.CoreID(id)
				_, py := cfg.CoreXY(peer)
				want, wantD := p.Cores[0], 1<<30
				for _, c := range p.Cores {
					_, cy := cfg.CoreXY(c)
					if d := abs(cy - py); d < wantD {
						want, wantD = c, d
					}
				}
				if got := n.PortCore(ctrl, peer); got != want {
					t.Fatalf("%s: PortCore(%d, %d) = %d, scan says %d", cfg.Name, ctrl, peer, got, want)
				}
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestRemoveMulticastUndoesAdd: on a mesh and a torus, taking back (with
// negative bytes) a seeded half of many integer transfers — multicasts, and
// DRAM reads and writes pinned to a controller or interleaved — leaves every
// link and controller load exactly what adding only the other half gives,
// and transfers of zero bytes or to no destination add nothing.
func TestRemoveMulticastUndoesAdd(t *testing.T) {
	torus := arch.GArchTorus()
	for _, cfg := range []*arch.Config{meshCfg(), &torus} {
		n := New(cfg)
		rng := rand.New(rand.NewSource(3))
		both, kept := n.NewTraffic(), n.NewTraffic()
		// flow is a multicast from src (kind 0), a DRAM read (1) or write (2)
		// on ctrl, -1 for interleaved.
		type flow struct {
			kind, ctrl int
			src        arch.CoreID
			dsts       []arch.CoreID
			bytes      float64
		}
		add := func(tr *Traffic, f flow, sign float64) {
			switch f.kind {
			case 0:
				tr.Multicast(f.src, f.dsts, sign*f.bytes)
			case 1:
				tr.DRAMRead(f.ctrl, f.dsts, sign*f.bytes)
			default:
				tr.DRAMWrite(f.ctrl, f.src, sign*f.bytes)
			}
		}
		var removed []flow
		kinds := [3]int{}
		for i := 0; i < 1500; i++ {
			f := flow{kind: rng.Intn(3), ctrl: rng.Intn(n.Controllers()+1) - 1,
				src: arch.CoreID(rng.Intn(cfg.Cores())), bytes: float64(1 + rng.Intn(1<<20))}
			for d := 1 + rng.Intn(5); d > 0; d-- {
				f.dsts = append(f.dsts, arch.CoreID(rng.Intn(cfg.Cores())))
			}
			add(both, f, 1)
			if rng.Intn(2) == 0 {
				removed = append(removed, f)
				kinds[f.kind]++
			} else {
				add(kept, f, 1)
			}
		}
		for _, f := range removed {
			add(both, f, -1)
			// Zero bytes, and a multicast or read to no destination, add
			// nothing.
			zero, none := f, f
			zero.bytes, none.dsts = 0, nil
			add(both, zero, 1)
			if f.kind != 2 {
				add(both, none, 1)
			}
		}
		if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
			t.Fatalf("%s: removed %v multicasts, reads, writes; want some of each", cfg.Name, kinds)
		}
		if !reflect.DeepEqual(both.load, kept.load) || !reflect.DeepEqual(both.dramRead, kept.dramRead) ||
			!reflect.DeepEqual(both.dramWrite, kept.dramWrite) {
			for l := range both.load {
				if both.load[l] != kept.load[l] {
					t.Errorf("%s link %d: %v after removing, %v never added", cfg.Name, l, both.load[l], kept.load[l])
				}
			}
			t.Fatalf("%s: reads %v / %v, writes %v / %v after removing / never added", cfg.Name,
				both.dramRead, kept.dramRead, both.dramWrite, kept.dramWrite)
		}
	}
}
