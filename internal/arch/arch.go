// Package arch implements the scalable hardware template of the Gemini
// paper (Sec. III): a configurable array of computing cores interconnected
// by a mesh (or folded-torus) NoC, partitioned into chiplets along X/Y cuts,
// with IO chiplets hosting DRAM controllers on the left/right edges.
package arch

import (
	"fmt"
)

// Topology selects the NoC interconnect shape.
type Topology int

const (
	// Mesh is the default point-to-point parallel interconnect (Sec. III).
	Mesh Topology = iota
	// FoldedTorus adds wrap-around rows/columns links (Sec. VI-B2).
	FoldedTorus
)

// String returns the topology name.
func (t Topology) String() string {
	if t == FoldedTorus {
		return "folded-torus"
	}
	return "mesh"
}

// DRAMCtrlBW is the bandwidth supplied by one DRAM die/controller in GB/s
// (GDDR6, paper Sec. V-C).
const DRAMCtrlBW = 32.0

// Config holds the template's configurable parameters (paper Sec. III).
// Bandwidths are in GB/s, GLB in bytes, frequency in GHz.
type Config struct {
	Name string

	// Core array geometry.
	CoresX, CoresY int
	// Chiplet divisions per direction; 1x1 is a monolithic chip.
	XCut, YCut int

	// Per-link NoC bandwidth, per-interface D2D bandwidth, total DRAM
	// bandwidth.
	NoCBW, D2DBW, DRAMBW float64

	// Per-core compute resources.
	MACsPerCore int
	GLBPerCore  int

	FreqGHz  float64
	Topology Topology
}

// Cores returns the number of computing cores.
func (c *Config) Cores() int { return c.CoresX * c.CoresY }

// Chiplets returns the number of computing chiplets.
func (c *Config) Chiplets() int { return c.XCut * c.YCut }

// ChipletW returns the core-array width of one chiplet.
func (c *Config) ChipletW() int { return c.CoresX / c.XCut }

// ChipletH returns the core-array height of one chiplet.
func (c *Config) ChipletH() int { return c.CoresY / c.YCut }

// TOPS returns the peak int8 throughput in tera-operations per second
// (2 ops per MAC).
func (c *Config) TOPS() float64 {
	return 2 * float64(c.MACsPerCore) * float64(c.Cores()) * c.FreqGHz / 1000
}

// DRAMControllers returns the DRAM die/controller count implied by the
// total DRAM bandwidth, at least two so the flow-of-data encoding has a
// non-trivial choice (paper Fig. 3 uses two).
func (c *Config) DRAMControllers() int {
	n := int(c.DRAMBW/DRAMCtrlBW + 0.999999)
	if n < 2 {
		n = 2
	}
	return n
}

// Validate checks the structural constraints of the template: positive
// dimensions and cut counts that divide the core array (paper Sec. VI-A1).
func (c *Config) Validate() error {
	if c.CoresX <= 0 || c.CoresY <= 0 {
		return fmt.Errorf("arch: non-positive core array %dx%d", c.CoresX, c.CoresY)
	}
	if c.XCut <= 0 || c.YCut <= 0 {
		return fmt.Errorf("arch: non-positive cuts %dx%d", c.XCut, c.YCut)
	}
	if c.CoresX%c.XCut != 0 {
		return fmt.Errorf("arch: XCut=%d does not divide CoresX=%d", c.XCut, c.CoresX)
	}
	if c.CoresY%c.YCut != 0 {
		return fmt.Errorf("arch: YCut=%d does not divide CoresY=%d", c.YCut, c.CoresY)
	}
	if c.NoCBW <= 0 || c.DRAMBW <= 0 {
		return fmt.Errorf("arch: non-positive bandwidth (NoC %.1f, DRAM %.1f)", c.NoCBW, c.DRAMBW)
	}
	if c.Chiplets() > 1 && c.D2DBW <= 0 {
		return fmt.Errorf("arch: multi-chiplet config needs positive D2D bandwidth")
	}
	if c.MACsPerCore <= 0 || c.GLBPerCore <= 0 {
		return fmt.Errorf("arch: non-positive core resources (MACs %d, GLB %d)", c.MACsPerCore, c.GLBPerCore)
	}
	if c.FreqGHz <= 0 {
		return fmt.Errorf("arch: non-positive frequency %.2f", c.FreqGHz)
	}
	return nil
}

// CoreID indexes a computing core, row-major: y*CoresX + x.
type CoreID int

// CoreAt returns the core at grid position (x, y).
func (c *Config) CoreAt(x, y int) CoreID { return CoreID(y*c.CoresX + x) }

// CoreXY returns the grid position of a core.
func (c *Config) CoreXY(id CoreID) (x, y int) {
	return int(id) % c.CoresX, int(id) / c.CoresX
}

// ChipletOf returns the chiplet coordinates (cx, cy) containing a core.
func (c *Config) ChipletOf(id CoreID) (cx, cy int) {
	x, y := c.CoreXY(id)
	return x / c.ChipletW(), y / c.ChipletH()
}

// SameChiplet reports whether two cores share a chiplet.
func (c *Config) SameChiplet(a, b CoreID) bool {
	ax, ay := c.ChipletOf(a)
	bx, by := c.ChipletOf(b)
	return ax == bx && ay == by
}

// DRAMPort describes where a DRAM controller injects traffic into the mesh:
// the set of edge routers (cores) its IO chiplet connects to.
type DRAMPort struct {
	Ctrl  int // controller index, 0-based
	Cores []CoreID
}

// DRAMPorts distributes the DRAM controllers over the left and right edges
// of the core array (IO chiplets sit on both sides, paper Fig. 2), each
// controller attaching to a contiguous span of edge routers so its
// bandwidth can match several NoC links.
func (c *Config) DRAMPorts() []DRAMPort {
	d := c.DRAMControllers()
	ports := make([]DRAMPort, d)
	left := (d + 1) / 2
	right := d - left
	assign := func(ctrlBase, n, col int) {
		for i := 0; i < n; i++ {
			rows := spanRows(c.CoresY, n, i)
			p := DRAMPort{Ctrl: ctrlBase + i}
			for y := rows.lo; y < rows.hi; y++ {
				p.Cores = append(p.Cores, c.CoreAt(col, y))
			}
			ports[ctrlBase+i] = p
		}
	}
	assign(0, left, 0)
	if right > 0 {
		assign(left, right, c.CoresX-1)
	}
	return ports
}

type rowSpan struct{ lo, hi int }

func spanRows(total, parts, idx int) rowSpan {
	q, r := total/parts, total%parts
	lo := idx*q + min(idx, r)
	size := q
	if idx < r {
		size++
	}
	if size == 0 { // more controllers than rows: share the nearest row
		row := idx * total / parts
		return rowSpan{row, row + 1}
	}
	return rowSpan{lo, lo + size}
}

// String summarizes the architecture in the paper's tuple notation:
// (chiplets, cores, DRAM BW, NoC BW, D2D BW, GLB/core, MAC/core).
func (c *Config) String() string {
	d2d := "None"
	if c.Chiplets() > 1 {
		d2d = fmt.Sprintf("%.0fGB/s", c.D2DBW)
	}
	return fmt.Sprintf("(%d, %d, %.0fGB/s, %.0fGB/s, %s, %dKB, %d)",
		c.Chiplets(), c.Cores(), c.DRAMBW, c.NoCBW, d2d, c.GLBPerCore/1024, c.MACsPerCore)
}
