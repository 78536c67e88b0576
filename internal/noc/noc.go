// Package noc models the template's network-on-chip: mesh or folded-torus
// topologies with dimension-ordered (XY) routing, D2D link identification at
// chiplet boundaries, multicast tree accumulation, and per-link traffic
// loads used by the evaluator and the Fig. 9 heatmaps.
package noc

import (
	"gemini/internal/arch"
)

// Link is one directed channel between adjacent routers. D2D links cross a
// chiplet boundary and use the D2D bandwidth and energy model.
type Link struct {
	From, To arch.CoreID
	D2D      bool
}

// Network is the static link graph for an architecture. After New returns it
// is immutable, so it is safe for concurrent use without locking.
//
// Every link belongs to a boundary class that depends on the core array and
// the topology alone, never on the chiplet cut. A link between columns b-1
// and b is in the x class of gcd(b, CoresX), a link between rows b-1 and b in
// the y class of gcd(b, CoresY), and each axis's torus wrap links form a class
// of their own. Chiplets ChipletW cores wide put a D2D boundary after every
// multiple of ChipletW, and ChipletW divides CoresX, so ChipletW divides b
// exactly when it divides gcd(b, CoresX): a cut makes a whole class D2D or
// none of it, and a wrap class is D2D exactly when its axis is cut at all.
// Classes are numbered x classes by ascending gcd, the x wrap, then the same
// for y; Digest sums byte-hops per class and adds the classes in that order.
type Network struct {
	Cfg   *arch.Config
	Links []Link

	// idx maps a (from, to) core pair to its link; only buildRoutes reads
	// it, and New drops it once the route table is built.
	idx map[[2]arch.CoreID]int

	// class[l] is link l's boundary class; classD2D[c] reports whether this
	// network's cut makes class c D2D.
	class    []uint16
	classD2D []bool

	// portCore[ctrl*CoresY+row] is the attachment core controller ctrl uses
	// to reach a peer in that row; ctrls is the controller count.
	ctrls    int
	portCore []arch.CoreID

	// Full route table, precomputed at New: the XY path from src to dst is
	// routeDat[routeOff[src*cores+dst] : routeOff[src*cores+dst+1]].
	cores    int
	routeOff []int32
	routeDat []int32
}

// New builds the network for a validated configuration.
func New(cfg *arch.Config) *Network {
	n := newLinkGraph(cfg)
	n.buildRoutes()
	n.idx = nil
	return n
}

// newLinkGraph builds all of a Network but its route table.
func newLinkGraph(cfg *arch.Config) *Network {
	n := &Network{
		Cfg: cfg,
		idx: make(map[[2]arch.CoreID]int),
	}
	n.buildPorts(cfg.DRAMPorts())
	w, h := cfg.CoresX, cfg.CoresY
	torus := cfg.Topology == arch.FoldedTorus
	xClass := n.axisClasses(w, cfg.ChipletW(), torus && w > 2)
	yClass := n.axisClasses(h, cfg.ChipletH(), torus && h > 2)
	addLink := func(a, b arch.CoreID, class uint16) {
		n.idx[[2]arch.CoreID{a, b}] = len(n.Links)
		n.Links = append(n.Links, Link{From: a, To: b, D2D: !cfg.SameChiplet(a, b)})
		n.class = append(n.class, class)
	}
	forEachLink(cfg, func(a, b arch.CoreID, xAxis bool, at int) {
		class := yClass
		if xAxis {
			class = xClass
		}
		addLink(a, b, class[at])
		addLink(b, a, class[at])
	})
	return n
}

// forEachLink calls fn once per link pair of cfg's interconnect, in the
// order New numbers them (each pair is two directed links, a→b then b→a):
// row by row, each core's link to its east then to its south neighbour,
// then on a folded torus every row's and then every column's wrap link. A
// wrap link exists on an axis more than two cores long, and runs from the
// last core a to the first core b. xAxis reports a link along x, at is the
// boundary it crosses — the far side's column or row — and 0 for a wrap.
func forEachLink(cfg *arch.Config, fn func(a, b arch.CoreID, xAxis bool, at int)) {
	w, h := cfg.CoresX, cfg.CoresY
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := cfg.CoreAt(x, y)
			if x+1 < w {
				fn(c, cfg.CoreAt(x+1, y), true, x+1)
			}
			if y+1 < h {
				fn(c, cfg.CoreAt(x, y+1), false, y+1)
			}
		}
	}
	if cfg.Topology != arch.FoldedTorus {
		return
	}
	for y := 0; w > 2 && y < h; y++ {
		fn(cfg.CoreAt(w-1, y), cfg.CoreAt(0, y), true, 0)
	}
	for x := 0; h > 2 && x < w; x++ {
		fn(cfg.CoreAt(x, h-1), cfg.CoreAt(x, 0), false, 0)
	}
}

// axisClasses numbers the boundary classes of one axis of the core array,
// edge cores long and cut into chiplets chiplet cores long, after the classes
// already numbered, and returns the class of each boundary: of[b] for the
// links between positions b-1 and b, of[0] for the wrap links if there are
// any. The numbering reads edge and wrap only, so it is the same under every
// cut of the array.
func (n *Network) axisClasses(edge, chiplet int, wrap bool) (of []uint16) {
	of = make([]uint16, edge)
	byGCD := make([]uint16, edge)
	for g := 1; g < edge; g++ {
		if edge%g == 0 {
			byGCD[g] = uint16(len(n.classD2D))
			n.classD2D = append(n.classD2D, g%chiplet == 0)
		}
	}
	for b := 1; b < edge; b++ {
		of[b] = byGCD[gcd(b, edge)]
	}
	if wrap {
		of[0] = uint16(len(n.classD2D))
		n.classD2D = append(n.classD2D, chiplet < edge)
	}
	return of
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Classes returns the number of boundary classes, which depends on the core
// array and the topology alone.
func (n *Network) Classes() int { return len(n.classD2D) }

// LinkBWSum returns the aggregate bandwidth (GB/s) of every directed link of
// the configuration's interconnect — NoC links at NoCBW plus chiplet-crossing
// links at D2DBW. It enumerates the same link set New builds, without paying
// for route tables, so the DSE bound engine can charge an aggregate
// interconnect capacity per candidate: no schedule can move bytes across the
// chip faster than the sum of all link bandwidths drains them.
func LinkBWSum(cfg *arch.Config) float64 {
	var noc, d2d int
	forEachLink(cfg, func(a, b arch.CoreID, _ bool, _ int) {
		if cfg.SameChiplet(a, b) {
			noc += 2 // both directions
		} else {
			d2d += 2
		}
	})
	return float64(noc)*cfg.NoCBW + float64(d2d)*cfg.D2DBW
}

// Cut is one chiplet-boundary bisection of the core array: the set of every
// directed link whose endpoints lie on opposite sides of the boundary. At is
// the first core column (vertical cut) or row (horizontal cut) on the far
// side, so a vertical cut separates x < At from x >= At. BW is the aggregate
// bandwidth (GB/s) of the crossing link set.
type Cut struct {
	Vertical bool
	At       int
	BW       float64
}

// SideOf reports which side of the cut a core lies on: 0 for the near side
// (x or y < At), 1 for the far side. It runs once per core per cut inside
// the DSE bound engine's candidate loop.
func (c Cut) SideOf(cfg *arch.Config, id arch.CoreID) int {
	x, y := cfg.CoreXY(id)
	v := y
	if c.Vertical {
		v = x
	}
	if v < c.At {
		return 0
	}
	return 1
}

// ChipletCuts enumerates the chiplet-level bisections of the configuration:
// one vertical cut per interior chiplet column boundary (x = k*ChipletW,
// k = 1..XCut-1) and one horizontal cut per interior chiplet row boundary.
// Each cut's BW sums the bandwidth of every directed link crossing it in the
// exact link set New builds — mesh boundary links plus, on a folded torus,
// the wrap links of that axis, whose endpoints sit on opposite sides of every
// interior cut. A monolithic chip (1x1 cuts) has no bisections and returns
// nil. The DSE bound engine uses these cuts as capacity constraints: traffic
// that provably crosses a bisection cannot drain faster than the cut's
// aggregate bandwidth.
func ChipletCuts(cfg *arch.Config) []Cut {
	var cuts []Cut
	for k := 1; k < cfg.XCut; k++ {
		cuts = append(cuts, Cut{Vertical: true, At: k * cfg.ChipletW()})
	}
	for k := 1; k < cfg.YCut; k++ {
		cuts = append(cuts, Cut{Vertical: false, At: k * cfg.ChipletH()})
	}
	if len(cuts) == 0 {
		return nil
	}
	forEachLink(cfg, func(a, b arch.CoreID, _ bool, _ int) {
		bw := cfg.NoCBW
		if !cfg.SameChiplet(a, b) {
			bw = cfg.D2DBW
		}
		for i, c := range cuts {
			if c.SideOf(cfg, a) != c.SideOf(cfg, b) {
				cuts[i].BW += 2 * bw // both directions
			}
		}
	})
	return cuts
}

// buildRoutes precomputes the XY path between every ordered core pair into a
// single flat table, so Route is a lock-free slice lookup on the hot path.
func (n *Network) buildRoutes() {
	n.cores = n.Cfg.Cores()
	n.routeOff = make([]int32, n.cores*n.cores+1)
	n.routeDat = n.routeDat[:0]
	for src := 0; src < n.cores; src++ {
		for dst := 0; dst < n.cores; dst++ {
			n.appendRoute(arch.CoreID(src), arch.CoreID(dst))
			n.routeOff[src*n.cores+dst+1] = int32(len(n.routeDat))
		}
	}
}

// appendRoute walks the dimension-ordered path from src to dst, appending
// each traversed link ID to the flat route table.
func (n *Network) appendRoute(src, dst arch.CoreID) {
	if src == dst {
		return
	}
	sx, sy := n.Cfg.CoreXY(src)
	dx, dy := n.Cfg.CoreXY(dst)
	x, y := sx, sy
	for x != dx {
		nx := n.step(x, dx, n.Cfg.CoresX)
		n.routeDat = append(n.routeDat, int32(n.idx[[2]arch.CoreID{n.Cfg.CoreAt(x, y), n.Cfg.CoreAt(nx, y)}]))
		x = nx
	}
	for y != dy {
		ny := n.step(y, dy, n.Cfg.CoresY)
		n.routeDat = append(n.routeDat, int32(n.idx[[2]arch.CoreID{n.Cfg.CoreAt(x, y), n.Cfg.CoreAt(x, ny)}]))
		y = ny
	}
}

// LinkBW returns the bandwidth of link l in GB/s.
func (n *Network) LinkBW(l int) float64 {
	if n.Links[l].D2D {
		return n.Cfg.D2DBW
	}
	return n.Cfg.NoCBW
}

// step returns the next hop coordinate along one dimension under
// dimension-ordered routing, honoring the shorter torus direction.
func (n *Network) step(cur, dst, size int) int {
	if cur == dst {
		return cur
	}
	fwd := dst - cur
	if n.Cfg.Topology == arch.FoldedTorus && size > 2 {
		alt := fwd
		if fwd > 0 && size-fwd < fwd {
			alt = fwd - size
		} else if fwd < 0 && size+fwd < -fwd {
			alt = fwd + size
		}
		fwd = alt
	}
	var nxt int
	if fwd > 0 {
		nxt = cur + 1
	} else {
		nxt = cur - 1
	}
	if nxt < 0 {
		nxt = size - 1
	}
	if nxt >= size {
		nxt = 0
	}
	return nxt
}

// Route returns the link IDs of the XY path from src to dst. The slice is a
// view into the precomputed route table and must not be modified.
func (n *Network) Route(src, dst arch.CoreID) []int32 {
	k := int(src)*n.cores + int(dst)
	return n.routeDat[n.routeOff[k]:n.routeOff[k+1]]
}

// PortCore returns the edge router a DRAM controller uses to reach peer:
// the attachment core of the controller closest (in rows) to the peer, so
// controller traffic spreads over the controller's span.
func (n *Network) PortCore(ctrl int, peer arch.CoreID) arch.CoreID {
	_, py := n.Cfg.CoreXY(peer)
	return n.portCore[(ctrl%n.ctrls)*n.Cfg.CoresY+py]
}

// buildPorts tabulates PortCore per (controller, peer row): of the
// controller's attachment cores, the first in span order at the least row
// distance.
func (n *Network) buildPorts(ports []arch.DRAMPort) {
	rows := n.Cfg.CoresY
	n.ctrls = len(ports)
	n.portCore = make([]arch.CoreID, len(ports)*rows)
	for i, p := range ports {
		for py := 0; py < rows; py++ {
			best := p.Cores[0]
			bestD := 1 << 30
			for _, c := range p.Cores {
				_, cy := n.Cfg.CoreXY(c)
				d := cy - py
				if d < 0 {
					d = -d
				}
				if d < bestD {
					bestD = d
					best = c
				}
			}
			n.portCore[i*rows+py] = best
		}
	}
}

// Controllers returns the number of DRAM controllers.
func (n *Network) Controllers() int { return n.ctrls }

// Traffic accumulates the loads per link and per DRAM controller of one
// pipeline pass, counted in units of 1/d byte on a network of d controllers.
// A flow of one source or one controller adds bytes·d to every link of its
// tree (and to its controller); a DRAM flow interleaved over all d
// controllers adds bytes to each controller and to every link of each
// controller's tree. Integer byte counts thus load everything by integers,
// and while a load stays below 2^53 every partial sum is exact: the loads are
// the same whatever order the flows come in, and a removal takes back exactly
// what its addition added. Only the readers convert to bytes, each figure
// once.
type Traffic struct {
	net  *Network
	load []float64 // per link

	dramRead  []float64 // per controller
	dramWrite []float64 // per controller

	// Multicast link dedup: visited[l] == epoch marks link l as already
	// counted for the current multicast tree. Bumping epoch clears the set
	// in O(1) with no per-call allocation.
	visited []uint64
	epoch   uint64

	cls []ClassLoad // ClassLoads' result, one per boundary class
}

// NewTraffic returns an empty accumulator for the network.
func (n *Network) NewTraffic() *Traffic {
	return &Traffic{
		net:       n,
		load:      make([]float64, len(n.Links)),
		dramRead:  make([]float64, n.Controllers()),
		dramWrite: make([]float64, n.Controllers()),
		visited:   make([]uint64, len(n.Links)),
		cls:       make([]ClassLoad, n.Classes()),
	}
}

// Reset clears all accumulated loads.
func (t *Traffic) Reset() {
	clear(t.load)
	clear(t.dramRead)
	clear(t.dramWrite)
}

// CopyFrom makes t's loads those of u, a Traffic of the same network.
func (t *Traffic) CopyFrom(u *Traffic) {
	copy(t.load, u.load)
	copy(t.dramRead, u.dramRead)
	copy(t.dramWrite, u.dramWrite)
}

// units is the number of load units in a byte: the controller count.
func (n *Network) units() float64 { return float64(n.ctrls) }

// linkBytes returns link l's load in bytes.
func (t *Traffic) linkBytes(l int) float64 { return t.load[l] / t.net.units() }

func (t *Traffic) addPath(path []int32, units float64) {
	for _, l := range path {
		t.load[l] += units
	}
}

// Multicast accumulates a transfer of the same bytes from src to every
// destination, counting each link of the union routing tree once (the
// template's NoC supports multicast, paper Sec. IV-C). Negative bytes take
// back what the same call with positive bytes added; zero bytes or no
// destination add nothing.
func (t *Traffic) Multicast(src arch.CoreID, dsts []arch.CoreID, bytes float64) {
	if bytes == 0 || len(dsts) == 0 {
		return
	}
	units := bytes * t.net.units()
	if len(dsts) == 1 {
		t.addPath(t.net.Route(src, dsts[0]), units)
		return
	}
	t.epoch++
	for _, d := range dsts {
		t.addNew(t.net.Route(src, d), units)
	}
}

// addNew adds units to every link of path not yet counted for this epoch's
// tree.
func (t *Traffic) addNew(path []int32, units float64) {
	for _, l := range path {
		if t.visited[l] == t.epoch {
			continue
		}
		t.visited[l] = t.epoch
		t.load[l] += units
	}
}

// DRAMWrite accumulates a core-to-controller transfer. ctrl < 0 means
// interleaved: the bytes spread evenly over all controllers (FD value 0).
// Signed as Multicast's bytes are.
func (t *Traffic) DRAMWrite(ctrl int, src arch.CoreID, bytes float64) {
	if bytes == 0 {
		return
	}
	lo, hi, units := t.spread(ctrl, bytes)
	for c := lo; c < hi; c++ {
		t.dramWrite[c] += units
		t.addPath(t.net.Route(src, t.net.PortCore(c, src)), units)
	}
}

// DRAMRead accumulates a DRAM read multicast from ctrl to several cores
// (e.g. a weight slice shared by replicated workloads). ctrl < 0 means
// interleaved. Signed as Multicast's bytes are.
func (t *Traffic) DRAMRead(ctrl int, dsts []arch.CoreID, bytes float64) {
	if bytes == 0 || len(dsts) == 0 {
		return
	}
	lo, hi, units := t.spread(ctrl, bytes)
	for c := lo; c < hi; c++ {
		t.dramRead[c] += units
		t.epoch++
		for _, d := range dsts {
			t.addNew(t.net.Route(t.net.PortCore(c, d), d), units)
		}
	}
}

// spread returns the controllers [lo,hi) a DRAM flow of bytes, of either
// sign, on ctrl loads and the units it adds to each: bytes·d to ctrl alone,
// wrapped as PortCore wraps it, or bytes to every controller when ctrl < 0.
func (t *Traffic) spread(ctrl int, bytes float64) (lo, hi int, units float64) {
	if ctrl < 0 {
		return 0, t.net.ctrls, bytes
	}
	ctrl %= t.net.ctrls
	return ctrl, ctrl + 1, bytes * t.net.units()
}

// ClassLoad is the traffic of one class of channels: the largest load on any
// one of them and their total, in the unit of the Traffic it came from, which
// Network.Resolve converts to bytes.
type ClassLoad struct {
	Peak float64 `json:"p,omitempty"`
	Sum  float64 `json:"s,omitempty"`
}

// ClassLoads returns the accumulated link loads per boundary class. The slice
// is the Traffic's own and is overwritten by the next call.
func (t *Traffic) ClassLoads() []ClassLoad {
	cls := t.cls
	clear(cls)
	for l, load := range t.load {
		c := &cls[t.net.class[l]]
		c.Sum += load
		if load > c.Peak {
			c.Peak = load
		}
	}
	return cls
}

// DRAMLoad returns the controller traffic as one class: the most loaded
// controller's reads plus writes, and the total over controllers.
func (t *Traffic) DRAMLoad() ClassLoad {
	var d ClassLoad
	for i := range t.dramRead {
		v := t.dramRead[i] + t.dramWrite[i]
		if v > d.Peak {
			d.Peak = v
		}
		d.Sum += v
	}
	return d
}

// Resolve folds per-class link loads (ClassLoads of a Traffic on any network
// with this core array, topology and controller count) and a DRAM load into a
// Digest under this network's cut. Each field is an exact sum or maximum of
// loads converted to bytes once, so a Digest resolved from stored class loads
// is the Digest of the Traffic they came from, bit for bit, on whichever cut
// of the array asks.
func (n *Network) Resolve(links []ClassLoad, dram ClassLoad) Digest {
	var d Digest
	for c, cl := range links {
		if n.classD2D[c] {
			d.D2DBytes += cl.Sum
			d.PeakD2D = max(d.PeakD2D, cl.Peak)
		} else {
			d.NoCBytes += cl.Sum
			d.PeakNoC = max(d.PeakNoC, cl.Peak)
		}
	}
	u := n.units()
	return Digest{
		PeakNoC: d.PeakNoC / u, PeakD2D: d.PeakD2D / u, PeakDRAM: dram.Peak / u,
		NoCBytes: d.NoCBytes / u, D2DBytes: d.D2DBytes / u, DRAMBytes: dram.Sum / u,
	}
}

// Digest is the bandwidth-free summary of a Traffic: the peak load of each
// bandwidth class and the byte totals. Every delay and energy term the
// evaluator derives from a Traffic is a function of its Digest and the
// bandwidths alone, so a Digest computed once serves every configuration
// that shares the link graph and the controller placement.
type Digest struct {
	// PeakNoC, PeakD2D and PeakDRAM are the largest byte load on any on-chip
	// link, any D2D link and any DRAM controller (reads plus writes).
	PeakNoC  float64 `json:"pn,omitempty"`
	PeakD2D  float64 `json:"pd,omitempty"`
	PeakDRAM float64 `json:"pm,omitempty"`
	// NoCBytes and D2DBytes are byte-hops over each link class, DRAMBytes
	// the total controller traffic (what TotalBytes returns).
	NoCBytes  float64 `json:"n,omitempty"`
	D2DBytes  float64 `json:"d,omitempty"`
	DRAMBytes float64 `json:"m,omitempty"`
}

// Digest summarizes the accumulated loads. It overwrites what ClassLoads
// last returned.
func (t *Traffic) Digest() Digest {
	return t.net.Resolve(t.ClassLoads(), t.DRAMLoad())
}

// BottleneckTime returns the seconds needed to drain the digested loads: the
// maximum over links of load/bandwidth and over DRAM controllers of
// traffic/controller-bandwidth. Bandwidths are GB/s (1e9 bytes/s); dramCtrlBW
// is the share of one controller. Dividing by a positive bandwidth is
// monotone, so the peak load of a class over its bandwidth is exactly the
// maximum of the per-link quotients. A loaded link class without bandwidth
// never drains.
func (d Digest) BottleneckTime(nocBW, d2dBW, dramCtrlBW float64) float64 {
	if (d.PeakNoC > 0 && nocBW <= 0) || (d.PeakD2D > 0 && d2dBW <= 0) {
		return inf
	}
	worst := 0.0
	if d.PeakNoC > 0 {
		worst = d.PeakNoC / (nocBW * 1e9)
	}
	if d.PeakD2D > 0 {
		if s := d.PeakD2D / (d2dBW * 1e9); s > worst {
			worst = s
		}
	}
	if s := d.PeakDRAM / (dramCtrlBW * 1e9); s > worst {
		worst = s
	}
	return worst
}

// BottleneckTime returns the seconds needed to drain the accumulated loads
// at the network configuration's bandwidths.
func (t *Traffic) BottleneckTime() float64 {
	cfg := t.net.Cfg
	return t.Digest().BottleneckTime(cfg.NoCBW, cfg.D2DBW, cfg.DRAMBW/float64(t.net.Controllers()))
}

// TotalBytes returns aggregate on-chip and D2D byte-hops plus total DRAM
// traffic, for energy accounting.
func (t *Traffic) TotalBytes() (onchip, d2d, dram float64) {
	d := t.Digest()
	return d.NoCBytes, d.D2DBytes, d.DRAMBytes
}

// MaxLinkLoad returns the largest per-link load in bytes and its index.
func (t *Traffic) MaxLinkLoad() (float64, int) {
	best, idx := 0.0, -1
	for i, v := range t.load {
		if v > best {
			best, idx = v, i
		}
	}
	return best / t.net.units(), idx
}

const inf = 1e300
