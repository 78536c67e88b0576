// Package intracore implements the intra-core exploration engine of the
// Gemini framework (Sec. V-B1): for each partitioned workload it performs an
// exhaustive search over output tilings and the implied loop orders for an
// NVDLA-style PE array, minimizing an energy-delay product subject to the
// core's global-buffer capacity, and reports cycle counts plus buffer
// traffic for the Evaluator.
package intracore

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"gemini/internal/dnn"
)

// Workload is a partitioned layer slice assigned to one core, per
// batch-unit pass.
type Workload struct {
	Kind       dnn.Kind
	H, W, B, K int // output cube extents of this part
	IC         int // input channels this part consumes (per group set)
	R, S       int
	Groups     int

	MACs     int64 // multiply-accumulates for this part
	VecOps   int64 // vector-unit operations for this part
	InBytes  int64 // activation bytes delivered to the GLB per pass
	WBytes   int64 // stationary weight bytes of this part
	OutBytes int64 // output bytes produced per pass
}

// Core describes the compute resources relevant to intra-core scheduling.
type Core struct {
	MACs    int
	GLB     int // bytes
	FreqGHz float64
}

// Result is the optimum found by the exhaustive tiling search.
type Result struct {
	Cycles    int64   // compute + GLB-bound cycles on the PE array
	VecCycles int64   // vector-unit cycles (overlappable with PE array)
	GLBBytes  float64 // GLB<->PE traffic for energy accounting
	Util      float64 // PE array utilization in [0,1]

	// TileH/TileW/TileK describe the chosen tiling, KOuterTiles and
	// SpatialTiles the loop structure, for inspection and tests.
	TileH, TileW, TileK int

	// WeightsResident reports whether the part's weights fit in the GLB
	// alongside working tiles; when false the Evaluator streams weights
	// from DRAM every pass instead of once per run.
	WeightsResident bool

	// Feasible is false when even the minimal tiling exceeds the GLB; the
	// Evaluator treats such schemes as invalid.
	Feasible bool
}

// array returns the PE-array spatial unrolling (Kpar x Cpar): the largest
// power-of-two split with Cpar <= Kpar, e.g. 1024 -> 32x32, 512 -> 32x16.
func array(macs int) (kpar, cpar int) {
	cpar = 1
	for cpar*cpar*4 <= macs {
		cpar *= 2
	}
	kpar = macs / cpar
	if kpar < 1 {
		kpar = 1
	}
	return kpar, cpar
}

// maxTileCandidates bounds tileCandidates' result: the powers of two below a
// 64-bit n, plus n, ceil(n/2) and ceil(n/4).
const maxTileCandidates = 66

// tileCandidates appends to buf[:0] a small divisor-like candidate set for dim
// n — 1, n, the powers of two below n, ceil(n/2) and ceil(n/4) — each once,
// ascending. With a buf of capacity maxTileCandidates it does not allocate.
func tileCandidates(buf []int, n int) []int {
	out := append(buf[:0], 1)
	if n <= 1 {
		return out
	}
	for v := 2; v < n; v *= 2 {
		out = append(out, v)
	}
	out = append(out, n)
	if n >= 3 {
		out = insertSorted(out, (n+1)/2)
		out = insertSorted(out, (n+3)/4)
	}
	return out
}

// insertSorted inserts v into ascending s unless it is already there.
func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func ceilDiv64(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// glbBudget is the GLB fraction usable for data (the rest holds
// instructions and message buffers).
const glbBudget = 0.95

// glbBytesPerCycle scales GLB bandwidth with the PE array width.
func glbBytesPerCycle(macs int) float64 { return float64(macs) / 4 }

// Explore runs the exhaustive tiling/loop-order search for one workload.
func Explore(w Workload, c Core) Result {
	if w.MACs == 0 {
		// Vector-only layer (pool/eltwise/softmax): no PE-array work.
		lanes := vecLanes(c.MACs)
		res := Result{
			VecCycles:       ceilDiv64(w.VecOps, int64(lanes)),
			GLBBytes:        float64(w.InBytes + w.OutBytes),
			Util:            0,
			WeightsResident: true,
			Feasible:        float64(w.InBytes+w.OutBytes) <= float64(c.GLB)*glbBudget,
			TileH:           w.H, TileW: w.W, TileK: w.K,
		}
		return res
	}

	kpar, cpar := array(c.MACs)
	icg := w.IC
	if w.Groups > 1 {
		icg = w.IC / w.Groups
		if icg < 1 {
			icg = 1
		}
	}
	rs := w.R * w.S
	if rs <= 0 {
		rs = 1
	}

	// PE-array cycles are tiling independent: the dot-product unrolling is
	// (Kpar output channels) x (Cpar input channels) per cycle.
	kTilesHW := ceilDiv(w.K, kpar)
	cTilesHW := ceilDiv(icg, cpar)
	macCycles := int64(kTilesHW) * int64(cTilesHW) * int64(w.H) * int64(w.W) * int64(w.B) * int64(rs)
	if w.Kind == dnn.FC || w.Kind == dnn.MatMul {
		macCycles = int64(kTilesHW) * int64(cTilesHW) * int64(w.H) * int64(w.W) * int64(w.B)
	}
	util := float64(w.MACs) / float64(macCycles*int64(c.MACs))
	if util > 1 {
		util = 1
	}

	budget := float64(c.GLB) * glbBudget
	weightsResident := float64(w.WBytes)+float64(w.InBytes)+float64(w.OutBytes) <= budget

	best := Result{Feasible: false}
	bestCost := math.Inf(1)

	var hBuf, wBuf, kBuf [maxTileCandidates]int
	ths := tileCandidates(hBuf[:], w.H)
	tws := tileCandidates(wBuf[:], w.W)
	tks := tileCandidates(kBuf[:], w.K)
	for _, th := range ths {
		for _, tw := range tws {
			for _, tk := range tks {
				// Working set: an input tile with halo, a weight tile over
				// all (grouped) input channels, and a psum tile.
				ihT := th
				iwT := tw
				if w.Kind == dnn.Conv || w.Kind == dnn.Pool {
					ihT = (th-1)*1 + w.R
					iwT = (tw-1)*1 + w.S
				}
				inTile := float64(ihT) * float64(iwT) * float64(icg)
				wTile := float64(tk) * float64(icg) * float64(rs)
				if w.WBytes == 0 {
					wTile = float64(tk) * float64(icg) // activation operand B
				}
				psumTile := float64(th) * float64(tw) * float64(tk) * 4 // 32-bit partials
				work := (inTile+wTile)*1.5 + psumTile                   // 1.5x: double buffering
				if work > budget {
					continue
				}

				nKT := ceilDiv(w.K, tk)
				nSpT := ceilDiv(w.H, th) * ceilDiv(w.W, tw) * w.B
				// GLB traffic under the K-outer / spatial-inner nest the
				// tiling implies: inputs re-read per K tile, weights
				// re-read per spatial tile, outputs written once.
				inReads := float64(w.InBytes) * float64(nKT)
				wReads := float64(w.WBytes) * float64(nSpT)
				if w.WBytes == 0 {
					wReads = wTile * float64(nKT) * float64(nSpT)
				}
				outWrites := float64(w.OutBytes)
				traffic := inReads + wReads + outWrites

				glbCycles := int64(traffic / glbBytesPerCycle(c.MACs))
				cycles := macCycles
				if glbCycles > cycles {
					cycles = glbCycles
				}
				cost := float64(cycles) * (traffic + float64(w.MACs))
				if cost < bestCost {
					bestCost = cost
					best = Result{
						Cycles:          cycles,
						GLBBytes:        traffic,
						Util:            util,
						TileH:           th,
						TileW:           tw,
						TileK:           tk,
						WeightsResident: weightsResident,
						Feasible:        true,
					}
				}
			}
		}
	}
	best.VecCycles = ceilDiv64(w.VecOps, int64(vecLanes(c.MACs)))
	return best
}

func vecLanes(macs int) int {
	l := macs / 16
	if l < 1 {
		l = 1
	}
	return l
}

// Memo is a concurrency-safe cache of Explore results keyed by workload and
// core parameters; the SA loop re-evaluates identical parts constantly. It is
// an open-addressing table of entry pointers indexed by a 64-bit hash of the
// pair: a lookup hashes the pair once, probes, and checks the stored pair
// against the asked one. Hashing and comparing the 144-byte pair inside a Go
// map cost more than the Explore a hit saves.
//
// Nearly every call is a hit, and one memo serves every evaluator on an
// eval.Cache — every candidate and worker of a DSE session — so a hit takes
// no lock and writes no shared word: readers load the current table and its
// slots atomically. Writers serialize on mu, publish each entry with an
// atomic store, and grow by building a larger table and swapping it in; a
// reader still probing the old table at worst misses a newer entry and
// recomputes it. (A map under a read lock was measured first: the lock's
// reader count bounces between the workers' cores — 38 ns a hit alone but
// 57-190 ns with two goroutines hitting, where this table takes 27 ns either
// way.) A memo holds at most memoLimit entries: an insert into a full memo
// first swaps in an empty table.
type Memo struct {
	table atomic.Pointer[memoTable]
	mu    sync.Mutex // serializes insert and grow
	n     int        // entries in the table; guarded by mu
	limit int        // the entry cap, memoLimit outside tests
}

// memoLimit caps a memo's entries at 0.52 M, about 0.23 KB each with their
// slots. A memo lives as long as its eval.Cache — a whole DSE session — and
// the pairs it meets grow with every model and core a session maps, so a
// full memo is flushed wholesale, like a cache shard, which only costs
// recomputation. The cap is four times what the full 72-TOPs Table I grid
// (8,820 candidates, 30 cores) stores for ResNet-50 and the Transformer:
// 0.131 M entries; the reduced grid stores 0.023 M.
const memoLimit = 1 << 19

// memoTable is one generation of the memo: a power-of-two slot array, kept
// at most half full so probes stay short and always end at an empty slot.
type memoTable struct {
	slots []atomic.Pointer[memoEntry]
}

// memoEntry is immutable once published.
type memoEntry struct {
	h uint64
	w Workload
	c Core
	r Result
}

// NewMemo returns an empty cache.
func NewMemo() *Memo {
	mm := &Memo{limit: memoLimit}
	mm.table.Store(newMemoTable(64))
	return mm
}

// newMemoTable returns an empty table of size slots, a power of two.
func newMemoTable(size int) *memoTable {
	return &memoTable{slots: make([]atomic.Pointer[memoEntry], size)}
}

// find returns the entry stored under hash h, or nil.
func (t *memoTable) find(h uint64) *memoEntry {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == nil || e.h == h {
			return e
		}
	}
}

// place stores e in the first empty slot of its probe sequence. The caller
// holds mu and has checked that e.h is absent and the table has room.
func (t *memoTable) place(e *memoEntry) {
	mask := uint64(len(t.slots) - 1)
	i := e.h & mask
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(e)
}

// mix folds one word into a running hash (multiply by the 64-bit golden
// ratio, then fold the high half down so every input bit reaches the low
// bits the map indexes with).
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// memoHash hashes every field of the pair in two independently seeded lanes,
// so the multiplies overlap and no two fields can trade values unseen.
func memoHash(w *Workload, c *Core) uint64 {
	a, b := mix(0x243f6a8885a308d3, uint64(w.Kind)), mix(0x13198a2e03707344, uint64(w.H))
	a, b = mix(a, uint64(w.W)), mix(b, uint64(w.B))
	a, b = mix(a, uint64(w.K)), mix(b, uint64(w.IC))
	a, b = mix(a, uint64(w.R)), mix(b, uint64(w.S))
	a, b = mix(a, uint64(w.Groups)), mix(b, uint64(w.MACs))
	a, b = mix(a, uint64(w.VecOps)), mix(b, uint64(w.InBytes))
	a, b = mix(a, uint64(w.WBytes)), mix(b, uint64(w.OutBytes))
	a, b = mix(a, uint64(c.MACs)), mix(b, uint64(c.GLB))
	return mix(mix(a, math.Float64bits(c.FreqGHz)), b)
}

// Explore returns the cached optimum, computing it on a miss. A hit is an
// entry under the pair's hash whose stored pair is equal; a different pair
// under the same hash (a collision) is computed and not stored, so what the
// first pair stored stays correct and the second merely stays uncached.
func (mm *Memo) Explore(w Workload, c Core) Result {
	h := memoHash(&w, &c)
	if e := mm.table.Load().find(h); e != nil {
		if e.w == w && e.c == c {
			return e.r
		}
		return Explore(w, c)
	}
	e := &memoEntry{h: h, w: w, c: c, r: Explore(w, c)}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	t := mm.table.Load()
	if t.find(h) != nil {
		return e.r // another goroutine stored this hash first
	}
	switch {
	case mm.n >= mm.limit:
		t, mm.n = newMemoTable(64), 0
		mm.table.Store(t)
	case 2*(mm.n+1) > len(t.slots):
		grown := newMemoTable(2 * len(t.slots))
		for i := range t.slots {
			if old := t.slots[i].Load(); old != nil {
				grown.place(old)
			}
		}
		mm.table.Store(grown)
		t = grown
	}
	t.place(e)
	mm.n++
	return e.r
}
