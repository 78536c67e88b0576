package intracore

import (
	"sync"
	"testing"

	"gemini/internal/dnn"
)

func defCore() Core {
	return Core{MACs: 1024, GLB: 2 << 20, FreqGHz: 1}
}

func convWorkload(h, w, b, k, ic int) Workload {
	macs := int64(h) * int64(w) * int64(b) * int64(k) * int64(ic) * 9
	return Workload{
		Kind: dnn.Conv, H: h, W: w, B: b, K: k, IC: ic, R: 3, S: 3, Groups: 1,
		MACs:     macs,
		VecOps:   int64(h*w*b*k) * 2,
		InBytes:  int64((h + 2) * (w + 2) * ic * b),
		WBytes:   int64(9 * ic * k),
		OutBytes: int64(h * w * b * k),
	}
}

func TestArraySplit(t *testing.T) {
	cases := []struct{ macs, kpar, cpar int }{
		{1024, 32, 32},
		{512, 32, 16},
		{2048, 64, 32},
		{4096, 64, 64},
		{8192, 128, 64},
	}
	for _, c := range cases {
		k, cp := array(c.macs)
		if k != c.kpar || cp != c.cpar {
			t.Errorf("array(%d) = %dx%d, want %dx%d", c.macs, k, cp, c.kpar, c.cpar)
		}
		if k*cp != c.macs {
			t.Errorf("array(%d) loses MACs: %d", c.macs, k*cp)
		}
	}
}

func TestExploreConvBasics(t *testing.T) {
	r := Explore(convWorkload(28, 28, 1, 64, 64), defCore())
	if !r.Feasible {
		t.Fatal("expected feasible mapping")
	}
	if r.Cycles <= 0 {
		t.Fatal("non-positive cycles")
	}
	if r.Util <= 0 || r.Util > 1 {
		t.Fatalf("utilization = %v", r.Util)
	}
	if !r.WeightsResident {
		t.Error("small conv weights should be resident")
	}
	// Cycles can never beat the roofline MACs/arraySize.
	minCycles := r.Cycles * int64(defCore().MACs)
	w := convWorkload(28, 28, 1, 64, 64)
	if minCycles < w.MACs {
		t.Errorf("cycles %d below compute roofline", r.Cycles)
	}
}

func TestExploreUtilizationFullArray(t *testing.T) {
	// K=32 and IC=32 exactly fill the 32x32 array of a 1024-MAC core.
	w := convWorkload(16, 16, 1, 32, 32)
	r := Explore(w, defCore())
	if r.Util < 0.99 {
		t.Errorf("util = %v, want ~1 for aligned dims", r.Util)
	}
	// K=8 leaves 3/4 of the K lanes idle.
	w2 := convWorkload(16, 16, 1, 8, 32)
	r2 := Explore(w2, defCore())
	if r2.Util > 0.26 {
		t.Errorf("util = %v, want <=0.25 for K=8", r2.Util)
	}
}

func TestExploreVectorOnly(t *testing.T) {
	w := Workload{
		Kind: dnn.Pool, H: 14, W: 14, B: 1, K: 64, IC: 64, R: 2, S: 2,
		VecOps: 14 * 14 * 64 * 4, InBytes: 28 * 28 * 64, OutBytes: 14 * 14 * 64,
	}
	r := Explore(w, defCore())
	if !r.Feasible {
		t.Fatal("pool should be feasible")
	}
	if r.Cycles != 0 || r.VecCycles <= 0 {
		t.Errorf("pool cycles = %d/%d, want vector-only", r.Cycles, r.VecCycles)
	}
}

func TestExploreInfeasibleWhenGLBTiny(t *testing.T) {
	c := Core{MACs: 1024, GLB: 256, FreqGHz: 1} // 256 bytes cannot hold any tile
	r := Explore(convWorkload(56, 56, 4, 256, 256), c)
	if r.Feasible {
		t.Error("expected infeasible for tiny GLB")
	}
}

func TestExploreWeightsSpill(t *testing.T) {
	// Weights (9*2048*2048 = 37.7 MB) vastly exceed a 2 MB GLB, but tiled
	// execution is still possible.
	w := convWorkload(7, 7, 1, 2048, 2048)
	r := Explore(w, defCore())
	if !r.Feasible {
		t.Fatal("large conv should still be tileable")
	}
	if r.WeightsResident {
		t.Error("37 MB of weights cannot be resident in 2 MB GLB")
	}
	if r.TileK >= 2048 {
		t.Errorf("tileK = %d, expected K tiling under pressure", r.TileK)
	}
}

func TestExploreMoreComputeMoreCycles(t *testing.T) {
	small := Explore(convWorkload(14, 14, 1, 64, 64), defCore())
	big := Explore(convWorkload(28, 28, 1, 128, 64), defCore())
	if big.Cycles <= small.Cycles {
		t.Errorf("bigger workload should cost more cycles: %d vs %d", big.Cycles, small.Cycles)
	}
}

func TestExploreBiggerArrayFaster(t *testing.T) {
	w := convWorkload(28, 28, 1, 256, 256)
	small := Explore(w, Core{MACs: 512, GLB: 2 << 20, FreqGHz: 1})
	big := Explore(w, Core{MACs: 4096, GLB: 2 << 20, FreqGHz: 1})
	if big.Cycles >= small.Cycles {
		t.Errorf("4096-MAC core should beat 512: %d vs %d", big.Cycles, small.Cycles)
	}
}

func TestExploreMatMul(t *testing.T) {
	w := Workload{
		Kind: dnn.MatMul, H: 128, W: 1, B: 1, K: 512, IC: 512, R: 1, S: 1,
		MACs: 128 * 512 * 512, VecOps: 128 * 512,
		InBytes: 128 * 512, WBytes: 512 * 512, OutBytes: 128 * 512,
	}
	r := Explore(w, defCore())
	if !r.Feasible {
		t.Fatal("matmul should be feasible")
	}
	if r.Cycles*int64(defCore().MACs) < w.MACs {
		t.Error("matmul cycles below roofline")
	}
}

func TestMemoCachesAndIsConcurrencySafe(t *testing.T) {
	m := NewMemo()
	w := convWorkload(28, 28, 1, 64, 64)
	c := defCore()
	first := m.Explore(w, c)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if got := m.Explore(w, c); got != first {
					t.Errorf("memo returned different result")
					return
				}
			}
		}()
	}
	wg.Wait()
	if memoLen(m) != 1 {
		t.Errorf("memo entries = %d, want 1", memoLen(m))
	}
}

func TestTileCandidatesWithinRange(t *testing.T) {
	var buf [maxTileCandidates]int
	for _, n := range []int{1, 2, 3, 7, 16, 56, 224, 1 << 62} {
		prev := 0
		for _, v := range tileCandidates(buf[:], n) {
			if v < 1 || v > n {
				t.Errorf("tileCandidates(%d) produced %d", n, v)
			}
			if v <= prev {
				t.Errorf("tileCandidates(%d) is not strictly ascending at %d", n, v)
			}
			prev = v
		}
		if prev != n {
			t.Errorf("tileCandidates(%d) ends at %d, want the whole dimension", n, prev)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = tileCandidates(buf[:], 224) }); allocs != 0 {
		t.Errorf("tileCandidates allocates %.0f times in a full-capacity buffer, want 0", allocs)
	}
}

// memoLen reports the number of entries m holds.
func memoLen(m *Memo) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}
