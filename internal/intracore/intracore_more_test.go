package intracore

import (
	"sync"
	"testing"

	"gemini/internal/dnn"
)

func TestExploreActivationMatMul(t *testing.T) {
	// Weight-less matmul (attention): operand B streams through the GLB
	// like an activation; WBytes = 0 must not break tiling.
	w := Workload{
		Kind: dnn.MatMul, H: 128, W: 1, B: 1, K: 128, IC: 512,
		MACs:     128 * 128 * 512,
		InBytes:  128*512 + 512*128,
		WBytes:   0,
		OutBytes: 128 * 128,
	}
	r := Explore(w, defCore())
	if !r.Feasible {
		t.Fatal("weight-less matmul should be feasible")
	}
	if !r.WeightsResident {
		t.Error("no weights: residency should be trivially true")
	}
	if r.GLBBytes <= 0 {
		t.Error("no GLB traffic accounted")
	}
}

func TestExploreGLBTrafficBound(t *testing.T) {
	// A 1x1 conv with huge channel counts on a tiny-bandwidth array is
	// GLB-traffic bound: cycles exceed the pure-MAC roofline.
	w := Workload{
		Kind: dnn.Conv, H: 2, W: 2, B: 1, K: 4096, IC: 4096, R: 1, S: 1, Groups: 1,
		MACs:     2 * 2 * 4096 * 4096,
		VecOps:   0,
		InBytes:  2 * 2 * 4096,
		WBytes:   4096 * 4096,
		OutBytes: 2 * 2 * 4096,
	}
	c := Core{MACs: 8192, GLB: 8 << 20, FreqGHz: 1}
	r := Explore(w, c)
	if !r.Feasible {
		t.Fatal("infeasible")
	}
	kpar, cpar := array(c.MACs)
	macCycles := int64((4096/kpar)*(4096/cpar)) * 4
	if r.Cycles < macCycles {
		t.Fatalf("cycles %d below MAC roofline %d", r.Cycles, macCycles)
	}
}

func TestExploreDeterministic(t *testing.T) {
	w := convWorkload(28, 28, 2, 96, 64)
	a := Explore(w, defCore())
	b := Explore(w, defCore())
	if a != b {
		t.Fatalf("Explore not deterministic: %+v vs %+v", a, b)
	}
}

func TestExploreDistinguishesPartShapes(t *testing.T) {
	// The same MAC count with different output shapes should generally
	// produce different GLB traffic — the paper's point that Part affects
	// the intra-core optimization space (Sec. IV-C).
	tall := Explore(convWorkload(56, 14, 1, 64, 64), defCore())
	square := Explore(convWorkload(28, 28, 1, 64, 64), defCore())
	if tall.Cycles <= 0 || square.Cycles <= 0 {
		t.Fatal("degenerate")
	}
	if tall == square {
		t.Error("distinct part shapes produced identical results (suspicious)")
	}
}

func TestVecLanesFloor(t *testing.T) {
	if vecLanes(8) != 1 {
		t.Errorf("vecLanes(8) = %d", vecLanes(8))
	}
	if vecLanes(1024) != 64 {
		t.Errorf("vecLanes(1024) = %d", vecLanes(1024))
	}
}

func TestMemoDistinguishesCores(t *testing.T) {
	m := NewMemo()
	w := convWorkload(14, 14, 1, 64, 64)
	a := m.Explore(w, Core{MACs: 512, GLB: 1 << 20, FreqGHz: 1})
	b := m.Explore(w, Core{MACs: 4096, GLB: 1 << 20, FreqGHz: 1})
	if a.Cycles == b.Cycles {
		t.Error("different cores should give different cycles")
	}
	if memoLen(m) != 2 {
		t.Errorf("memo entries = %d, want 2", memoLen(m))
	}
}

// TestMemoCollisionComputesAndDoesNotStore plants a different pair under a
// workload's hash, which is what a 64-bit collision would look like: Explore
// must notice the stored pair is not the one asked for, return the computed
// result, and leave the first pair's entry alone.
func TestMemoCollisionComputesAndDoesNotStore(t *testing.T) {
	c := Core{MACs: 1024, GLB: 1 << 20, FreqGHz: 1}
	w := Workload{Kind: dnn.Conv, H: 14, W: 14, B: 1, K: 64, IC: 64, R: 3, S: 3, Groups: 1,
		MACs: 14 * 14 * 64 * 64 * 9, InBytes: 16 * 16 * 64, WBytes: 64 * 64 * 9, OutBytes: 14 * 14 * 64}
	other := w
	other.K, other.OutBytes = 32, 14*14*32
	m := NewMemo()
	planted := &memoEntry{h: memoHash(&w, &c), w: other, c: c, r: Explore(other, c)}
	m.table.Load().place(planted)
	for i := 0; i < 2; i++ {
		if got, want := m.Explore(w, c), Explore(w, c); got != want {
			t.Fatalf("call %d under a colliding entry returned %+v, want %+v", i, got, want)
		}
	}
	if m.table.Load().find(memoHash(&w, &c)) != planted || memoLen(m) != 0 {
		t.Fatalf("a collision replaced the stored entry or was counted (len %d)", memoLen(m))
	}
	if memoHash(&w, &c) == memoHash(&other, &c) {
		t.Fatal("the two workloads really do collide; pick others")
	}
}

// distinctConvs returns 600 distinct convolution workloads and what Explore
// returns for each on c.
func distinctConvs(c Core) ([]Workload, []Result) {
	var ws []Workload
	for h := 1; h <= 30; h++ {
		for k := 1; k <= 20; k++ {
			ws = append(ws, Workload{Kind: dnn.Conv, H: h, W: 14, B: 1, K: 8 * k, IC: 64, R: 3, S: 3, Groups: 1,
				MACs: int64(h * 14 * 8 * k * 64 * 9), InBytes: int64((h + 2) * 16 * 64), WBytes: int64(8 * k * 64 * 9), OutBytes: int64(h * 14 * 8 * k)})
		}
	}
	want := make([]Result, len(ws))
	for i, w := range ws {
		want[i] = Explore(w, c)
	}
	return ws, want
}

// TestMemoGrowsUnderConcurrentUse drives the memo through several table
// growths from goroutines that insert overlapping workloads while others are
// already hitting them: every answer equals Explore's, before and after the
// entry has moved tables, and each distinct workload is stored once.
func TestMemoGrowsUnderConcurrentUse(t *testing.T) {
	c := Core{MACs: 1024, GLB: 1 << 20, FreqGHz: 1}
	ws, want := distinctConvs(c)
	m := NewMemo()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range ws {
					j := (i*7 + g*151) % len(ws) // each goroutine in its own order
					if got := m.Explore(ws[j], c); got != want[j] {
						t.Errorf("goroutine %d round %d workload %d: %+v, want %+v", g, round, j, got, want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if memoLen(m) != len(ws) {
		t.Errorf("memo holds %d entries for %d distinct workloads", memoLen(m), len(ws))
	}
}

// TestMemoStaysUnderItsCap drives a memo whose cap is lowered to 100 entries
// through 600 distinct workloads twice: it never holds more than the cap, it
// flushes (the count falls), and every answer — fresh, repeated or asked
// again after a flush — equals Explore's.
func TestMemoStaysUnderItsCap(t *testing.T) {
	c := Core{MACs: 1024, GLB: 1 << 20, FreqGHz: 1}
	ws, want := distinctConvs(c)
	m := NewMemo()
	m.limit = 100
	flushes, prev := 0, 0
	for round := 0; round < 2; round++ {
		for i, w := range ws {
			for range 2 {
				if got := m.Explore(w, c); got != want[i] {
					t.Fatalf("round %d workload %d: %+v, want %+v", round, i, got, want[i])
				}
			}
			n := memoLen(m)
			if n > m.limit {
				t.Fatalf("round %d workload %d: %d entries over a cap of %d", round, i, n, m.limit)
			}
			if n < prev {
				flushes++
			}
			prev = n
		}
	}
	if flushes < 2*len(ws)/m.limit-1 {
		t.Errorf("%d flushes driving %d distinct workloads twice through a cap of %d", flushes, len(ws), m.limit)
	}
}
