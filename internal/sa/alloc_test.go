package sa

import (
	"runtime"
	"testing"

	"gemini/internal/eval"
)

// TestMovePathAllocFree pins a group's delta re-measurement, cost and
// (*annealer).step allocation-free: after warm-up, one group's re-measurement
// through its GroupDelta and the cost fold perform zero heap allocations, and
// so does a whole iteration — pick, copy into the spare LMS, operator,
// re-measure, decide, swap or restore — unless it improves on the best
// scheme, which takes real clones. A move is evaluated through the delta
// path, which touches neither the cache nor a pool, so what is counted is the
// annealer's work and the delta path's. internal/eval/alloc_test.go pins the
// from-scratch pipeline, whose scratch pool drops Puts under -race.
func TestMovePathAllocFree(t *testing.T) {
	s, ev, _ := setup(t)
	groups := make([]eval.GroupResult, len(s.Groups))
	d, _ := ev.NewGroupDelta(s, 0)
	for gi := range groups {
		groups[gi] = measure(ev, s, gi) // warm the evaluator memo
	}
	allocs := testing.AllocsPerRun(200, func() {
		for x := range s.Groups[0].MSs {
			d.Changed(x) // the whole group, into the other buffer of each piece
		}
		groups[0] = ev.EvaluateGroupDelta(d, s)
		d.Settle(true)
		_ = cost(groups, 1, 1)
	})
	if allocs != 0 {
		t.Fatalf("SA move path allocates %.0f times per move, want 0", allocs)
	}

	// One seeded search, replayed over the deltas the first run grew: a
	// replay recomputes every delta whole for the input scheme, so each piece
	// changes buffers once, and every second replay puts each piece in the
	// buffer the first run grew it in. The third run is counted.
	opt := DefaultOptions()
	opt.Iterations = 600
	var deltas []*eval.GroupDelta
	replay := func() *annealer {
		a := newAnnealer(s, ev, opt)
		if deltas != nil {
			for gj, lms := range a.s.Groups {
				for x := range lms.MSs {
					deltas[gj].Changed(x)
				}
				ev.EvaluateGroupDelta(deltas[gj], a.s)
				deltas[gj].Settle(true)
			}
			a.deltas = deltas
		}
		deltas = a.deltas
		return a
	}
	for range 2 {
		a := replay()
		for range opt.Iterations {
			a.step()
		}
	}
	a := replay()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warmUp = 100 // the mutator's candidate lists grow to their working size
	for it := 0; it < warmUp; it++ {
		a.step()
	}
	var rejected, acceptedFlat, improved int
	var ms runtime.MemStats
	for it := warmUp; it < opt.Iterations; it++ {
		before, bestBefore := a.res, a.bestCost
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		a.step()
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - mallocs
		switch {
		case a.bestCost < bestBefore:
			improved++
			continue
		case a.res.Accepted > before.Accepted:
			acceptedFlat++
		case a.res.Applied > before.Applied:
			rejected++
		}
		if mallocs != 0 {
			t.Fatalf("iteration %d (applied %v, accepted %v, best unchanged) allocates %d times, want 0",
				it, a.res.Applied > before.Applied, a.res.Accepted > before.Accepted, mallocs)
		}
	}
	t.Logf("%d rejected, %d accepted without improving, %d improving iterations", rejected, acceptedFlat, improved)
	if rejected == 0 || acceptedFlat == 0 || improved == 0 {
		t.Errorf("%d rejected, %d accepted-flat, %d improving iterations: every kind must occur", rejected, acceptedFlat, improved)
	}
}
