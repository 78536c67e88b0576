package faultinject

import (
	"errors"
	"testing"
)

// A nil injector never fires and never allocates state.
func TestNilInjectorIsNoop(t *testing.T) {
	var inj *Injector
	for i := 0; i < 100; i++ {
		if err := inj.Check(PointCheckpointSave, "a"); err != nil {
			t.Fatalf("nil injector fired: %v", err)
		}
	}
	if inj.Fired(PointCheckpointSave) != 0 || inj.TotalFired() != 0 {
		t.Fatal("nil injector reported fires")
	}
}

// On schedules fire on exact per-(point, key) occurrence indices.
func TestOnSchedule(t *testing.T) {
	inj := New(1, Rule{Point: PointCheckpointSave, Kind: KindError, On: []int{1, 3}})
	var got []int
	for n := 0; n < 5; n++ {
		if err := inj.Check(PointCheckpointSave, "sweep-0"); err != nil {
			var fe *Error
			if !errors.As(err, &fe) {
				t.Fatalf("occurrence %d: error type %T", n, err)
			}
			if fe.Occurrence != n {
				t.Fatalf("occurrence %d reported as %d", n, fe.Occurrence)
			}
			got = append(got, n)
		}
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("fired on %v, want [1 3]", got)
	}
	// A different key has its own occurrence counter.
	if err := inj.Check(PointCheckpointSave, "sweep-1"); err != nil {
		t.Fatalf("fresh key occurrence 0 fired: %v", err)
	}
	if inj.Fired(PointCheckpointSave) != 2 {
		t.Fatalf("Fired = %d, want 2", inj.Fired(PointCheckpointSave))
	}
}

// Count fires on the first N occurrences, then stops.
func TestCountSchedule(t *testing.T) {
	inj := New(1, Rule{Point: PointCacheSave, Kind: KindError, Count: 2})
	fails := 0
	for n := 0; n < 5; n++ {
		if inj.Check(PointCacheSave, "/tmp/cache") != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("fired %d times, want 2", fails)
	}
}

// Key narrows a rule by substring; other keys pass.
func TestKeySubstringMatch(t *testing.T) {
	inj := New(1, Rule{Point: PointStatusSave, Key: "bad-", Kind: KindError, Count: 100})
	if err := inj.Check(PointStatusSave, "good-sweep"); err != nil {
		t.Fatalf("non-matching key fired: %v", err)
	}
	if err := inj.Check(PointStatusSave, "bad-sweep"); err == nil {
		t.Fatal("matching key did not fire")
	}
}

// Prob schedules are a deterministic function of (seed, point, key, n):
// replaying the same call sequence fires on the identical occurrences, and
// a different seed yields a different (but also deterministic) schedule.
func TestProbDeterministicPerSeed(t *testing.T) {
	schedule := func(seed int64) []int {
		inj := New(seed, Rule{Point: PointCacheSave, Kind: KindError, Prob: 0.3})
		var fired []int
		for n := 0; n < 200; n++ {
			if inj.Check(PointCacheSave, "/cache") != nil {
				fired = append(fired, n)
			}
		}
		return fired
	}
	a1, a2 := schedule(7), schedule(7)
	if len(a1) == 0 || len(a1) == 200 {
		t.Fatalf("prob 0.3 fired %d/200 times; schedule degenerate", len(a1))
	}
	for i := range a1 {
		if i >= len(a2) || a1[i] != a2[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
	if len(a1) != len(a2) {
		t.Fatal("same seed produced different schedules")
	}
	b := schedule(8)
	same := len(a1) == len(b)
	if same {
		for i := range a1 {
			if a1[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical schedules")
	}
}

// KindPanic panics with a recognizable value; the next occurrence passes.
func TestPanicKind(t *testing.T) {
	inj := New(1, Rule{Point: PointCacheSave, Kind: KindPanic, On: []int{0}})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("KindPanic did not panic")
			}
		}()
		inj.Check(PointCacheSave, "/cache")
	}()
	if err := inj.Check(PointCacheSave, "/cache"); err != nil {
		t.Fatalf("occurrence 1 fired: %v", err)
	}
	if inj.TotalFired() != 1 {
		t.Fatalf("TotalFired = %d, want 1", inj.TotalFired())
	}
}
