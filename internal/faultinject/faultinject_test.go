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
	if inj.Fired(PointCheckpointSave) != 0 {
		t.Fatal("nil injector reported fires")
	}
}

// On schedules fire on exact per-(point, key) occurrence indices.
func TestOnSchedule(t *testing.T) {
	inj := New(Rule{Point: PointCheckpointSave, Kind: KindError, On: []int{1, 3}})
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
	inj := New(Rule{Point: PointStatusSave, Kind: KindError, Count: 2})
	fails := 0
	for n := 0; n < 5; n++ {
		if inj.Check(PointStatusSave, "sweep-1") != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("fired %d times, want 2", fails)
	}
}

// KindPanic panics with a recognizable value; the next occurrence passes.
func TestPanicKind(t *testing.T) {
	inj := New(Rule{Point: PointStatusSave, Kind: KindPanic, On: []int{0}})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("KindPanic did not panic")
			}
		}()
		inj.Check(PointStatusSave, "sweep-1")
	}()
	if err := inj.Check(PointStatusSave, "sweep-1"); err != nil {
		t.Fatalf("occurrence 1 fired: %v", err)
	}
	if inj.Fired(PointStatusSave) != 1 {
		t.Fatalf("Fired = %d, want 1", inj.Fired(PointStatusSave))
	}
}
