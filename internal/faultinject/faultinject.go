// Package faultinject is a deterministic fault-injection harness for the
// sweep engine's chaos tests. An Injector holds a schedule of rules and is
// threaded — nil by default — through the sweep service's
// persistence paths: the cache spill, the checkpoint and status savers and
// the startup checkpoint load. Those are the only places the engine does
// real I/O; a (candidate, model) cell is a pure function of its inputs and
// has no hook.
// Call sites ask Check whether a fault fires at a named point; a firing rule
// returns an error or panics, by rule kind. Decisions are pure functions of
// (point, key, occurrence index), so a fixed schedule replays
// bit-identically across runs and under -race, and a nil injector is a
// single pointer comparison — never-firing hooks are provably free.
//
// The package is build-tag-free on purpose: production binaries carry the
// hooks disarmed, so the code path tests exercise is the code path that
// ships.
package faultinject

import (
	"fmt"
	"slices"
	"sync"
)

// Point names a hook location in the engine.
type Point string

// The engine's hook points.
const (
	// PointCacheSave fires in the sweep service's cache spill; the key is the
	// cache directory.
	PointCacheSave Point = "cache-save"
	// PointCheckpointSave fires in the sweep service's checkpoint saver; the
	// key is the checkpoint file's path.
	PointCheckpointSave Point = "checkpoint-save"
	// PointCheckpointLoad fires when the sweep service reads a checkpoint
	// file at startup; the key is the file's path.
	PointCheckpointLoad Point = "checkpoint-load"
	// PointStatusSave fires in the sweep service's status saver; the key is
	// the sweep id.
	PointStatusSave Point = "status-save"
)

// Kind selects what a firing rule does.
type Kind int

const (
	// KindError makes Check return an *Error.
	KindError Kind = iota
	// KindPanic makes Check panic (the persistence savers recover it into a
	// failed save attempt).
	KindPanic
)

// String names the kind for error text and logs.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Rule is one entry of the injection schedule. A rule matches every Check
// call at its point and fires on the call's per-(point, key) occurrence
// index n (0-based) when n is listed in On or n < Count.
type Rule struct {
	Point Point
	Kind  Kind
	On    []int
	Count int
}

// Error is the failure a KindError rule injects, standing in for a failed
// disk write or read.
type Error struct {
	Point      Point
	Key        string
	Occurrence int
}

// Error renders the injected failure.
func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected error at %s %q (occurrence %d)", e.Point, e.Key, e.Occurrence)
}

// panicValue is what a KindPanic rule panics with, so recover sites can log
// a recognizable value.
type panicValue struct{ e Error }

func (p panicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s %q (occurrence %d)", p.e.Point, p.e.Key, p.e.Occurrence)
}

// Injector is a fault schedule. The zero value is not usable — construct
// with New. A nil *Injector is valid everywhere and never fires.
type Injector struct {
	rules []Rule

	mu     sync.Mutex
	counts map[countKey]int
	fired  map[Point]int
}

type countKey struct {
	p   Point
	key string
}

// New builds an injector firing the given rules.
func New(rules ...Rule) *Injector {
	return &Injector{
		rules:  rules,
		counts: make(map[countKey]int),
		fired:  make(map[Point]int),
	}
}

// Check is the hook call sites make: it advances the (point, key) occurrence
// counter and performs the first matching rule that fires — returning an
// *Error or panicking — or returns nil. Safe for concurrent use; a nil
// receiver always returns nil without locking.
func (inj *Injector) Check(p Point, key string) error {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	ck := countKey{p, key}
	n := inj.counts[ck]
	inj.counts[ck] = n + 1
	var hit *Rule
	for i := range inj.rules {
		r := &inj.rules[i]
		if r.Point == p && r.fires(n) {
			hit = r
			inj.fired[p]++
			break
		}
	}
	inj.mu.Unlock()
	if hit == nil {
		return nil
	}
	if hit.Kind == KindPanic {
		panic(panicValue{Error{Point: p, Key: key, Occurrence: n}})
	}
	return &Error{Point: p, Key: key, Occurrence: n}
}

// fires decides whether the rule triggers on occurrence n.
func (r *Rule) fires(n int) bool {
	return n < r.Count || slices.Contains(r.On, n)
}

// Fired reports how many times any rule fired at the point since New.
func (inj *Injector) Fired(p Point) int {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.fired[p]
}
