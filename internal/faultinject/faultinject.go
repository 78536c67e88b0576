// Package faultinject is a deterministic fault-injection harness for the
// sweep engine's chaos tests. An Injector holds a seeded schedule of rules
// and is threaded — nil by default — through the persistence paths: the
// disk-cache saver and the sweep service's checkpoint and status savers and
// checkpoint loader. Those are the only places the engine does real I/O; a
// (candidate, model) cell is a pure function of its inputs and has no hook.
// Call sites ask Check whether a fault fires at a named point; a firing rule
// returns an error or panics, by rule kind. Decisions are pure functions of
// (seed, point, key, occurrence index), so a fixed schedule replays
// bit-identically across runs and under -race, and a nil injector is a
// single pointer comparison — never-firing hooks are provably free.
//
// The package is build-tag-free on purpose: production binaries carry the
// hooks disarmed, so the code path tests exercise is the code path that
// ships.
package faultinject

import (
	"fmt"
	"strings"
	"sync"
)

// Point names a hook location in the engine. Points are coarse on purpose:
// rules narrow within a point by key substring.
type Point string

// The engine's hook points.
const (
	// PointCacheSave fires in the disk-cache spill saver; the key is the
	// cache directory.
	PointCacheSave Point = "cache-save"
	// PointCheckpointSave fires in the sweep service's checkpoint saver; the
	// key is the sweep id.
	PointCheckpointSave Point = "checkpoint-save"
	// PointCheckpointLoad fires when a checkpoint is read for resume; the
	// key is the sweep id.
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

// Rule is one entry of the injection schedule. A rule matches a Check call
// when the points are equal and Key is a substring of the call's key (empty
// Key matches every key). A matching rule fires on the call's per-(point,
// key) occurrence index n (0-based) when any of its triggers hit:
//
//   - On lists explicit occurrence indices;
//   - Count > 0 fires on the first Count occurrences;
//   - Prob > 0 fires when the seeded hash of (point, key, n) falls below it,
//     which scatters faults deterministically across a sweep.
type Rule struct {
	Point Point
	Key   string
	Kind  Kind
	On    []int
	Count int
	Prob  float64
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

// Injector is a seeded fault schedule. The zero value is not usable —
// construct with New. A nil *Injector is valid everywhere and never fires.
type Injector struct {
	seed  int64
	rules []Rule

	mu     sync.Mutex
	counts map[countKey]int
	fired  map[Point]int
}

type countKey struct {
	p   Point
	key string
}

// New builds an injector firing the given rules under the given seed. The
// seed only matters to Prob-triggered rules; On/Count schedules are seed-
// independent.
func New(seed int64, rules ...Rule) *Injector {
	return &Injector{
		seed:   seed,
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
		if r.Point != p || !strings.Contains(key, r.Key) {
			continue
		}
		if r.fires(inj.seed, p, key, n) {
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

// fires decides whether the rule triggers on occurrence n of (p, key).
func (r *Rule) fires(seed int64, p Point, key string, n int) bool {
	for _, on := range r.On {
		if on == n {
			return true
		}
	}
	if r.Count > 0 && n < r.Count {
		return true
	}
	if r.Prob > 0 && hashFrac(seed, p, key, n) < r.Prob {
		return true
	}
	return false
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

// TotalFired reports how many times any rule fired at any point.
func (inj *Injector) TotalFired() int {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	total := 0
	for _, n := range inj.fired {
		total += n
	}
	return total
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashFrac maps (seed, point, key, n) to a uniform fraction in [0, 1) via
// FNV-1a, so Prob schedules are deterministic per seed yet scatter across
// cells and occurrences.
func hashFrac(seed int64, p Point, key string, n int) float64 {
	h := uint64(fnvOffset64)
	step := func(b byte) {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	v := uint64(seed)
	for i := 0; i < 8; i++ {
		step(byte(v))
		v >>= 8
	}
	for i := 0; i < len(p); i++ {
		step(p[i])
	}
	step(0)
	for i := 0; i < len(key); i++ {
		step(key[i])
	}
	step(0)
	w := uint64(n)
	for i := 0; i < 8; i++ {
		step(byte(w))
		w >>= 8
	}
	return float64(h>>11) / float64(uint64(1)<<53)
}
