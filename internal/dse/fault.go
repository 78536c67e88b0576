// Failure model of the sweep engine: the typed error a panicking cell fails
// with, and the persistence degradation tracker shared by the background
// savers. See docs/architecture.md "Failure model".
package dse

import (
	"fmt"
	"sync"
	"time"
)

// CellError is a (candidate, model) cell whose mapping pipeline panicked:
// the panic was recovered on the cell's goroutine, its stack captured, and
// the cell failed instead of the process. A cell is a pure function of its
// inputs (a seeded pipeline that reads only them and the shared cache), so
// a cell that panics once panics the same way on every run — which is why
// there is no cell retry. Cells that fail with a CellError are never
// checkpointed, so a fixed binary recomputes them on resume.
type CellError struct {
	Candidate string
	Model     string
	// Stack is the goroutine stack captured at the recover.
	Stack string
	// Err is the recovered panic value's rendering.
	Err error
}

// Error renders the failure with its cell coordinates.
func (e *CellError) Error() string {
	return fmt.Sprintf("dse: cell %s/%s panicked: %v", e.Candidate, e.Model, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// trace renders the panic value and its stack for SweepStats.LastPanic.
func (e *CellError) trace() string { return fmt.Sprintf("%v\n%s", e.Err, e.Stack) }

// persistDegradeAfter is how many consecutive persistence failures flip a
// tracker into degraded mode (a single hiccup on a healthy disk is not a
// degradation).
const persistDegradeAfter = 3

// persistSaveAttempts bounds the in-save retry loop of one persistence
// write; persistRetryDelay is the pause before the first in-save retry
// (doubling after).
const (
	persistSaveAttempts = 3
	persistRetryDelay   = 5 * time.Millisecond
)

// PersistenceState is a point-in-time snapshot of a persistence path's
// health, reported by SweepStats and the sweep service's /healthz.
type PersistenceState struct {
	// Errors counts failed save operations (after their bounded in-save
	// retries) since the tracker was created.
	Errors int64 `json:"errors"`
	// Degraded reports persistDegradeAfter or more consecutive failures:
	// the sweep keeps running with in-memory state only, and the next
	// successful save clears the flag.
	Degraded bool `json:"degraded"`
	// LastError is the most recent failure's message, empty when none has
	// occurred yet.
	LastError string `json:"last_error,omitempty"`
}

// PersistenceTracker accounts for background persistence failures
// (checkpoint, status and disk-cache saves) without ever failing the sweep
// they serve: persistence is an optimization, losing it degrades restart
// cost, not correctness. The zero value is ready to use; all methods are
// safe for concurrent use.
type PersistenceTracker struct {
	mu          sync.Mutex
	errors      int64
	consecutive int
	degraded    bool
	lastErr     string
}

// Fail records a failed save and reports whether the tracker just entered
// degraded mode (so the caller can log the transition once).
func (t *PersistenceTracker) Fail(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.errors++
	t.consecutive++
	t.lastErr = err.Error()
	if !t.degraded && t.consecutive >= persistDegradeAfter {
		t.degraded = true
		return true
	}
	return false
}

// OK records a successful save, clearing the consecutive-failure streak and
// the degraded flag.
func (t *PersistenceTracker) OK() {
	t.mu.Lock()
	t.consecutive = 0
	t.degraded = false
	t.mu.Unlock()
}

// State snapshots the tracker.
func (t *PersistenceTracker) State() PersistenceState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return PersistenceState{Errors: t.errors, Degraded: t.degraded, LastError: t.lastErr}
}

// Do runs one persistence save under the tracker's bounded-retry
// discipline: up to persistSaveAttempts attempts with a short doubling
// pause, then the failure is recorded (possibly entering degraded mode) and
// returned for logging. A success clears the streak. The sweep the save
// serves never sees the error. A panicking save is recovered into a failed
// attempt: savers run on background goroutines where an escaped panic would
// kill the process, and persistence is never worth that.
func (t *PersistenceTracker) Do(save func() error) error {
	guarded := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("save panicked: %v", v)
			}
		}()
		return save()
	}
	var err error
	for a := 0; a < persistSaveAttempts; a++ {
		if a > 0 {
			time.Sleep(persistRetryDelay << uint(a-1))
		}
		if err = guarded(); err == nil {
			t.OK()
			return nil
		}
	}
	t.Fail(err)
	return err
}
