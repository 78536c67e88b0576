// Failure model of the sweep engine: the typed error a panicking cell fails
// with. See docs/architecture.md "Failure model".

package dse

import "fmt"

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
