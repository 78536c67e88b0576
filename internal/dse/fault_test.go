package dse

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/sa"
)

// TestPanicSurfacesAsTypedCellError: a panicking mapping pipeline fails its
// cell — typed error, captured stack, counted in stats — and is never
// checkpointed. A CellError the pipeline returns wrapped counts as a panic
// too.
func TestPanicSurfacesAsTypedCellError(t *testing.T) {
	ses := NewSession()
	ses.mapModel = func(c *cellRun, cfg *arch.Config, g *dnn.Graph, o Mapping, stop func() bool) (*MapResult, error) {
		switch cfg.Name {
		case "panicky-arch":
			panic("mapper bug")
		case "wrapped-arch":
			return nil, fmt.Errorf("mapper: %w", &CellError{Candidate: cfg.Name, Model: g.Name, Err: errors.New("mapper bug, returned")})
		}
		return mapModelEval(c, cfg, g, o, stop)
	}

	ok := arch.GArch72()
	bad := arch.GArch72()
	bad.Name = "panicky-arch"
	bad.NoCBW = 48 // structurally distinct from ok
	wrapped := arch.GArch72()
	wrapped.Name = "wrapped-arch"
	wrapped.NoCBW = 40
	results, stats, err := ses.RunContext(context.Background(), []arch.Config{bad, ok, wrapped}, []*dnn.Graph{testCNN}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if results[2].Cfg.Name != wrapped.Name || results[2].Status() != "error" {
		t.Fatalf("wrapped CellError candidate: %+v", results[2])
	}

	if results[0].Cfg.Name != ok.Name || !results[0].Feasible {
		t.Fatalf("healthy candidate did not survive its neighbour's panic: %+v", results[0])
	}
	er := &results[1]
	if er.Status() != "error" {
		t.Fatalf("panicked candidate status %q, want error", er.Status())
	}
	var ce *CellError
	if !errors.As(er.Err, &ce) {
		t.Fatalf("error is not a CellError: %v", er.Err)
	}
	if ce.Stack == "" || ce.Candidate != bad.Name || ce.Model != testCNN.Name {
		t.Errorf("CellError %s/%s stack %d bytes, want %s/%s with a stack", ce.Candidate, ce.Model, len(ce.Stack), bad.Name, testCNN.Name)
	}
	if !strings.Contains(ce.Err.Error(), "mapper bug") {
		t.Errorf("panic value lost: %v", ce.Err)
	}
	if stats.Panics != 2 || !strings.Contains(stats.LastPanic, "mapper bug") {
		t.Errorf("stats: panics=%d last=%q", stats.Panics, stats.LastPanic)
	}
	// Only the healthy cell settles into the checkpoint.
	if ses.CheckpointCells() != 1 {
		t.Errorf("checkpointed %d cells, want 1 (panicked cells are recomputed on resume)", ses.CheckpointCells())
	}
}

// TestRealPanicRepeats is the recorded argument for having no cell retry. It
// drives a cell into a genuine panic, with nothing injected: the mapModel
// seam anneals a nil scheme through the real sa.MultiStart, which
// dereferences it inside the annealer. A cell is a pure function of its
// inputs, so the cell fails identically on every attempt — same panic text,
// a stack each time, nothing checkpointed — and a retry could only have
// burned the same work again. The panic stays contained to its cell: in a
// sweep, the neighbouring candidate still comes back ok.
func TestRealPanicRepeats(t *testing.T) {
	bad := arch.GArch72()
	bad.Name = "nil-scheme"
	bad.NoCBW = 48 // structurally distinct from the healthy GArch72
	ses := NewSession()
	ses.mapModel = func(c *cellRun, cfg *arch.Config, g *dnn.Graph, o Mapping, stop func() bool) (*MapResult, error) {
		if cfg.Name != bad.Name {
			return mapModelEval(c, cfg, g, o, stop)
		}
		so := sa.DefaultOptions()
		so.Iterations, so.Seed, so.Stop = o.SAIterations, o.Seed, stop
		sa.MultiStart(nil, c.ev, so, o.Restarts)
		return nil, errors.New("sa.MultiStart returned on a nil scheme")
	}
	opt := testOptions()
	opt.Restarts = 2

	var first string
	for attempt := 0; attempt < 3; attempt++ {
		mr, err := ses.MapModel(&bad, testCNN, opt)
		var ce *CellError
		if mr != nil || !errors.As(err, &ce) {
			t.Fatalf("attempt %d: (%v, %v), want a CellError", attempt, mr, err)
		}
		if !strings.Contains(ce.Stack, "gemini/internal/sa.") {
			t.Errorf("attempt %d: stack does not reach the annealer:\n%s", attempt, ce.Stack)
		}
		msg := ce.Err.Error()
		if attempt == 0 {
			first = msg
		} else if msg != first {
			t.Errorf("attempt %d panicked with %q, attempt 0 with %q", attempt, msg, first)
		}
	}
	if !strings.Contains(first, "nil pointer dereference") {
		t.Errorf("panic %q is not the nil dereference", first)
	}
	if ses.CheckpointCells() != 0 {
		t.Errorf("checkpointed %d cells, want 0", ses.CheckpointCells())
	}

	ok := arch.GArch72()
	results, stats, err := ses.RunContext(context.Background(), []arch.Config{bad, ok}, []*dnn.Graph{testCNN}, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		want := "ok"
		if results[i].Cfg.Name == bad.Name {
			want = "error"
		}
		if got := results[i].Status(); got != want {
			t.Errorf("%s: status %q, want %q (%v)", results[i].Cfg.Name, got, want, results[i].Err)
		}
	}
	if stats.Panics != 1 || !strings.Contains(stats.LastPanic, first) {
		t.Errorf("stats: panics=%d last=%q", stats.Panics, stats.LastPanic)
	}
	if ses.CheckpointCells() != 1 {
		t.Errorf("checkpointed %d cells, want only the healthy one", ses.CheckpointCells())
	}
}
