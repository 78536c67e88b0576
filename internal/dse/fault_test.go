package dse

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/eval"
	"gemini/internal/faultinject"
	"gemini/internal/sa"
)

// chaosInjector builds the canonical persistence chaos schedule: the first
// disk-cache save operation fails all three of its in-save attempts — the
// first by panicking inside the saver, the other two with injected errors —
// and every later save succeeds. A CacheDir sweep always makes at least two
// saves (the coalesced incremental ones, at least one since every finished
// candidate requests one, plus the final one), so the schedule fixes the
// outcome however the incremental saves coalesce: exactly one failed save,
// and never three in a row, so never degraded.
func chaosInjector(seed int64) *faultinject.Injector {
	return faultinject.New(seed,
		faultinject.Rule{Point: faultinject.PointCacheSave, Kind: faultinject.KindPanic, On: []int{0}},
		faultinject.Rule{Point: faultinject.PointCacheSave, Kind: faultinject.KindError, On: []int{1, 2}},
	)
}

// TestChaosSweepBitIdentical: a CacheDir sweep whose disk-cache saver panics
// and fails completes with results bit-identical to the fault-free run,
// checkpoints every cell, accounts for exactly the failures the schedule
// injected, and still leaves a loadable spill behind — persistence faults
// degrade restart cost, never results.
func TestChaosSweepBitIdentical(t *testing.T) {
	cands := testCands()
	models := []*dnn.Graph{testCNN, testTF}

	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			opt := testOptions()
			opt.Seed = seed

			baseline := NewSession().Run(cands, models, opt)

			inj := chaosInjector(seed)
			chaosOpt := opt
			chaosOpt.CacheDir = t.TempDir()
			chaosOpt.FaultInjector = inj
			ses := NewSession()
			results, stats, err := ses.RunContext(context.Background(), cands, models, chaosOpt)
			if err != nil {
				t.Fatalf("chaos sweep errored: %v", err)
			}
			resultsEqual(t, baseline, results, "chaos")
			for i := range results {
				if results[i].Status() != "ok" {
					t.Errorf("candidate %s: status %q, want ok", results[i].Cfg.Name, results[i].Status())
				}
			}

			if got := inj.Fired(faultinject.PointCacheSave); got != 3 {
				t.Errorf("injector fired %d times, want 3", got)
			}
			if stats.PersistenceErrors != 1 || stats.PersistenceDegraded {
				t.Errorf("persistence errors=%d degraded=%t, want 1 and false", stats.PersistenceErrors, stats.PersistenceDegraded)
			}
			if !strings.Contains(stats.LastPersistenceError, "faultinject") {
				t.Errorf("LastPersistenceError = %q, want the injected error", stats.LastPersistenceError)
			}
			// The saver's panic is a persistence failure, not a cell's.
			if stats.Panics != 0 {
				t.Errorf("Panics = %d, want 0", stats.Panics)
			}
			if ses.CheckpointCells() != len(cands)*len(models) {
				t.Errorf("checkpointed %d cells, want %d", ses.CheckpointCells(), len(cands)*len(models))
			}
			// A save after the failed one wrote the spill.
			if n, err := NewSession().WarmDiskCache(chaosOpt.CacheDir); err != nil || n == 0 {
				t.Errorf("spill after chaos: %d entries, %v", n, err)
			}
		})
	}
}

// TestOptsFingerprintExcludesFaultFields pins checkpoint compatibility: the
// fault injector must not enter the cell fingerprint, so cells computed
// under a chaos schedule stay key-identical to production cells.
func TestOptsFingerprintExcludesFaultFields(t *testing.T) {
	opt := testOptions()
	base := optsFingerprint(opt)

	opt.FaultInjector = faultinject.New(99, faultinject.Rule{Point: faultinject.PointCacheSave, Count: 1})
	if got := optsFingerprint(opt); got != base {
		t.Errorf("the fault injector changed the fingerprint: %q vs %q", got, base)
	}

	// Sanity: a mapping-affecting field still does.
	opt.Seed++
	if got := optsFingerprint(opt); got == base {
		t.Error("seed change did not move the fingerprint")
	}
}

// TestPanicSurfacesAsTypedCellError: a panicking mapping pipeline fails its
// cell — typed error, captured stack, counted in stats — and is never
// checkpointed.
func TestPanicSurfacesAsTypedCellError(t *testing.T) {
	ses := NewSession()
	ses.mapModel = func(ev *eval.Evaluator, cfg *arch.Config, g *dnn.Graph, o Options, stop func() bool) (*MapResult, error) {
		if cfg.Name == "panicky-arch" {
			panic("mapper bug")
		}
		return mapModelEval(ev, cfg, g, o, stop)
	}

	ok := arch.GArch72()
	bad := arch.GArch72()
	bad.Name = "panicky-arch"
	bad.NoCBW = 48 // structurally distinct from ok
	results, stats, err := ses.RunContext(context.Background(), []arch.Config{bad, ok}, []*dnn.Graph{testCNN}, testOptions())
	if err != nil {
		t.Fatal(err)
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
	if stats.Panics != 1 || !strings.Contains(stats.LastPanic, "mapper bug") {
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
	ses.mapModel = func(ev *eval.Evaluator, cfg *arch.Config, g *dnn.Graph, o Options, stop func() bool) (*MapResult, error) {
		if cfg.Name != bad.Name {
			return mapModelEval(ev, cfg, g, o, stop)
		}
		so := sa.DefaultOptions()
		so.Iterations, so.Seed, so.Stop = o.SAIterations, o.Seed, stop
		sa.MultiStart(nil, ev, so, o.Restarts)
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

// TestPersistenceTracker pins the degradation state machine and the bounded
// in-save retry of Do, including panic isolation of the save function.
func TestPersistenceTracker(t *testing.T) {
	var tr PersistenceTracker
	boom := errors.New("disk full")
	if tr.Fail(boom) || tr.Fail(boom) {
		t.Error("degraded before the third consecutive failure")
	}
	if !tr.Fail(boom) {
		t.Error("third consecutive failure did not report the degrade transition")
	}
	if tr.Fail(boom) {
		t.Error("already-degraded tracker reported the transition again")
	}
	st := tr.State()
	if !st.Degraded || st.Errors != 4 || st.LastError != "disk full" {
		t.Errorf("state: %+v", st)
	}
	tr.OK()
	if st = tr.State(); st.Degraded {
		t.Error("success did not clear degraded mode")
	}
	if st.Errors != 4 {
		t.Errorf("success reset the lifetime error count: %+v", st)
	}

	// Do masks failures that clear within its bounded retry...
	calls := 0
	err := tr.Do(func() error {
		calls++
		if calls < 3 {
			return boom
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("Do = %v after %d calls, want nil after 3", err, calls)
	}
	// ...records ones that do not...
	if err := tr.Do(func() error { return boom }); err == nil {
		t.Error("exhausted Do returned nil")
	}
	if tr.State().Errors != 5 {
		t.Errorf("errors = %d, want 5", tr.State().Errors)
	}
	// ...and recovers a panicking save instead of unwinding the saver
	// goroutine.
	if err := tr.Do(func() error { panic("saver bug") }); err == nil || !strings.Contains(err.Error(), "saver bug") {
		t.Errorf("panicking save: %v", err)
	}
}
