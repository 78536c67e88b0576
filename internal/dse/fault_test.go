package dse

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/eval"
	"gemini/internal/faultinject"
)

// chaosInjector builds the canonical chaos schedule over the test grid:
// every cell's first attempt fails with a transient error, one cell panics
// on its second attempt, and one cell hangs past the per-cell deadline on
// its first attempt. With Retry.Max = 2 every cell settles.
func chaosInjector(seed int64, hangKey, panicKey string) *faultinject.Injector {
	return faultinject.New(seed,
		// The hung cell: attempt 0 sleeps far past CellTimeout (rule order
		// matters — this must shadow the fail-everything rule below).
		faultinject.Rule{Point: faultinject.PointCell, Key: hangKey, Kind: faultinject.KindDelay, Delay: 2200 * time.Millisecond, On: []int{0}},
		// The panicking cell: its retry (occurrence 1) panics mid-attempt.
		faultinject.Rule{Point: faultinject.PointCell, Key: panicKey, Kind: faultinject.KindPanic, On: []int{1}},
		// Every cell's first attempt fails with a transient error.
		faultinject.Rule{Point: faultinject.PointCell, Kind: faultinject.KindError, On: []int{0}},
	)
}

// TestChaosSweepBitIdentical pins the tentpole acceptance criterion: a sweep
// with injected panics, transient errors and one hung cell completes with
// results bit-identical to the fault-free run, because every retry re-runs
// the same seeded pipeline from scratch.
func TestChaosSweepBitIdentical(t *testing.T) {
	cands := testCands()
	models := []*dnn.Graph{testCNN, testTF}
	hangKey := cands[0].Name + "/" + testCNN.Name
	panicKey := cands[1].Name + "/" + testTF.Name

	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			opt := testOptions()
			opt.Seed = seed
			opt.Retry = RetryPolicy{Max: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
			opt.CellTimeout = time.Second

			baseline := NewSession().Run(cands, models, opt)

			inj := chaosInjector(seed, hangKey, panicKey)
			chaosOpt := opt
			chaosOpt.FaultInjector = inj
			ses := NewSession()
			results, stats, err := ses.RunContext(context.Background(), cands, models, chaosOpt)
			if err != nil {
				t.Fatalf("chaos sweep errored: %v", err)
			}
			sortResults(results)
			resultsEqual(t, baseline, results, "chaos")
			for i := range results {
				if results[i].Status() != "ok" {
					t.Errorf("candidate %s: status %q, want ok", results[i].Cfg.Name, results[i].Status())
				}
			}

			// The schedule is deterministic, so the accounting is exact:
			// hung cell 1 retry, panic cell 2 (error then panic), the other
			// two cells 1 each.
			if stats.Retries != 5 {
				t.Errorf("Retries = %d, want 5", stats.Retries)
			}
			if stats.Panics != 1 {
				t.Errorf("Panics = %d, want 1", stats.Panics)
			}
			if stats.DeadlineExceeded != 1 {
				t.Errorf("DeadlineExceeded = %d, want 1", stats.DeadlineExceeded)
			}
			if stats.LastPanic == "" || !strings.Contains(stats.LastPanic, "faultinject") {
				t.Errorf("LastPanic = %q, want the injected panic with its stack", stats.LastPanic)
			}
			if got := inj.Fired(faultinject.PointCell); got != 5 {
				t.Errorf("injector fired %d times, want 5", got)
			}
			// Settled cells checkpoint normally after surviving the chaos.
			if ses.CheckpointCells() != len(cands)*len(models) {
				t.Errorf("checkpointed %d cells, want %d", ses.CheckpointCells(), len(cands)*len(models))
			}
		})
	}
}

// TestOptsFingerprintExcludesFaultFields pins checkpoint compatibility:
// retry policy, per-cell deadline and the fault injector must not enter the
// cell fingerprint, so pre-hardening checkpoints resume and retried cells
// stay key-identical to first-try cells.
func TestOptsFingerprintExcludesFaultFields(t *testing.T) {
	opt := testOptions()
	base := optsFingerprint(opt)

	opt.Retry = RetryPolicy{Max: 7, BaseDelay: time.Second, MaxDelay: time.Minute}
	opt.CellTimeout = time.Hour
	opt.FaultInjector = faultinject.New(99, faultinject.Rule{Point: faultinject.PointCell, Count: 1})
	if got := optsFingerprint(opt); got != base {
		t.Errorf("fault-handling options changed the fingerprint: %q vs %q", got, base)
	}

	// Sanity: a mapping-affecting field still does.
	opt.Seed++
	if got := optsFingerprint(opt); got == base {
		t.Error("seed change did not move the fingerprint")
	}
}

// TestPanicSurfacesAsTypedCellError: with retry disabled, a panicking
// mapping attempt fails its cell — typed kind, captured stack, counted in
// stats — and is never checkpointed.
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
	sortResults(results)

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
	if ce.Kind != CellPanic || ce.Stack == "" {
		t.Errorf("CellError kind=%s stack %d bytes, want panic with a stack", ce.Kind, len(ce.Stack))
	}
	if !strings.Contains(ce.Err.Error(), "mapper bug") {
		t.Errorf("panic value lost: %v", ce.Err)
	}
	if stats.Panics != 1 || !strings.Contains(stats.LastPanic, "mapper bug") {
		t.Errorf("stats: panics=%d last=%q", stats.Panics, stats.LastPanic)
	}
	// Only the healthy cell settles into the checkpoint.
	if ses.CheckpointCells() != 1 {
		t.Errorf("checkpointed %d cells, want 1 (panicked cells must be retried on resume)", ses.CheckpointCells())
	}
}

// TestCellTimeoutWithoutRetry: a hung attempt with no retry budget fails
// its cell with the timeout kind, wrapping context.DeadlineExceeded.
func TestCellTimeoutWithoutRetry(t *testing.T) {
	cands := testCands()[:1]
	key := cands[0].Name + "/" + testCNN.Name
	opt := testOptions()
	opt.CellTimeout = 200 * time.Millisecond
	opt.FaultInjector = faultinject.New(1,
		faultinject.Rule{Point: faultinject.PointCell, Key: key, Kind: faultinject.KindDelay, Delay: 1500 * time.Millisecond, On: []int{0}})

	_, stats, err := NewSession().RunContext(context.Background(), cands, []*dnn.Graph{testCNN}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeadlineExceeded != 1 {
		t.Errorf("DeadlineExceeded = %d, want 1", stats.DeadlineExceeded)
	}

	// The typed error is visible through Session.MapModel too (fresh
	// injector: occurrence counters are per-injector and the sweep above
	// already consumed index 0).
	opt.FaultInjector = faultinject.New(1,
		faultinject.Rule{Point: faultinject.PointCell, Key: key, Kind: faultinject.KindDelay, Delay: 1500 * time.Millisecond, On: []int{0}})
	_, merr := NewSession().MapModel(&cands[0], testCNN, opt)
	var ce *CellError
	if !errors.As(merr, &ce) || ce.Kind != CellTimeout {
		t.Fatalf("MapModel error %v, want CellError{timeout}", merr)
	}
	if !errors.Is(merr, context.DeadlineExceeded) {
		t.Errorf("timeout error does not wrap context.DeadlineExceeded: %v", merr)
	}
}

// TestTransientClassifier pins the retry/no-retry split.
func TestTransientClassifier(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"infeasible", ErrInfeasible, false},
		{"wrapped infeasible", fmt.Errorf("cell: %w", ErrInfeasible), false},
		{"canceled", context.Canceled, false},
		{"unknown", errors.New("probably a bug"), false},
		{"cell panic", &CellError{Kind: CellPanic}, true},
		{"cell timeout", &CellError{Kind: CellTimeout}, true},
		{"injected", &faultinject.Error{Point: faultinject.PointCell}, true},
		{"wrapped injected", fmt.Errorf("save: %w", &faultinject.Error{}), true},
		{"deadline", context.DeadlineExceeded, true},
	}
	for _, c := range cases {
		if got := Transient(c.err); got != c.want {
			t.Errorf("Transient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRetryBackoff pins the backoff shape: deterministic per (key, attempt),
// exponential, capped, jittered within [50%, 100%].
func TestRetryBackoff(t *testing.T) {
	p := RetryPolicy{Max: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}.withDefaults()
	for attempt := 1; attempt <= 5; attempt++ {
		a := p.backoff(attempt, "cell-a")
		if a != p.backoff(attempt, "cell-a") {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
		full := p.BaseDelay << uint(attempt-1)
		if full > p.MaxDelay || full <= 0 {
			full = p.MaxDelay
		}
		if a < full/2 || a > full {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, a, full/2, full)
		}
	}
	if p.backoff(1, "cell-a") == p.backoff(1, "cell-b") {
		t.Error("jitter does not spread across keys")
	}

	// Disabled policy normalizes to zero; enabled fills defaults.
	if z := (RetryPolicy{BaseDelay: time.Hour}).withDefaults(); z != (RetryPolicy{}) {
		t.Errorf("disabled policy not normalized: %+v", z)
	}
	d := RetryPolicy{Max: 1}.withDefaults()
	if d.BaseDelay != 10*time.Millisecond || d.MaxDelay != time.Second {
		t.Errorf("defaults not applied: %+v", d)
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

// TestRetryBackoffInterruptedByStop: a sweep canceled during a backoff
// settles on the error instead of burning another attempt.
func TestRetryBackoffInterruptedByStop(t *testing.T) {
	cands := testCands()[:1]
	opt := testOptions()
	opt.Retry = RetryPolicy{Max: 3, BaseDelay: time.Hour, MaxDelay: time.Hour}
	opt.FaultInjector = faultinject.New(1,
		faultinject.Rule{Point: faultinject.PointCell, Kind: faultinject.KindError, Count: 1 << 20})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := NewSession().RunContext(ctx, cands, []*dnn.Graph{testCNN}, opt)
	if err == nil {
		t.Fatal("canceled sweep returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancel did not interrupt the backoff (took %v)", elapsed)
	}
}
