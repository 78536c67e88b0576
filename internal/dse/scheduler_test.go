package dse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

// gridOrder is a test Options.Dispatch order: enumeration (grid) order
// instead of ascending lower bound, so a test can stage a dominated
// candidate ahead of the one that dominates it.
func gridOrder(a, b int) bool { return a < b }

// runStats runs one sweep to completion and returns its sorted results with
// the sweep's own stats.
func runStats(t *testing.T, s *Session, cands []arch.Config, models []*dnn.Graph, opt Options) ([]CandidateResult, SweepStats) {
	t.Helper()
	rs, st, err := s.RunContext(context.Background(), cands, models, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rs, st
}

// TestOrderedMatchesGridWithoutPruning pins the determinism satellite: with
// pruning off, the bound-ordered schedule changes only dispatch order, so
// the sorted result set must be bit-identical to a grid-order feed's.
func TestOrderedMatchesGridWithoutPruning(t *testing.T) {
	cands := testCands()
	big, err := ScaleUp(cands[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	cands = append(cands, big)
	models := []*dnn.Graph{testCNN, testTF}

	bound := testOptions()
	bound.Prune = false
	grid := bound
	grid.Dispatch = gridOrder

	want := NewSession().Run(cands, models, grid)
	got := NewSession().Run(cands, models, bound)
	resultsEqual(t, want, got, "bound-ordered vs grid")
}

// TestBoundOrderDispatchesCheapFirst: the dispatch permutation must sort
// candidates by ascending objective lower bound.
func TestBoundOrderDispatchesCheapFirst(t *testing.T) {
	base := arch.GArch72()
	big, err := ScaleUp(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Objective = Objective{Alpha: 8, Beta: 1, Gamma: 1}

	// big first in grid order; the scheduler must flip them (its 4x MC at
	// alpha=8 dwarfs its slightly better delay bound).
	ses := NewSession()
	sc := ses.newScheduler(context.Background(), []arch.Config{big, base}, []*dnn.Graph{testCNN}, opt)
	if sc.states[0].lb <= sc.states[1].lb {
		t.Fatalf("bound of big (%g) should exceed base (%g)", sc.states[0].lb, sc.states[1].lb)
	}
	if sc.order[0] != 1 || sc.order[1] != 0 {
		t.Errorf("dispatch order = %v, want [1 0]", sc.order)
	}
}

// TestCheckpointSeededIncumbentPrunes pins the resume satellite: a sweep
// resumed from a checkpoint that already contains a feasible candidate must
// prune a dominated candidate from task one — even in grid order with the
// dominated candidate dispatched first.
func TestCheckpointSeededIncumbentPrunes(t *testing.T) {
	base := arch.GArch72()
	big, err := ScaleUp(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Workers = 1
	opt.Prune = true
	opt.Dispatch = gridOrder
	opt.Objective = Objective{Alpha: 8, Beta: 1, Gamma: 1}
	models := []*dnn.Graph{testCNN}

	// Session A maps only the base candidate and checkpoints it.
	a := NewSession()
	if Best(a.Run([]arch.Config{base}, models, opt)) == nil {
		t.Fatal("base infeasible")
	}
	var ckpt bytes.Buffer
	if err := a.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Without the checkpoint, grid order runs big first against an infinite
	// incumbent: nothing can be pruned.
	cold := NewSession()
	coldRes := cold.Run([]arch.Config{big, base}, models, opt)
	for i := range coldRes {
		if coldRes[i].Pruned {
			t.Fatalf("cold sweep pruned %s; the seeding test needs a workload only the seed can prune", coldRes[i].Cfg.Name)
		}
	}

	// Resumed session: the checkpointed base seeds the incumbent before the
	// first task, so big is pruned without being mapped.
	b, calls := countingSession()
	if err := b.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	rs, st := runStats(t, b, []arch.Config{big, base}, models, opt)
	if calls.Load() != 0 {
		t.Errorf("resumed sweep invoked MapModel %d times (big should be pruned, base restored)", calls.Load())
	}
	if rs[0].Cfg.Name != base.Name || !rs[0].Feasible {
		t.Fatalf("base should win: %s (%s)", rs[0].Cfg.Name, rs[0].Status())
	}
	if !rs[1].Pruned {
		t.Fatalf("big not pruned on resume: %s", rs[1].Status())
	}

	if st.SeededIncumbent == 0 {
		t.Error("stats did not record the seeded incumbent")
	}
	if st.SeededIncumbent != rs[0].Obj {
		t.Errorf("seeded incumbent %g, want base objective %g", st.SeededIncumbent, rs[0].Obj)
	}
	if st.PrunedCandidates != 1 {
		t.Errorf("stats pruned = %d, want 1", st.PrunedCandidates)
	}
	if len(st.Trajectory) == 0 || st.Trajectory[0].Candidate != "(checkpoint seed)" {
		t.Errorf("trajectory missing checkpoint seed: %+v", st.Trajectory)
	}
}

// TestCheckpointSeededIncumbentFoldsModels pins the fold the checkpoint seed
// shares with reduceCandidate where the geometric mean does something: a
// candidate whose two models are both checkpointed seeds the incumbent,
// under a non-unit objective, with exactly the objective it is reported with.
func TestCheckpointSeededIncumbentFoldsModels(t *testing.T) {
	cands := []arch.Config{arch.GArch72()}
	opt := testOptions()
	opt.Workers = 1
	opt.Prune = true
	opt.Objective = Objective{Alpha: 1, Beta: 2, Gamma: 0.5}
	models := []*dnn.Graph{testCNN, testTF}

	a := NewSession()
	if !a.Run(cands, models, opt)[0].Feasible {
		t.Fatal("candidate infeasible")
	}
	var ckpt bytes.Buffer
	if err := a.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	b := NewSession()
	if err := b.LoadCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	rs, st := runStats(t, b, cands, models, opt)
	if st.ResumedCells != len(models) {
		t.Fatalf("resumed %d cells, want %d", st.ResumedCells, len(models))
	}
	if math.Float64bits(st.SeededIncumbent) != math.Float64bits(rs[0].Obj) {
		t.Errorf("seeded incumbent %v, reported objective %v", st.SeededIncumbent, rs[0].Obj)
	}
}

// TestAbandonedCellPrunesCandidate pins the live-incumbent plumbing: a cell
// whose portfolio reports abandonment must turn into a pruned candidate,
// count its saved restarts, and leave no checkpoint record behind.
func TestAbandonedCellPrunesCandidate(t *testing.T) {
	base := arch.GArch72()
	doomed := arch.GArch72()
	doomed.Name = "doomed-arch"
	doomed.NoCBW = 48 // structurally distinct so cells do not alias

	ses := NewSession()
	ses.mapModel = func(c *cellRun, cfg *arch.Config, g *dnn.Graph, o Mapping, stop func() bool) (*MapResult, error) {
		if cfg.Name == "doomed-arch" {
			return nil, &abandonedError{done: 1, planned: 4}
		}
		return mapModelEval(c, cfg, g, o, stop)
	}

	opt := testOptions()
	opt.Prune = true
	opt.Restarts = 4
	rs, st := runStats(t, ses, []arch.Config{base, doomed}, []*dnn.Graph{testCNN}, opt)

	var dr *CandidateResult
	for i := range rs {
		if rs[i].Cfg.Name == "doomed-arch" {
			dr = &rs[i]
		}
	}
	if dr == nil || !dr.Pruned || dr.Err != nil {
		t.Fatalf("abandoned candidate not reported pruned: %+v", dr)
	}
	if st.AbandonedRestarts != 3 {
		t.Errorf("abandoned restarts = %d, want 3", st.AbandonedRestarts)
	}
	// An abandoned cell is not a settled outcome: it must not be
	// checkpointed, so a later sweep retries it.
	var ckpt bytes.Buffer
	if err := ses.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ckpt.String(), "doomed") {
		t.Errorf("abandoned cell was checkpointed:\n%s", ckpt.String())
	}
}

// TestSweepStatsTrajectory: every incumbent improvement lands in the
// trajectory in decreasing-objective order, ending at the best result.
func TestSweepStatsTrajectory(t *testing.T) {
	cands := testCands()
	opt := testOptions()
	opt.Prune = true
	rs, st := runStats(t, NewSession(), cands, []*dnn.Graph{testCNN}, opt)
	best := Best(rs)
	if best == nil {
		t.Fatal("no feasible candidate")
	}
	if len(st.Trajectory) == 0 {
		t.Fatal("empty incumbent trajectory")
	}
	for i := 1; i < len(st.Trajectory); i++ {
		if st.Trajectory[i].Obj >= st.Trajectory[i-1].Obj {
			t.Errorf("trajectory not strictly improving: %+v", st.Trajectory)
		}
	}
	if last := st.Trajectory[len(st.Trajectory)-1]; last.Obj != best.Obj {
		t.Errorf("trajectory ends at %g, best is %g", last.Obj, best.Obj)
	}
	if st.Candidates != len(cands) || st.Cells != len(cands) {
		t.Errorf("stats counted %d candidates / %d cells, want %d / %d",
			st.Candidates, st.Cells, len(cands), len(cands))
	}
}

// TestAbandonedErrorNotInfeasible: the sentinel must never be mistaken for
// infeasibility or surface as a user-visible error class — not even wrapped
// by the mapping pipeline, where the session still reads an abandoned cell.
func TestAbandonedErrorNotInfeasible(t *testing.T) {
	err := error(&abandonedError{done: 1, planned: 4})
	if errors.Is(err, ErrInfeasible) {
		t.Error("abandonedError wraps ErrInfeasible")
	}
	if !strings.Contains(err.Error(), "1/4") {
		t.Errorf("unexpected message: %v", err)
	}
	ses := NewSession()
	ses.mapModel = func(*cellRun, *arch.Config, *dnn.Graph, Mapping, func() bool) (*MapResult, error) {
		return nil, fmt.Errorf("mapper: %w", err)
	}
	results, _, rerr := ses.RunContext(context.Background(), []arch.Config{arch.GArch72()}, []*dnn.Graph{testCNN}, testOptions())
	if rerr != nil || results[0].Err != nil || ses.CheckpointCells() != 0 {
		t.Errorf("wrapped abandonment: run err %v, cell err %v, %d cells checkpointed; want an abandoned cell", rerr, results[0].Err, ses.CheckpointCells())
	}
}

// TestResumedSweepRestoresDominatedCandidate: a candidate whose cells are
// all checkpointed must be restored — not discarded as pruned — even when
// the seeded incumbent dominates its bound; restoring is free, and the
// resumed sweep must report everything the original run reported.
func TestResumedSweepRestoresDominatedCandidate(t *testing.T) {
	base := arch.GArch72()
	big, err := ScaleUp(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Workers = 1
	opt.Dispatch = gridOrder
	opt.Objective = Objective{Alpha: 8, Beta: 1, Gamma: 1}
	models := []*dnn.Graph{testCNN}
	cands := []arch.Config{big, base}

	// Original run with pruning off: both candidates computed and
	// checkpointed with real objectives.
	a := NewSession()
	want := a.Run(cands, models, opt)
	var ckpt bytes.Buffer
	if err := a.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Resume with pruning ON: the seed dominates big's bound, but big's
	// cell is checkpointed, so it must be restored verbatim.
	b, calls := countingSession()
	if err := b.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	pruneOpt := opt
	pruneOpt.Prune = true
	got, st := runStats(t, b, cands, models, pruneOpt)
	if calls.Load() != 0 {
		t.Errorf("resumed sweep invoked MapModel %d times", calls.Load())
	}
	resultsEqual(t, want, got, "resumed prune-on vs original prune-off")
	if st.PrunedCandidates != 0 {
		t.Errorf("resumed sweep pruned %d fully checkpointed candidates", st.PrunedCandidates)
	}
}

// TestPartialCheckpointBoundPrunes pins the bound-aware seeding-breadth
// satellite: a half-checkpointed dominated candidate — one model's cell
// settled, the other missing — must be pruned via its refined per-candidate
// bound without mapping the missing cell. The refined value is a bound on
// the candidate itself, never the shared incumbent, so the winning
// candidate is untouched.
func TestPartialCheckpointBoundPrunes(t *testing.T) {
	strong := arch.GArch72()
	weak := arch.GArch72()
	weak.FreqGHz /= 256 // dominated: same cost, 256x the delay
	weak.Name = weak.String()
	models := []*dnn.Graph{testCNN, testTF}

	opt := testOptions()
	opt.Workers = 1
	opt.Prune = true
	opt.Dispatch = gridOrder // dispatch weak first: only the refined bound can save it

	// Session A settles exactly half of weak's cells (model 1 of 2) plus all
	// of strong's, then checkpoints. Cell keys ignore the model list, so the
	// half-sweep writes the same cells the full sweep will look up.
	a := NewSession()
	if Best(a.Run([]arch.Config{weak, strong}, models[:1], opt)) == nil {
		t.Fatal("half sweep infeasible")
	}
	if Best(a.Run([]arch.Config{strong}, models, opt)) == nil {
		t.Fatal("strong sweep infeasible")
	}
	var ckpt bytes.Buffer
	if err := a.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// The resumed sweep: strong is fully checkpointed (seeds the incumbent),
	// weak is half checkpointed. Its refined bound mixes the settled cell's
	// huge achieved delay with the missing cell's lower bound, exceeding the
	// seeded incumbent — so the missing cell is never mapped.
	b, calls := countingSession()
	if err := b.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	rs := b.Run([]arch.Config{weak, strong}, models, opt)
	if calls.Load() != 0 {
		t.Errorf("resumed sweep invoked MapModel %d times; the refined bound should prune weak's missing cell", calls.Load())
	}
	if rs[0].Cfg.Name != strong.Name || !rs[0].Feasible {
		t.Fatalf("strong should win: %s (%s)", rs[0].Cfg.Name, rs[0].Status())
	}
	var wr *CandidateResult
	for i := range rs {
		if rs[i].Cfg.Name == weak.Name {
			wr = &rs[i]
		}
	}
	if wr == nil || !wr.Pruned {
		t.Fatalf("half-checkpointed dominated candidate not pruned: %+v", wr)
	}
	if wr.LowerBound <= 0 || wr.LowerBound <= rs[0].Obj {
		t.Errorf("refined bound %g should exceed the incumbent %g", wr.LowerBound, rs[0].Obj)
	}

	// Sanity: without the refinement-carrying checkpoint, the same grid-order
	// sweep maps weak in full (nothing to prune it with when it runs first).
	cold := NewSession()
	coldRes := cold.Run([]arch.Config{weak, strong}, models, opt)
	for i := range coldRes {
		if coldRes[i].Pruned {
			t.Fatalf("cold sweep pruned %s; this workload must only be prunable via the checkpoint", coldRes[i].Cfg.Name)
		}
	}
}

// TestInLoopAbandonBitIdenticalWhenNeverDominated: the in-loop hook is
// active on every cell the scheduler runs, so a workload where nothing is
// ever dominated must produce bit-identical results and identical SA
// iteration counts with the hook installed and with the stop gate withheld
// from the mapping pipeline (no hook, no between-restart checks).
func TestInLoopAbandonBitIdenticalWhenNeverDominated(t *testing.T) {
	cands := testCands()
	models := []*dnn.Graph{testCNN, testTF}
	opt := testOptions()
	opt.Prune = true
	opt.Restarts = 2

	on, onSt := runStats(t, NewSession(), cands, models, opt)
	for i := range on {
		if on[i].Pruned {
			t.Fatalf("%s pruned; this workload must have no dominated candidate", on[i].Cfg.Name)
		}
	}
	ungated := NewSession()
	ungated.mapModel = func(c *cellRun, cfg *arch.Config, g *dnn.Graph, o Mapping, _ func() bool) (*MapResult, error) {
		return mapModelEval(c, cfg, g, o, nil)
	}
	off, offSt := runStats(t, ungated, cands, models, opt)
	resultsEqual(t, off, on, "in-loop hook vs no stop gate")
	if offSt.SAIterations == 0 {
		t.Fatal("stats recorded no SA iterations")
	}
	if onSt.SAIterations != offSt.SAIterations {
		t.Errorf("never-firing hook changed SA iteration counts: off=%d on=%d", offSt.SAIterations, onSt.SAIterations)
	}
}

// TestInLoopAbandonSavesIterations: on a workload where dominated cells are
// already mid-anneal when the incumbent lands, the in-loop check must stop
// them within one polling stride (with one restart per cell, the
// between-restart gate can save nothing), while preserving the winning
// candidate. Mid-cell domination only happens under concurrency, so the
// injected mapModel holds the strong candidate's result back until both
// weak cells have entered their search.
func TestInLoopAbandonSavesIterations(t *testing.T) {
	strong := arch.GArch72()
	var weak []arch.Config
	for _, div := range []float64{64, 128} {
		w := arch.GArch72()
		w.FreqGHz /= div
		w.Name = w.String()
		weak = append(weak, w)
	}
	cands := append([]arch.Config{strong}, weak...)
	models := []*dnn.Graph{testCNN}
	opt := testOptions()
	opt.Prune = true
	opt.Restarts = 1 // no between-restart gaps: only the in-loop check can save work
	opt.Workers = 3  // strong + both weak cells run concurrently
	opt.SAIterations = 400

	var weakStarted atomic.Int32
	strongDone := make(chan struct{})
	ses := NewSession()
	ses.mapModel = func(c *cellRun, cfg *arch.Config, g *dnn.Graph, o Mapping, stop func() bool) (*MapResult, error) {
		if cfg.Name == strong.Name {
			// Let the dominated cells pass their pre-cell bound check and
			// enter their mapModel call before the incumbent exists, so
			// only the in-loop poll can cut them off.
			for weakStarted.Load() < 2 {
				runtime.Gosched()
			}
			mr, err := mapModelEval(c, cfg, g, o, stop)
			close(strongDone)
			return mr, err
		}
		weakStarted.Add(1)
		// Hold the dominated cells — already past their pre-cell gate —
		// until the strong result exists, so the incumbent lands before
		// their first abandonment poll instead of racing their last: the
		// saved iterations don't depend on wall-clock interleaving.
		<-strongDone
		return mapModelEval(c, cfg, g, o, stop)
	}
	rs, st := runStats(t, ses, cands, models, opt)
	best := Best(rs)
	if best == nil || best.Cfg.Name != strong.Name {
		t.Fatalf("in-loop abandonment changed the winner: %+v", best)
	}
	// Strong anneals to completion; each weak cell, which would otherwise
	// burn all SAIterations (the pre-cell and between-restart gates cannot
	// fire mid-cell), stops at one of its first abandonment polls — the
	// incumbent lands a few microseconds after the hold releases, well
	// inside the first half of the anneal.
	if st.PrunedCandidates != 2 {
		t.Errorf("pruned %d candidates, want both weak ones", st.PrunedCandidates)
	}
	if want := 2 * opt.SAIterations; st.SAIterations > want {
		t.Errorf("in-loop abandonment saved too little: %d SA iterations, want <= %d (of %d without it)",
			st.SAIterations, want, 3*opt.SAIterations)
	}
}
