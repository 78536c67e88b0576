package dse

import (
	"bytes"
	"sync/atomic"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// racingCands returns four structurally distinct candidates spanning a wide
// quality range, so a race has something to eliminate.
func racingCands(t *testing.T) []arch.Config {
	t.Helper()
	a := arch.GArch72()
	b := arch.GArch72()
	b.NoCBW, b.D2DBW = 64, 32
	b.Name = b.String()
	c := arch.GArch72()
	c.DRAMBW = 64
	c.Name = c.String()
	d, err := ScaleUp(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []arch.Config{a, b, c, d}
}

// TestRacingFingerprintExcluded pins the checkpoint-compatibility claim:
// Racing and RacingKeep re-allocate restart budget across candidates but
// never change which seeds a restart index anneals with, so they must not
// move cells to a different fingerprint — racing and uniform sweeps share
// (and extend) each other's checkpoints.
func TestRacingFingerprintExcluded(t *testing.T) {
	a := testOptions()
	b := a
	b.Racing = true
	b.RacingKeep = 0.25
	b.OnRung = func(RungStats) {}
	if optsFingerprint(a) != optsFingerprint(b) {
		t.Error("Racing/RacingKeep/OnRung changed the options fingerprint")
	}
	// Racing forces Patience off before fingerprinting, so a racing sweep
	// with a stray Patience still lands on the uniform sweep's cells.
	c := b
	c.Patience = 2
	c.Restarts = 8
	u := a
	u.Restarts = 8
	ses := NewSession()
	sc := ses.newScheduler(t.Context(), nil, nil, c)
	if sc.optFP != optsFingerprint(u) {
		t.Error("racing scheduler did not normalize Patience out of the fingerprint")
	}
}

// TestRacingBudgets pins the rung schedule: doubling cumulative widths,
// deduplicated and terminated at the full portfolio width.
func TestRacingBudgets(t *testing.T) {
	cases := []struct {
		r    int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{3, []int{1, 2, 3}},
		{6, []int{1, 2, 4, 6}},
		{8, []int{1, 2, 4, 8}},
	}
	for _, c := range cases {
		got := racingBudgets(c.r)
		if len(got) != len(c.want) {
			t.Fatalf("racingBudgets(%d) = %v, want %v", c.r, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("racingBudgets(%d) = %v, want %v", c.r, got, c.want)
			}
		}
	}
}

// TestRacingWinnerMatchesUniform pins the tentpole's identical-best claim:
// with pruning off, the racing sweep's finalists run the full portfolio
// width, so the best candidate must be bit-identical to the uniform sweep's
// best — racing may only cheapen the losers, never change the winner.
func TestRacingWinnerMatchesUniform(t *testing.T) {
	cands := racingCands(t)
	models := []*dnn.Graph{testCNN, testTF}
	opt := testOptions()
	opt.Prune = false
	opt.Restarts = 4

	uniform := NewSession().Run(cands, models, opt)

	ropt := opt
	ropt.Racing = true
	var rungs []RungStats
	ropt.OnRung = func(rs RungStats) { rungs = append(rungs, rs) }
	racing, st := runStats(t, NewSession(), cands, models, ropt)

	ub, rb := Best(uniform), Best(racing)
	if ub == nil || rb == nil {
		t.Fatal("no feasible best")
	}
	if ub.Cfg.Name != rb.Cfg.Name || ub.Obj != rb.Obj || ub.Energy != rb.Energy || ub.Delay != rb.Delay {
		t.Errorf("racing best (%s, %v) != uniform best (%s, %v)", rb.Cfg.Name, rb.Obj, ub.Cfg.Name, ub.Obj)
	}

	if !st.Racing {
		t.Error("stats did not mark the sweep as racing")
	}
	if len(st.Rungs) == 0 || len(rungs) != len(st.Rungs) {
		t.Fatalf("rung records: OnRung saw %d, stats %d", len(rungs), len(st.Rungs))
	}
	// Budgets double to the full width; survivors never increase and the
	// exploratory rung admits everyone.
	last := st.Rungs[len(st.Rungs)-1]
	if st.Rungs[0].Budget != 1 || st.Rungs[0].Candidates != len(cands) || last.Budget != opt.Restarts {
		t.Errorf("rung schedule %+v does not span width 1..%d over %d candidates", st.Rungs, opt.Restarts, len(cands))
	}
	for i := 1; i < len(st.Rungs); i++ {
		if st.Rungs[i].Candidates != st.Rungs[i-1].Survivors {
			t.Errorf("rung %d admitted %d candidates, previous rung promoted %d",
				i, st.Rungs[i].Candidates, st.Rungs[i-1].Survivors)
		}
		if st.Rungs[i].Budget <= st.Rungs[i-1].Budget {
			t.Errorf("rung budgets not increasing: %+v", st.Rungs)
		}
	}

	// Eliminated candidates carry real partial-width results, never Pruned:
	// strictly fewer restarts than the finalists, but real energies.
	widths := map[string]int{}
	for i := range racing {
		cr := &racing[i]
		if cr.Pruned {
			t.Errorf("%s marked Pruned in an unpruned racing sweep", cr.Cfg.Name)
		}
		if !cr.Feasible {
			continue
		}
		for _, mr := range cr.PerModel {
			if mr != nil {
				widths[cr.Cfg.Name] = mr.Restarts
			}
		}
	}
	if widths[rb.Cfg.Name] != opt.Restarts {
		t.Errorf("winner settled at width %d, want full %d", widths[rb.Cfg.Name], opt.Restarts)
	}
	saved := false
	for name, w := range widths {
		if w < opt.Restarts {
			saved = true
		} else if name != rb.Cfg.Name && w > opt.Restarts {
			t.Errorf("%s settled beyond the full width: %d", name, w)
		}
	}
	if !saved {
		t.Error("no candidate was eliminated early; the race saved nothing")
	}
}

// TestRacingCheckpointReentry pins the re-entry rule end to end: cells a
// racing sweep settled at partial widths re-enter a later uniform sweep at
// the width their stored restart count implies, run only the missing window,
// and fold to results bit-identical to a cold uniform sweep.
func TestRacingCheckpointReentry(t *testing.T) {
	cands := racingCands(t)
	models := []*dnn.Graph{testCNN}
	opt := testOptions()
	opt.Prune = false
	opt.Restarts = 4

	cold := NewSession().Run(cands, models, opt)

	ropt := opt
	ropt.Racing = true
	a := NewSession()
	a.Run(cands, models, ropt)
	var ckpt bytes.Buffer
	if err := a.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// The uniform resume must only anneal the missing restart windows: every
	// injected call carries from > 0 (the full-width finalist cells restore
	// without any call at all).
	var windows atomic.Int64
	b := NewSession()
	b.mapModel = func(ev *eval.Evaluator, cfg *arch.Config, g *dnn.Graph, o Options, stop func() bool, from, to int) (*MapResult, error) {
		windows.Add(1)
		if from <= 0 || to != opt.Restarts {
			t.Errorf("resumed sweep ran window [%d, %d); want partial re-entry to the full width %d", from, to, opt.Restarts)
		}
		return mapModelRange(ev, cfg, g, o, stop, from, to)
	}
	if err := b.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	got := b.Run(cands, models, opt)
	resultsEqual(t, cold, got, "uniform resume over racing checkpoint")
	if n := int(windows.Load()); n == 0 {
		t.Error("no partial cell was widened; the race eliminated nobody")
	} else if n >= len(cands)*len(models) {
		t.Errorf("%d windows for %d cells; finalist cells should have restored without re-annealing",
			n, len(cands)*len(models))
	}
}

// TestRacingSingleCandidate: a race with one candidate degenerates to the
// uniform sweep — every rung promotes the only survivor to the full width.
func TestRacingSingleCandidate(t *testing.T) {
	cands := []arch.Config{arch.GArch72()}
	models := []*dnn.Graph{testCNN}
	opt := testOptions()
	opt.Prune = false
	opt.Restarts = 3

	want := NewSession().Run(cands, models, opt)
	ropt := opt
	ropt.Racing = true
	got := NewSession().Run(cands, models, ropt)
	resultsEqual(t, want, got, "single-candidate race vs uniform")
}

// TestRacingKeepFraction: a harsher keep fraction eliminates more candidates
// per rung while a keep near 1 promotes everyone until the final rung.
func TestRacingKeepFraction(t *testing.T) {
	cands := racingCands(t)
	models := []*dnn.Graph{testCNN}
	opt := testOptions()
	opt.Prune = false
	opt.Restarts = 4
	opt.Racing = true

	harsh := opt
	harsh.RacingKeep = 0.26 // ceil(0.26*4) = 2, then ceil(0.26*2) = 1
	_, hst := runStats(t, NewSession(), cands, models, harsh)
	hr := hst.Rungs
	if len(hr) == 0 || hr[0].Survivors != 2 {
		t.Fatalf("keep=0.26 rung 0 promoted %+v, want 2 of 4", hr)
	}

	lax := opt
	lax.RacingKeep = 0.99 // ceil(0.99*n) = n: nobody is eliminated
	ses2 := NewSession()
	lr := ses2.Run(cands, models, lax)
	want := NewSession().Run(cands, models, func() Options { o := opt; o.Racing = false; return o }())
	resultsEqual(t, want, lr, "keep~1 race vs uniform")
}
