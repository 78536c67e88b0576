package dse

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

// requireNoHolds fails unless ses holds no segment group and its cache has
// dropped every entry it stored.
func requireNoHolds(t *testing.T, ses *Session, label string) {
	t.Helper()
	if n := ses.heldGroups(); n != 0 {
		t.Errorf("%s: %d segment groups still held", label, n)
	}
	if st := ses.CacheStats(); st.Entries != 0 || st.Flushes != 0 || st.Misses != st.Dropped {
		t.Errorf("%s: cache %+v, want every stored entry dropped", label, st)
	}
}

// TestNoLeakedHolds: however a cell ends — mapped, pruned, canceled,
// restored from a checkpoint or panicking — its segment group hold is
// released, so after the sweep the session holds no group and its cache
// no segment entry.
func TestNoLeakedHolds(t *testing.T) {
	models := []*dnn.Graph{testCNN, testTF}
	base := arch.GArch72()
	big, err := ScaleUp(base, 4)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("pruned", func(t *testing.T) {
		opt := testOptions()
		opt.Workers = 1
		opt.Prune = true
		opt.Objective = Objective{Alpha: 8, Beta: 1, Gamma: 1}
		ses := NewSession()
		_, st := runStats(t, ses, []arch.Config{big, base}, models, opt)
		if st.PrunedCandidates != 1 {
			t.Fatalf("pruned %d candidates, want big", st.PrunedCandidates)
		}
		requireNoHolds(t, ses, "pruned sweep")
	})

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opt := testOptions()
		opt.Workers = 1
		opt.OnResult = func(CandidateResult) { cancel() } // cancel after the first candidate settles
		ses := NewSession()
		_, st, err := ses.RunContext(ctx, testCands(), models, opt)
		if err == nil || !st.Canceled || ses.CheckpointCells() != len(models) {
			t.Fatalf("err %v, canceled %t, %d cells settled; want a sweep canceled after one candidate",
				err, st.Canceled, ses.CheckpointCells())
		}
		requireNoHolds(t, ses, "canceled sweep")
	})

	t.Run("resumed", func(t *testing.T) {
		opt := testOptions()
		first := NewSession()
		first.Run(testCands()[:1], models, opt)
		var ckpt bytes.Buffer
		if err := first.SaveCheckpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		ses := NewSession()
		if err := ses.LoadCheckpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		_, st := runStats(t, ses, testCands(), models, opt)
		if st.ResumedCells != len(models) {
			t.Fatalf("resumed %d cells, want %d", st.ResumedCells, len(models))
		}
		requireNoHolds(t, ses, "resumed sweep")
	})

	t.Run("panicking cell", func(t *testing.T) {
		ses := NewSession()
		ses.mapModel = func(c *cellRun, cfg *arch.Config, g *dnn.Graph, o Mapping, stop func() bool) (*MapResult, error) {
			if _, err := mapModelEval(c, cfg, g, o, stop); err != nil { // fill the cache first
				return nil, err
			}
			panic("mapper bug")
		}
		_, st := runStats(t, ses, testCands(), models, testOptions())
		if st.Panics != len(testCands())*len(models) {
			t.Fatalf("%d panics, want one per cell", st.Panics)
		}
		if ses.CacheStats().Dropped == 0 {
			t.Fatal("the panicking cells stored nothing to drop")
		}
		requireNoHolds(t, ses, "panicking sweep")
		var ce *CellError
		if _, err := ses.MapModel(&base, testCNN, testOptions()); !errors.As(err, &ce) {
			t.Fatalf("MapModel: %v, want a CellError", err)
		}
		requireNoHolds(t, ses, "panicking MapModel")
	})

	t.Run("joint", func(t *testing.T) {
		ses := NewSession()
		if jr := ses.JointRun([]arch.Config{base}, []int{1, 2}, []*dnn.Graph{testCNN}, testOptions()); len(jr) != 1 {
			t.Fatalf("%d joint results, want 1", len(jr))
		}
		requireNoHolds(t, ses, "joint run")
	})
}

// TestOverlappingSweepsShareHolds: two sweeps running at once on one session
// over overlapping grids — one re-running the DP under another energy
// exponent — each give what a fresh session gives, bit for bit, and leave
// nothing held.
func TestOverlappingSweepsShareHolds(t *testing.T) {
	cands := testCands()
	third := arch.GArch72()
	third.GLBPerCore *= 2
	third.Name = third.String()
	type sweep struct {
		cands  []arch.Config
		models []*dnn.Graph
		opt    Options
	}
	a := sweep{cands, []*dnn.Graph{testCNN, testTF}, testOptions()}
	b := sweep{append(cands[1:2:2], third, cands[0]), []*dnn.Graph{testCNN}, testOptions()}
	b.opt.Objective.Beta = 2
	for _, sw := range []*sweep{&a, &b} {
		sw.opt.Prune = false
		sw.opt.Workers = 2
	}

	ses := NewSession()
	got := make([][]CandidateResult, 2)
	var wg sync.WaitGroup
	for i, sw := range []sweep{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, _, err := ses.RunContext(context.Background(), sw.cands, sw.models, sw.opt)
			if err != nil {
				t.Error(err)
			}
			got[i] = rs
		}()
	}
	wg.Wait()
	for i, sw := range []sweep{a, b} {
		resultsEqual(t, NewSession().Run(sw.cands, sw.models, sw.opt), got[i], "overlapping sweep")
	}
	requireNoHolds(t, ses, "after both sweeps")
}
