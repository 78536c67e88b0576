package dse

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

// runReused runs one sweep on ses and returns its results and how many of
// its cells took their partition from the session.
func runReused(t *testing.T, ses *Session, cands []arch.Config, models []*dnn.Graph, opt Options) ([]CandidateResult, int) {
	t.Helper()
	rs, st, err := ses.RunContext(context.Background(), cands, models, opt)
	if err != nil {
		t.Fatal(err)
	}
	if errs := Errors(rs); len(errs) > 0 {
		t.Fatal(errs)
	}
	return rs, st.PartitionsReused
}

// TestReseedReusesEveryPartition pins the memo's claim: a reseeded sweep on
// a session that ran the grid before reuses every cell's partition, and its
// results — per-model evaluations included — are those of a fresh session.
func TestReseedReusesEveryPartition(t *testing.T) {
	cands := testCands()
	models := []*dnn.Graph{testCNN, testTF}
	opt := testOptions()
	opt.Restarts = 2
	cells := len(cands) * len(models)

	ses := NewSession()
	if _, reused := runReused(t, ses, cands, models, opt); reused != 0 {
		t.Fatalf("a fresh session reused %d partitions", reused)
	}
	opt.Seed = 2
	got, reused := runReused(t, ses, cands, models, opt)
	if reused != cells {
		t.Errorf("reseeded sweep reused %d of %d partitions", reused, cells)
	}
	want, _ := runReused(t, NewSession(), cands, models, opt)
	resultsEqual(t, want, got, "reseeded on a primed session")
	for i := range want {
		for mi, w := range want[i].PerModel {
			g := got[i].PerModel[mi]
			if !reflect.DeepEqual(w.Eval, g.Eval) || w.SA.Cost != g.SA.Cost || w.Groups != g.Groups {
				t.Errorf("%s/%s: reseeded result differs from a fresh session's", want[i].Cfg.Name, w.Model)
			}
		}
	}
}

// TestPartitionKeyCoversOptions holds the memo's key to every input of the
// partitioner: changing the batch, the batch units, the group length bound
// or an objective exponent recomputes every partition, while the default
// batch units and the same units spelled out share one.
func TestPartitionKeyCoversOptions(t *testing.T) {
	cands := testCands()
	models := []*dnn.Graph{testCNN}
	base := testOptions()
	cells := len(cands) * len(models)

	for _, tc := range []struct {
		name   string
		change func(*Options)
		reused int
	}{
		{"seed", func(o *Options) { o.Seed++ }, cells},
		{"batch", func(o *Options) { o.Batch = 8 }, 0},
		{"batch units", func(o *Options) { o.BatchUnits = []int{1} }, 0},
		{"max group layers", func(o *Options) { o.MaxGroupLayers = 4 }, 0},
		{"beta", func(o *Options) { o.Objective.Beta = 2 }, 0},
		{"gamma", func(o *Options) { o.Objective.Gamma = 2 }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ses := NewSession()
			runReused(t, ses, cands, models, base)
			opt := base
			opt.Seed = 7 // never a settled cell
			tc.change(&opt)
			if _, reused := runReused(t, ses, cands, models, opt); reused != tc.reused {
				t.Errorf("reused %d partitions, want %d", reused, tc.reused)
			}
		})
	}

	ses := NewSession()
	opt := base
	opt.BatchUnits = nil
	runReused(t, ses, cands, models, opt)
	opt.BatchUnits = DefaultOptions().BatchUnits
	opt.Seed++
	if _, reused := runReused(t, ses, cands, models, opt); reused != cells {
		t.Errorf("explicit default batch units reused %d of %d partitions", reused, cells)
	}
}

// TestMemoizedInfeasibilityNamesAsker maps one infeasible cell on two
// configurations that differ only in name, so they share a pool entry, at
// two seeds, so the second is no checkpointed cell: its answer comes from
// the memo, and each error names its own asker.
func TestMemoizedInfeasibilityNamesAsker(t *testing.T) {
	ses := NewSession()
	var reused []bool
	ses.mapModel = func(c *cellRun, cfg *arch.Config, g *dnn.Graph, o Mapping, stop func() bool) (*MapResult, error) {
		mr, err := mapModelEval(c, cfg, g, o, stop)
		reused = append(reused, c.partitionReused)
		return mr, err
	}
	opt := testOptions()
	for _, name := range []string{"tiny-glb-a", "tiny-glb-b"} {
		cfg := arch.GArch72()
		cfg.GLBPerCore = 512
		cfg.Name = name
		opt.Seed++
		_, err := ses.MapModel(&cfg, testCNN, opt)
		if !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), "no feasible partition") {
			t.Fatalf("%s: error %v is not a partition infeasibility", name, err)
		}
		if !strings.Contains(err.Error(), " on "+name) {
			t.Errorf("%s: error %q does not name its candidate", name, err)
		}
	}
	if !reflect.DeepEqual(reused, []bool{false, true}) {
		t.Errorf("partition reused per call = %v, want [false true]", reused)
	}
}

// TestPoolFlushDropsPartitionMemo fills the evaluator pool past its limit:
// the wholesale flush drops the partitions with their entries, so a
// reseeded sweep recomputes them.
func TestPoolFlushDropsPartitionMemo(t *testing.T) {
	cands := testCands()[:1]
	models := []*dnn.Graph{testCNN}
	opt := testOptions()
	ses := NewSession()
	runReused(t, ses, cands, models, opt)
	for i := 0; i < evalPoolLimit; i++ {
		cfg := arch.GArch72()
		cfg.NoCBW = float64(1000 + i)
		ses.evaluator(&cfg)
	}
	opt.Seed++
	if _, reused := runReused(t, ses, cands, models, opt); reused != 0 {
		t.Errorf("reused %d partitions after a pool flush", reused)
	}
}

// TestConcurrentSweepsShareMemo runs two sweeps of one grid at once on a
// fresh session, so their cells may partition one key together: both match
// fresh sessions, and a later reseeded sweep reuses every partition.
func TestConcurrentSweepsShareMemo(t *testing.T) {
	cands := testCands()
	models := []*dnn.Graph{testCNN, testTF}
	opt := testOptions()
	ses := NewSession()
	got := make([][]CandidateResult, 2)
	done := make(chan int)
	for i := range got {
		o := opt
		o.Seed = int64(i) + 1
		go func() {
			got[i] = ses.Run(cands, models, o)
			done <- i
		}()
	}
	<-done
	<-done
	for i := range got {
		o := opt
		o.Seed = int64(i) + 1
		resultsEqual(t, NewSession().Run(cands, models, o), got[i], "concurrent sweep")
	}
	opt.Seed = 3
	if _, reused := runReused(t, ses, cands, models, opt); reused != len(cands)*len(models) {
		t.Errorf("reseeded sweep reused %d of %d partitions", reused, len(cands)*len(models))
	}
}
