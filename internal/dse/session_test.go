package dse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/cost"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// Shared graph instances for session tests (checkpoint keys include the
// model name).
var (
	testCNN = dnn.TinyCNN()
	testTF  = dnn.TinyTransformer()
)

func testCands() []arch.Config {
	a := arch.GArch72()
	b := arch.GArch72()
	b.NoCBW, b.D2DBW = 64, 32
	b.Name = b.String()
	return []arch.Config{a, b}
}

// countingSession returns a fresh session that counts how many cells it
// actually maps (restored and pruned cells never reach the pipeline).
func countingSession() (*Session, *atomic.Int64) {
	s := NewSession()
	calls := new(atomic.Int64)
	s.mapModel = func(c *cellRun, cfg *arch.Config, g *dnn.Graph, o Mapping, stop func() bool) (*MapResult, error) {
		calls.Add(1)
		return mapModelEval(c, cfg, g, o, stop)
	}
	return s, calls
}

// resultsEqual requires bit-identical headline numbers per candidate.
func resultsEqual(t *testing.T, want, got []CandidateResult, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d results", label, len(want), len(got))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		if w.Cfg.Name != g.Cfg.Name {
			t.Fatalf("%s[%d]: order differs: %s vs %s", label, i, w.Cfg.Name, g.Cfg.Name)
		}
		if w.Energy != g.Energy || w.Delay != g.Delay || w.Obj != g.Obj || w.Feasible != g.Feasible {
			t.Errorf("%s[%d] %s: (E=%v D=%v obj=%v feas=%v) vs (E=%v D=%v obj=%v feas=%v)",
				label, i, w.Cfg.Name,
				w.Energy, w.Delay, w.Obj, w.Feasible,
				g.Energy, g.Delay, g.Obj, g.Feasible)
		}
	}
}

// TestSessionMatchesRun pins the acceptance criterion: a fixed-seed Session
// sweep — cold, and re-run warm on the shared cache — is bit-identical to
// the equivalent single dse.Run.
func TestSessionMatchesRun(t *testing.T) {
	cands := testCands()
	models := []*dnn.Graph{testCNN, testTF}
	opt := testOptions()

	baseline := NewSession().Run(cands, models, opt)

	ses := NewSession()
	cold := ses.Run(cands, models, opt)
	resultsEqual(t, baseline, cold, "cold session")

	// The warm re-run restores checkpointed cells; headline numbers must
	// still match bit for bit.
	warm := ses.Run(cands, models, opt)
	resultsEqual(t, baseline, warm, "warm session")
	if ses.ResumedCells() == 0 {
		t.Error("warm re-run resumed no cells")
	}

	// A different seed forces real re-mapping on the warm cache; that too
	// must match a fresh Run bit for bit (the cache stores exactly what
	// recomputation yields).
	opt2 := opt
	opt2.Seed = 42
	warm2 := ses.Run(cands, models, opt2)
	resultsEqual(t, NewSession().Run(cands, models, opt2), warm2, "warm cache, new seed")
}

// TestSessionCacheAccounting: while the grid is held, a sweep that re-runs
// the DP on it asks a warm cache; once the hold is released, the grid's
// entries leave the cache, every one counted as dropped.
func TestSessionCacheAccounting(t *testing.T) {
	ses := NewSession()
	cands := testCands()
	models := []*dnn.Graph{testCNN}
	opt := testOptions()

	release := ses.Hold(cands, models)
	ses.Run(cands, models, opt)
	st1 := ses.CacheStats()
	if st1.Misses == 0 {
		t.Fatal("cold run recorded no misses")
	}
	if st1.Entries == 0 {
		t.Fatal("cold run cached no entries")
	}

	// Same sweep with a different energy exponent: cells miss (different
	// options key) and so do the session's partitions, so the DP and the
	// anneal really re-run — but the DP's segments are named without the
	// exponents, so it asks a warm cache. (A reseeded run reuses every
	// partition and makes no segment lookup at all.)
	opt2 := opt
	opt2.Objective.Beta = 2
	ses.Run(cands, models, opt2)
	st2 := ses.CacheStats()
	if st2.Hits <= st1.Hits {
		t.Errorf("warm run added no cache hits: %+v -> %+v", st1, st2)
	}
	warmHits := st2.Hits - st1.Hits
	warmMisses := st2.Misses - st1.Misses
	if warmHits <= warmMisses {
		t.Errorf("warm run should be hit-dominated: %d hits vs %d misses", warmHits, warmMisses)
	}

	release()
	if st := ses.CacheStats(); st.Entries != 0 || st.Dropped != st2.Misses || st.Dropped != int64(st2.Entries) {
		t.Errorf("released grid: %+v, want its %d entries dropped and none left", st, st2.Entries)
	}
}

// TestCacheCountsReproducible: a fixed-seed, pruning-off sweep reports the
// same cache hit and miss counts however its workers interleave. Two workers
// race to fill the entries bandwidth siblings share, yet every run counts
// what one worker, which cannot race, counts, and the misses are exactly the
// summaries stored — every one dropped with its group when the sweep ends.
func TestCacheCountsReproducible(t *testing.T) {
	cands := testCands()
	models := []*dnn.Graph{testCNN, testTF}
	counts := func(workers int) eval.CacheStats {
		opt := testOptions()
		opt.Prune = false
		opt.Workers = workers
		ses := NewSession()
		ses.Run(cands, models, opt)
		st := ses.CacheStats()
		if st.Flushes != 0 || st.Misses != int64(st.Entries)+st.Dropped || st.Entries != 0 {
			t.Fatalf("%d workers: %+v, want no flush, one miss per stored entry and every entry dropped", workers, st)
		}
		return st
	}
	// One worker's counts: they move only if the sweep's cache lookups do.
	// They were 362 / 366 while the annealer measured its start and its
	// result through the cache; every lookup left is the partitioner's.
	one := counts(1)
	if one.Hits != 350 || one.Misses != 350 {
		t.Fatalf("1 worker: %d hits / %d misses, want 350 / 350", one.Hits, one.Misses)
	}
	for run := range 5 {
		if two := counts(2); two.Hits != one.Hits || two.Misses != one.Misses {
			t.Errorf("run %d, 2 workers: %d hits / %d misses, want %d / %d as with 1 worker",
				run, two.Hits, two.Misses, one.Hits, one.Misses)
		}
	}
}

func TestSessionCheckpointRoundTrip(t *testing.T) {
	cands := testCands()
	models := []*dnn.Graph{testCNN, testTF}
	opt := testOptions()

	a := NewSession()
	want := a.Run(cands, models, opt)
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()

	// A fresh session with the checkpoint loaded must not map anything.
	b, calls := countingSession()
	if err := b.LoadCheckpoint(strings.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	got := b.Run(cands, models, opt)
	if calls.Load() != 0 {
		t.Errorf("resumed run invoked MapModel %d times", calls.Load())
	}
	if int(b.ResumedCells()) != len(cands)*len(models) {
		t.Errorf("resumed %d cells, want %d", b.ResumedCells(), len(cands)*len(models))
	}
	resultsEqual(t, want, got, "resumed")
	for i := range got {
		for _, mr := range got[i].PerModel {
			if !mr.Summary {
				t.Error("restored MapResult not marked Summary")
			}
		}
	}

	// Round-trip stability: saving the resumed session reproduces the bytes.
	var buf2 bytes.Buffer
	if err := b.SaveCheckpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != saved {
		t.Error("checkpoint bytes not stable across save/load/save")
	}

	// A different option set must not collide with checkpointed cells.
	opt2 := opt
	opt2.SAIterations += 5
	b.Run(cands, models, opt2)
	if calls.Load() == 0 {
		t.Error("changed options should have forced re-mapping")
	}

	// SaveCells scopes the same format to one grid: b now holds two grids'
	// cells, and saving the first reproduces its checkpoint byte for byte.
	var scoped bytes.Buffer
	if err := b.SaveCells(&scoped, cands, models, opt); err != nil {
		t.Fatal(err)
	}
	if scoped.String() != saved {
		t.Error("SaveCells of the first grid differs from its SaveCheckpoint bytes")
	}
	scoped.Reset()
	if err := b.SaveCells(&scoped, cands[:1], models, opt2); err != nil {
		t.Fatal(err)
	}
	c := NewSession()
	if err := c.LoadCheckpoint(&scoped); err != nil {
		t.Fatal(err)
	}
	if n := c.CheckpointCells(); n != len(models) || c.SettledCells(cands[:1], models, opt2) != n {
		t.Errorf("one candidate's SaveCells loaded %d cells, want its %d", n, len(models))
	}
}

// TestCellKeysPinned pins the checkpoint cell keying to its PR 11 values:
// the options fingerprint of the defaults and of one all-fields-set case,
// and the key layout. A change here orphans every checkpoint on disk.
func TestCellKeysPinned(t *testing.T) {
	if got := optsFingerprint(DefaultOptions().Mapping); got != 0x99ce5b311a3445a8 {
		t.Errorf("optsFingerprint(DefaultOptions()) = %#016x, want 0x99ce5b311a3445a8", got)
	}
	o := DefaultOptions()
	o.Batch, o.SAIterations, o.Restarts, o.Seed = 8, 150, 4, 7
	o.Objective = Objective{Alpha: 2, Beta: 1, Gamma: 0.5}
	o.MaxGroupLayers, o.BatchUnits = 7, []int{1, 2}
	if got := optsFingerprint(o.Mapping); got != 0x1235faee230ca6cc {
		t.Errorf("optsFingerprint(non-default) = %#016x, want 0x1235faee230ca6cc", got)
	}
	if got, want := cellKey(0xabc, "resnet50", 0x99ce5b311a3445a8), "0000000000000abc/resnet50/99ce5b311a3445a8"; got != want {
		t.Errorf("cellKey = %q, want %q", got, want)
	}
}

// TestMappingKeyCoversEveryField: every Mapping leaf keys the cell, except
// Objective.Alpha, which only ranks candidates and must not.
func TestMappingKeyCoversEveryField(t *testing.T) {
	want := optsFingerprint(*perturbed[Mapping](t, ""))
	paths := leafPaths[Mapping]()
	for _, path := range paths {
		changed := optsFingerprint(*perturbed[Mapping](t, path)) != want
		if path == ".Objective.Alpha" && changed {
			t.Error("Objective.Alpha changed the cell key; it only ranks candidates")
		} else if path != ".Objective.Alpha" && !changed {
			t.Errorf("Mapping%s did not change the cell key", path)
		}
	}
	if !slices.Contains(paths, ".Objective.Alpha") {
		t.Errorf("leaf walk %v misses Objective.Alpha", paths)
	}
}

// forEachLeaf calls visit with the path and value of every leaf field under
// v, recursing into structs and allocating nil pointers to structs on the way.
func forEachLeaf(v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	switch {
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			forEachLeaf(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case v.Kind() == reflect.Pointer && v.Type().Elem().Kind() == reflect.Struct:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		forEachLeaf(v.Elem(), path, visit)
	default:
		visit(path, v)
	}
}

// leafPaths lists the leaf paths of T, such as ".Objective.Alpha".
func leafPaths[T any]() []string {
	var paths []string
	forEachLeaf(reflect.ValueOf(new(T)).Elem(), "", func(p string, _ reflect.Value) { paths = append(paths, p) })
	return paths
}

// perturbed returns a zero T, its nil struct pointers allocated, with the
// leaf at path set to a distinct non-default value ("" perturbs nothing).
func perturbed[T any](t *testing.T, path string) *T {
	x := new(T)
	forEachLeaf(reflect.ValueOf(x).Elem(), "", func(p string, v reflect.Value) {
		if p == path {
			perturb(t, p, v)
		}
	})
	return x
}

// perturb sets one leaf to 7, true, "7" or a one-element slice of such.
func perturb(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("7")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		perturb(t, path, s.Index(0))
		v.Set(s)
	default:
		t.Fatalf("%s: no perturbation for kind %s", path, v.Kind())
	}
}

// TestParentCommitCheckpointResumes loads a checkpoint file written by the
// PR 11 engine (GArch72 x {tinycnn, tinytransformer}, testOptions at two
// restarts) and re-runs that sweep: every cell must restore, none re-map.
func TestParentCommitCheckpointResumes(t *testing.T) {
	f, err := os.Open("testdata/parent_pr11.ckpt.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ses := NewSession()
	if err := ses.LoadCheckpoint(f); err != nil {
		t.Fatal(err)
	}
	ses.mapModel = func(*cellRun, *arch.Config, *dnn.Graph, Mapping, func() bool) (*MapResult, error) {
		t.Error("a checkpointed cell was re-mapped")
		return nil, ErrInfeasible
	}
	opt := testOptions()
	opt.Restarts = 2
	cands, models := testCands()[:1], []*dnn.Graph{testCNN, testTF}
	rs, st, _ := ses.RunContext(context.Background(), cands, models, opt)
	if Best(rs) == nil {
		t.Fatal("restored sweep has no feasible candidate")
	}
	if st.ResumedCells != len(cands)*len(models) || ses.CheckpointCells() != st.ResumedCells {
		t.Errorf("resumed %d of %d cells (checkpoint holds %d)", st.ResumedCells, len(cands)*len(models), ses.CheckpointCells())
	}
}

func TestSessionCheckpointVersion(t *testing.T) {
	s := NewSession()
	err := s.LoadCheckpoint(strings.NewReader(`{"version": 999, "cells": {}}`))
	if err == nil {
		t.Fatal("version mismatch not rejected")
	}
	if err := s.LoadCheckpoint(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage checkpoint not rejected")
	}
}

// TestLoadCheckpointFile: the one checkpoint-file loader reports a missing
// file as fs.ErrNotExist, quarantines a file that does not decode with its
// bytes kept, and merges a good file's cells in place.
func TestLoadCheckpointFile(t *testing.T) {
	dir := t.TempDir()

	missing := NewSession()
	if err := missing.LoadCheckpointFile(filepath.Join(dir, "none.ckpt")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: error %v, want fs.ErrNotExist", err)
	}
	if n := missing.CheckpointCells(); n != 0 {
		t.Errorf("missing file left %d cells, want 0", n)
	}

	bad := filepath.Join(dir, "bad.ckpt")
	garbage := []byte("{not a checkpoint")
	if err := os.WriteFile(bad, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := NewSession()
	if err := corrupt.LoadCheckpointFile(bad); !errors.Is(err, ErrCorruptCheckpoint) || errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt file: error %v, want ErrCorruptCheckpoint", err)
	}
	if _, err := os.Stat(bad); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt file still in place: %v", err)
	}
	if kept, err := os.ReadFile(bad + ".corrupt"); err != nil || !bytes.Equal(kept, garbage) {
		t.Errorf("quarantine kept %q (%v), want %q", kept, err, garbage)
	}
	if n := corrupt.CheckpointCells(); n != 0 {
		t.Errorf("corrupt file merged %d cells, want 0", n)
	}

	want, err := os.ReadFile("testdata/parent_pr11.ckpt.json")
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.ckpt")
	if err := os.WriteFile(good, want, 0o644); err != nil {
		t.Fatal(err)
	}
	ref := NewSession()
	if err := ref.LoadCheckpoint(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	ses := NewSession()
	if err := ses.LoadCheckpointFile(good); err != nil {
		t.Fatal(err)
	}
	if got, n := ses.CheckpointCells(), ref.CheckpointCells(); got != n || n == 0 {
		t.Errorf("good file merged %d cells, want %d (> 0)", got, n)
	}
	if _, err := os.Stat(good); err != nil {
		t.Errorf("good file moved: %v", err)
	}
}

// TestSessionErrorNotInfeasible pins the honest-error satellite: an injected
// infrastructure failure must surface as an error, never as infeasibility.
func TestSessionErrorNotInfeasible(t *testing.T) {
	boom := errors.New("injected mapper crash")
	ses := NewSession()
	ses.mapModel = func(c *cellRun, cfg *arch.Config, g *dnn.Graph, o Mapping, stop func() bool) (*MapResult, error) {
		if cfg.Name == "bad-arch" {
			return nil, boom
		}
		return mapModelEval(c, cfg, g, o, stop)
	}

	ok := arch.GArch72()
	bad := arch.GArch72()
	bad.Name = "bad-arch"
	bad.NoCBW = 33 // structurally distinct so it is not cache/cell-aliased
	rs := ses.Run([]arch.Config{bad, ok}, []*dnn.Graph{testCNN}, testOptions())

	if rs[0].Cfg.Name != ok.Name || !rs[0].Feasible {
		t.Fatalf("healthy candidate should rank first, got %s (%s)", rs[0].Cfg.Name, rs[0].Status())
	}
	er := &rs[1]
	if er.Cfg.Name != "bad-arch" {
		t.Fatalf("expected bad-arch last, got %s", er.Cfg.Name)
	}
	if er.Err == nil || !errors.Is(er.Err, boom) {
		t.Fatalf("error not threaded: %v", er.Err)
	}
	if er.Status() != "error" {
		t.Errorf("status = %q, want error", er.Status())
	}
	if er.Feasible {
		t.Error("errored candidate reported feasible")
	}
	if errs := Errors(rs); len(errs) != 1 || !errors.Is(errs[0], boom) {
		t.Errorf("Errors() = %v", errs)
	}

	var sb strings.Builder
	if err := WriteCSV(&sb, rs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "error,\"injected mapper crash\"") {
		t.Errorf("CSV does not surface the error:\n%s", sb.String())
	}
}

// TestSessionRetriesErroredCells: infrastructure errors are not settled
// outcomes, so they are never checkpointed — a resumed sweep retries them
// instead of replaying a possibly transient failure forever.
func TestSessionRetriesErroredCells(t *testing.T) {
	boom := errors.New("transient failure")
	failing := true
	flakyMap := func(c *cellRun, cfg *arch.Config, g *dnn.Graph, o Mapping, stop func() bool) (*MapResult, error) {
		if failing && cfg.Name == "flaky-arch" {
			return nil, boom
		}
		return mapModelEval(c, cfg, g, o, stop)
	}

	flaky := arch.GArch72()
	flaky.Name = "flaky-arch"
	cands := []arch.Config{flaky}
	models := []*dnn.Graph{testCNN}

	a := NewSession()
	a.mapModel = flakyMap
	rs := a.Run(cands, models, testOptions())
	if rs[0].Status() != "error" {
		t.Fatalf("first run status %q, want error", rs[0].Status())
	}
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "transient failure") {
		t.Fatalf("infrastructure error was checkpointed:\n%s", buf.String())
	}

	// The failure clears; a resumed session must re-run the cell and map it.
	failing = false
	b := NewSession()
	b.mapModel = flakyMap
	if err := b.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	rs = b.Run(cands, models, testOptions())
	if rs[0].Status() != "ok" {
		t.Fatalf("resumed run status %q, want ok (errored cell must be retried)", rs[0].Status())
	}
}

func TestInfeasibleIsNotError(t *testing.T) {
	bad := arch.GArch72()
	bad.GLBPerCore = 512 // nothing fits
	bad.Name = "bad"
	rs := NewSession().Run([]arch.Config{bad}, []*dnn.Graph{testCNN}, testOptions())
	if rs[0].Err != nil {
		t.Errorf("infeasible candidate carries error: %v", rs[0].Err)
	}
	if rs[0].Status() != "infeasible" {
		t.Errorf("status = %q, want infeasible", rs[0].Status())
	}
	if rs[0].Feasible {
		t.Error("512-byte GLB should be infeasible")
	}
}

func TestMapModelInfeasibleSentinel(t *testing.T) {
	bad := arch.GArch72()
	bad.GLBPerCore = 512
	bad.Name = "bad"
	_, err := NewSession().MapModel(&bad, testCNN, testOptions())
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible mapping error %v does not wrap ErrInfeasible", err)
	}
}

func TestSessionStreamsResults(t *testing.T) {
	cands := testCands()
	var streamed []string
	opt := testOptions()
	opt.OnResult = func(r CandidateResult) { streamed = append(streamed, r.Cfg.Name) }
	NewSession().Run(cands, []*dnn.Graph{testCNN}, opt)
	if len(streamed) != len(cands) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(cands))
	}
}

func TestSessionPruning(t *testing.T) {
	base := arch.GArch72()
	big, err := ScaleUp(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Workers = 1 // candidate 0 completes before candidate 1 starts
	opt.Prune = true
	// An MC-dominated objective makes the 4x machine's lower bound
	// hopeless against the base incumbent.
	opt.Objective = Objective{Alpha: 8, Beta: 1, Gamma: 1}

	var logged []string
	ses := NewSession()
	ses.Logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	rs := ses.Run([]arch.Config{base, big}, []*dnn.Graph{testCNN}, opt)

	if rs[0].Cfg.Name != base.Name || !rs[0].Feasible {
		t.Fatalf("base should win: %s (%s)", rs[0].Cfg.Name, rs[0].Status())
	}
	pr := &rs[1]
	if !pr.Pruned || pr.Status() != "pruned" {
		t.Fatalf("big candidate not pruned: %s (%+v)", pr.Status(), pr)
	}
	if pr.LowerBound <= rs[0].Obj {
		t.Errorf("pruned with bound %v <= best %v", pr.LowerBound, rs[0].Obj)
	}
	found := false
	for _, l := range logged {
		if strings.Contains(l, "pruned") && strings.Contains(l, big.Name) {
			found = true
		}
	}
	if !found {
		t.Errorf("pruning decision not logged: %v", logged)
	}

	var sb strings.Builder
	if err := WriteCSV(&sb, rs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pruned") {
		t.Error("CSV does not surface pruning")
	}
}

func TestPruningSoundness(t *testing.T) {
	// The bound must lie at or below the mapped outcome for a feasible pair.
	cfg := arch.GArch72()
	opt := testOptions()
	mr, err := NewSession().MapModel(&cfg, testCNN, opt)
	if err != nil {
		t.Fatal(err)
	}
	p := eval.DefaultParams()
	eLB, dLB := lowerBoundED(&cfg, computeDemand(testCNN), &p, opt)
	if eLB <= 0 || dLB <= 0 {
		t.Fatalf("degenerate bounds: e=%v d=%v", eLB, dLB)
	}
	if eLB > mr.Energy {
		t.Errorf("energy bound %v exceeds achieved %v", eLB, mr.Energy)
	}
	if dLB > mr.Delay {
		t.Errorf("delay bound %v exceeds achieved %v", dLB, mr.Delay)
	}
}

func TestPruningDisabledForNonMonotoneObjective(t *testing.T) {
	if objMonotone(Objective{Alpha: -1, Beta: 1, Gamma: 1}) {
		t.Error("negative alpha accepted as monotone")
	}
	if !objMonotone(MCED) {
		t.Error("MCED rejected")
	}
}

// TestSortTotalOrderWithNaN pins the comparator satellite: NaN and Inf
// objectives sort last deterministically, and the order is a valid strict
// weak order for any permutation.
func TestSortTotalOrderWithNaN(t *testing.T) {
	mk := func(name string, obj float64, feasible bool) CandidateResult {
		r := CandidateResult{Obj: obj, Feasible: feasible}
		r.Cfg.Name = name
		return r
	}
	nan := math.NaN()
	inf := math.Inf(1)
	base := []CandidateResult{
		mk("nan-b", nan, true),
		mk("fin-2", 2, true),
		mk("inf-a", inf, true),
		mk("nan-a", nan, true),
		mk("infeasible", inf, false),
		mk("fin-1", 1, true),
	}
	wantOrder := []string{"fin-1", "fin-2", "inf-a", "nan-a", "nan-b", "infeasible"}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		perm := make([]CandidateResult, len(base))
		for i, j := range rng.Perm(len(base)) {
			perm[i] = base[j]
		}
		sortResults(perm)
		for i, want := range wantOrder {
			if perm[i].Cfg.Name != want {
				t.Fatalf("trial %d: pos %d = %s, want %s", trial, i, perm[i].Cfg.Name, want)
			}
		}
	}

	// Irreflexivity and asymmetry spot checks with NaN present.
	for i := range base {
		if resultLess(&base[i], &base[i]) {
			t.Errorf("resultLess(%s, itself) = true", base[i].Cfg.Name)
		}
		for j := range base {
			if resultLess(&base[i], &base[j]) && resultLess(&base[j], &base[i]) {
				t.Errorf("asymmetry violated for %s, %s", base[i].Cfg.Name, base[j].Cfg.Name)
			}
		}
	}
}

// TestGeomeanLogSpace pins the underflow satellite: folding many models with
// tiny energies must not collapse the geometric mean to zero.
func TestGeomeanLogSpace(t *testing.T) {
	cfg := arch.GArch72()
	const n = 40
	per := make([]pairOutcome, n)
	models := make([]*dnn.Graph, n)
	for i := range per {
		per[i] = pairOutcome{mr: &MapResult{Energy: 1e-200, Delay: 1e-150}}
		models[i] = testCNN
	}
	// The naive running product would be (1e-200)^40 = 0 (underflow).
	res := reduceCandidate(&cfg, per, models, cost.New(), testOptions())
	if !res.Feasible {
		t.Fatal("reduce failed")
	}
	if res.Energy == 0 || res.Delay == 0 {
		t.Fatalf("geomean underflowed: E=%v D=%v", res.Energy, res.Delay)
	}
	if rel := math.Abs(res.Energy-1e-200) / 1e-200; rel > 1e-12 {
		t.Errorf("geomean energy %v, want 1e-200 (rel err %v)", res.Energy, rel)
	}
	if rel := math.Abs(res.Delay-1e-150) / 1e-150; rel > 1e-12 {
		t.Errorf("geomean delay %v, want 1e-150 (rel err %v)", res.Delay, rel)
	}
}

// TestSessionJointRunMatchesThrowawaySession: a shared session's JointRun,
// cold and warm, equals a throwaway session's.
func TestSessionJointRunMatchesThrowawaySession(t *testing.T) {
	bases := []arch.Config{arch.GArch72()}
	models := []*dnn.Graph{testCNN}
	opt := testOptions()
	want := NewSession().JointRun(bases, []int{1, 4}, models, opt)
	ses := NewSession()
	got := ses.JointRun(bases, []int{1, 4}, models, opt)
	if len(want) != len(got) {
		t.Fatalf("length %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Product != got[i].Product || want[i].Feasible != got[i].Feasible {
			t.Errorf("joint[%d]: product %v vs %v", i, want[i].Product, got[i].Product)
		}
	}
	// Warm re-run: identical again.
	again := ses.JointRun(bases, []int{1, 4}, models, opt)
	for i := range want {
		if want[i].Product != again[i].Product {
			t.Errorf("warm joint[%d]: product %v vs %v", i, want[i].Product, again[i].Product)
		}
	}
}
