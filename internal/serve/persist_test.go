// Tests of the server's persistence traffic: one checkpoint file per
// DataDir, one cache spill per sweep, startup merges of every checkpoint in
// the directory, and the fleet's per-id checkpoints interoperating with
// /sweep.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"gemini/internal/dse"
	"gemini/internal/fleet"
)

// TestOneCheckpointFilePerDataDir: sweeps with distinct seeds share the
// server's one checkpoint file, so N sweeps leave one *.ckpt next to their
// N status records — not one checkpoint per sweep, each repeating the cells
// of every sweep before it.
func TestOneCheckpointFilePerDataDir(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Config{DataDir: dir})
	const n = 5
	for i := 0; i < n; i++ {
		spec := tinySpec(fmt.Sprintf("seeded-%d", i), 32)
		spec.Seed = int64(i + 1)
		if ev := runSweep(t, hs.URL, spec); ev[len(ev)-1].Type != "done" {
			t.Fatalf("sweep %d: %+v", i, ev[len(ev)-1])
		}
	}
	hs.Close()
	s.Close() // waits out the saver, so no save is in flight below

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts, statuses int
	for _, e := range entries {
		switch name := e.Name(); {
		case name == checkpointName:
			ckpts++
		case filepath.Ext(name) == ".json":
			statuses++
		default:
			t.Errorf("unexpected file %s in DataDir", name)
		}
	}
	if ckpts != 1 || statuses != n {
		t.Errorf("DataDir holds %d checkpoints and %d status records, want 1 and %d", ckpts, statuses, n)
	}
}

// TestCacheSpillOncePerSweep: a CacheDir sweep rewrites the spill exactly
// once, at its final flush — never per streamed candidate.
func TestCacheSpillOncePerSweep(t *testing.T) {
	dir := t.TempDir()
	_, hs := newTestServer(t, Config{CacheDir: dir})
	before := getHealth(t, hs.URL).Sessions[0].CacheDiskSaves
	runSweep(t, hs.URL, tinySpec("spilled", 8, 16, 32, 64))
	if got := getHealth(t, hs.URL).Sessions[0].CacheDiskSaves - before; got != 1 {
		t.Errorf("one sweep raised cache_disk_saves by %d, want 1", got)
	}
	if _, err := os.Stat(dse.CachePath(dir)); err != nil {
		t.Errorf("no spill after the sweep: %v", err)
	}
}

// TestParentCheckpointResumesUnderNewID: a DataDir holding a per-sweep
// checkpoint an older server wrote (Session.SaveCheckpoint bytes under
// <id>.ckpt) is merged at startup, so a sweep of the same spec under a new
// id restores every cell.
func TestParentCheckpointResumesUnderNewID(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("old", 8, 16, 32, 64)
	writeSessionCheckpoint(t, filepath.Join(dir, "old.ckpt"), spec)

	_, hs := newTestServer(t, Config{DataDir: dir})
	spec.ID = "brand-new"
	events := runSweep(t, hs.URL, spec)
	done := events[len(events)-1]
	if events[0].CheckpointCells != events[0].Cells || done.Type != "done" || done.Stats.ResumedCells != done.Stats.Cells {
		t.Errorf("new id resumed %d of %d cells (start reported %d)", done.Stats.ResumedCells, done.Stats.Cells, events[0].CheckpointCells)
	}
	if _, err := os.Stat(filepath.Join(dir, "old.ckpt")); err != nil {
		t.Errorf("the legacy checkpoint was not kept: %v", err)
	}
}

// runFleetSweep submits spec as a two-shard fleet sweep on s, drains it
// with one in-process worker and returns the coordinator's final status
// together with the status it reported at submit time.
func runFleetSweep(t *testing.T, s *Server, url string, spec dse.Spec) (submitted, final fleet.SweepStatus) {
	t.Helper()
	body, err := json.Marshal(fleet.SubmitRequest{Spec: spec, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/fleet/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("fleet submit: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	if err := fleet.RunWorker(context.Background(), fleet.WorkerConfig{
		Coordinator: url + "/fleet", Name: "w", ExitWhenIdle: true, Logf: t.Logf,
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	final, ok := s.fleet.Status(spec.ID)
	if !ok || final.State != "done" {
		t.Fatalf("fleet sweep %s not done: %+v", spec.ID, final)
	}
	return submitted, final
}

// TestFleetAndSweepResumeEachOther pins the contract between the two
// submission surfaces under one id, in both directions and across a
// restart: a fleet sweep continues a /sweep's settled cells, and a /sweep
// continues a fleet sweep's — on the same server and on its successor.
func TestFleetAndSweepResumeEachOther(t *testing.T) {
	t.Run("sweep then fleet", func(t *testing.T) {
		dir := t.TempDir()
		spec := tinySpec("shared", 8, 16, 32, 64)
		_, hsA := newTestServer(t, Config{DataDir: dir})
		runSweep(t, hsA.URL, spec)
		hsA.Close()

		sB, hsB := newTestServer(t, Config{DataDir: dir})
		submitted, final := runFleetSweep(t, sB, hsB.URL, spec)
		if submitted.CheckpointCells != submitted.Cells {
			t.Errorf("fleet sweep started with %d of %d cells settled", submitted.CheckpointCells, submitted.Cells)
		}
		if final.Stats.ResumedCells != final.Cells || final.Stats.RecomputedSettledCells != 0 {
			t.Errorf("fleet sweep resumed %d of %d cells: %+v", final.Stats.ResumedCells, final.Cells, final.Stats)
		}
	})
	t.Run("fleet then sweep", func(t *testing.T) {
		dir := t.TempDir()
		spec := tinySpec("fleet-first", 8, 16, 32, 64)
		sA, hsA := newTestServer(t, Config{DataDir: dir})
		runFleetSweep(t, sA, hsA.URL, spec)
		if _, err := os.Stat(filepath.Join(dir, spec.ID+".ckpt")); err != nil {
			t.Errorf("fleet sweep wrote no checkpoint: %v", err)
		}
		check := func(url, when string) {
			t.Helper()
			ev := runSweep(t, url, spec)
			if st := ev[len(ev)-1].Stats; st.ResumedCells != st.Cells {
				t.Errorf("/sweep %s resumed %d of %d of the fleet's cells", when, st.ResumedCells, st.Cells)
			}
		}
		check(hsA.URL, "on the same server")
		hsA.Close()
		_, hsB := newTestServer(t, Config{DataDir: dir})
		check(hsB.URL, "after a restart")
	})
}
