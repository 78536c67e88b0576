// Tests of the server's persistence traffic: one checkpoint file per
// DataDir, one cache spill per sweep, startup merges of every checkpoint in
// the directory, and fleet sweeps settling cells in that same checkpoint,
// interoperating with /sweep.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gemini/internal/dse"
	"gemini/internal/fleet"
)

// TestOneCheckpointFilePerDataDir: sweeps with distinct seeds, and a fleet
// sweep, share the server's one checkpoint file, so N sweeps leave one
// *.ckpt next to their N status records — not one checkpoint per sweep,
// each repeating the cells of every sweep before it.
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
	runFleetSweep(t, s, hs.URL, tinySpec("fleet-seeded", 8, 16))
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

// postFleet posts in as JSON to the server's fleet endpoint path, decodes
// a 2xx answer into out (when non-nil) and returns the status code.
func postFleet(t *testing.T, url, path string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/fleet"+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// submitFleet submits spec as a two-shard fleet sweep and returns the
// status the coordinator reported at submit time.
func submitFleet(t *testing.T, url string, spec dse.Spec) (submitted fleet.SweepStatus) {
	t.Helper()
	if code := postFleet(t, url, "/sweeps", fleet.SubmitRequest{Spec: spec, Shards: 2}, &submitted); code != http.StatusCreated {
		t.Fatalf("fleet submit: %d", code)
	}
	return submitted
}

// runFleetSweep submits spec as a two-shard fleet sweep on s, drains it
// with one in-process worker and returns the coordinator's final status
// together with the status it reported at submit time.
func runFleetSweep(t *testing.T, s *Server, url string, spec dse.Spec) (submitted, final fleet.SweepStatus) {
	t.Helper()
	submitted = submitFleet(t, url, spec)
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
		if got := checkpointFiles(t, dir); !reflect.DeepEqual(got, []string{checkpointName}) {
			t.Errorf("checkpoint files after the fleet sweep %v, want only %s", got, checkpointName)
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

// TestFleetCellsSurviveRestart: a fleet sweep's uploaded cells reach the
// server's checkpoint while the sweep still runs, so after a restart the
// resubmitted sweep starts with its finished shard's cells settled.
func TestFleetCellsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("half-done", 8, 16, 32, 64)
	sA, hsA := newTestServer(t, Config{DataDir: dir})
	submitFleet(t, hsA.URL, spec)

	// Complete shard 0 of 2 by hand, under the sweep's own options.
	var lease fleet.Lease
	if code := postFleet(t, hsA.URL, "/lease", fleet.LeaseRequest{Worker: "manual"}, &lease); code != http.StatusOK {
		t.Fatalf("lease answered %d", code)
	}
	all, err := lease.Spec.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := lease.Spec.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	ses := dse.NewSession()
	for _, k := range lease.Candidates {
		if _, _, err := ses.RunContext(context.Background(), all[k:k+1], graphs, lease.Spec.Options()); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	if err := ses.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	shardCells := ses.CheckpointCells()
	var resp fleet.CheckpointResponse
	if code := postFleet(t, hsA.URL, "/checkpoint", fleet.CheckpointUpload{
		SweepID: lease.SweepID, LeaseID: lease.LeaseID, Worker: "manual", Complete: true,
		Stats: &fleet.ShardStats{Candidates: len(lease.Candidates), Cells: shardCells}, Checkpoint: ckpt.Bytes(),
	}, &resp); code != http.StatusOK || resp.SweepDone {
		t.Fatalf("shard 0's complete upload answered %d (sweep done %t), want 200 with one shard left", code, resp.SweepDone)
	}
	hsA.Close()
	sA.Close()

	_, hsB := newTestServer(t, Config{DataDir: dir})
	if st := submitFleet(t, hsB.URL, spec); shardCells == 0 || st.CheckpointCells != shardCells {
		t.Errorf("resubmitted fleet sweep starts with %d settled cells, want shard 0's %d", st.CheckpointCells, shardCells)
	}
}
