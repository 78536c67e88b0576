// Tests of the server's persistence traffic: one checkpoint file and one
// history log per DataDir, startup merges of
// every checkpoint in the directory, and fleet sweeps settling cells in that
// same checkpoint, interoperating with /sweep.
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
	"slices"
	"testing"
	"time"

	"gemini/internal/dse"
	"gemini/internal/fleet"
)

// TestOneCheckpointFilePerDataDir: 300 sweeps over five seeds, and a fleet
// sweep, leave exactly two files in DataDir — the server's one checkpoint
// and its history log, one line per finished sweep — not one checkpoint or
// status record per sweep.
func TestOneCheckpointFilePerDataDir(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Config{DataDir: dir})
	const n = 300
	for i := 0; i < n; i++ {
		spec := tinySpec(fmt.Sprintf("seeded-%03d", i), 32)
		spec.Seed = int64(i%5 + 1)
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
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{historyName, checkpointName}; !slices.Equal(names, want) {
		t.Errorf("DataDir holds %v, want exactly %v", names, want)
	}
	raw, err := os.ReadFile(filepath.Join(dir, historyName))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(raw, []byte("\n")); lines != n {
		t.Errorf("history log holds %d lines, want one per sweep (%d)", lines, n)
	}
}

// TestHistoryLogTornTail: a process killed mid-append leaves the log's last
// record torn at any byte. Truncated at every offset inside its last record,
// the log restores every complete record before it; and because startup
// rewrites the log, a record appended after that restart is restored by the
// next one instead of landing behind the torn bytes. The last case runs the
// same story through real server restarts.
func TestHistoryLogTornTail(t *testing.T) {
	t0 := time.Date(2026, 9, 1, 0, 0, 0, 0, time.UTC)
	rec := func(i int) SweepStatus {
		at := t0.Add(time.Duration(i) * time.Second)
		return SweepStatus{ID: fmt.Sprintf("rec-%d", i), State: StateDone, Cells: i, Error: "x", StartedAt: at, FinishedAt: &at}
	}
	src := t.TempDir()
	w := &persister{dataDir: src, logf: t.Logf}
	for i := 1; i <= 3; i++ {
		w.record(rec(i), nil)
	}
	raw, err := os.ReadFile(filepath.Join(src, historyName))
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	for cut := last; cut < len(raw); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, historyName), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := []string{"rec-1", "rec-2"}
		if cut == len(raw)-1 { // only the newline is missing
			want = append(want, "rec-3")
		}
		p := &persister{dataDir: dir, logf: t.Logf}
		if got := sweepIDs(p.loadHistory()); !slices.Equal(got, want) {
			t.Fatalf("cut at %d: restored %v, want %v", cut, got, want)
		}
		p.record(rec(4), nil)
		want = append(want, "rec-4")
		next := &persister{dataDir: dir, logf: t.Logf}
		if got := sweepIDs(next.loadHistory()); !slices.Equal(got, want) {
			t.Fatalf("cut at %d: after an append, restored %v, want %v", cut, got, want)
		}
	}

	dir := t.TempDir()
	_, hsA := newTestServer(t, Config{DataDir: dir})
	runSweep(t, hsA.URL, tinySpec("before", 32))
	runSweep(t, hsA.URL, tinySpec("torn", 32))
	hsA.Close()
	path := filepath.Join(dir, historyName)
	if raw, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	last = bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	if err := os.WriteFile(path, raw[:(last+len(raw))/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, hsB := newTestServer(t, Config{DataDir: dir})
	if got := sweepIDs(listSweeps(t, hsB.URL)); !slices.Equal(got, []string{"before"}) {
		t.Fatalf("restart over a torn log lists %v, want [before]", got)
	}
	runSweep(t, hsB.URL, tinySpec("after", 32))
	hsB.Close()
	_, hsC := newTestServer(t, Config{DataDir: dir})
	if got := sweepIDs(listSweeps(t, hsC.URL)); !slices.Equal(got, []string{"before", "after"}) {
		t.Fatalf("second restart lists %v, want [before after]", got)
	}
}

// TestHistoryLogRewrites: the log is rewritten from the server's history,
// not appended to, once retiredSweeps lines were appended since the last
// rewrite — which bounds the file — and after a failed save, which may have
// left a torn line.
func TestHistoryLogRewrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, historyName)
	p := &persister{dataDir: dir, logf: t.Logf}
	rec := func(i int) SweepStatus { return SweepStatus{ID: fmt.Sprintf("rec-%04d", i), State: StateDone} }
	var hist []SweepStatus
	history := func() []SweepStatus { return hist[max(0, len(hist)-2):] }
	logged := func() []string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return sweepIDs(historyRecords(bytes.NewReader(raw)))
	}
	for i := 0; i <= retiredSweeps; i++ {
		hist = append(hist, rec(i))
		p.record(rec(i), history)
	}
	if got := logged(); !slices.Equal(got, sweepIDs(history())) {
		t.Fatalf("after %d appends the log restores %d records, want the rewritten %v", retiredSweeps, len(got), sweepIDs(history()))
	}

	// A directory where the log belongs fails every attempt of the next save.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	hist = append(hist, rec(retiredSweeps+1))
	p.record(rec(retiredSweeps+1), history)
	if st := p.State(); st.Errors != 1 {
		t.Fatalf("blocked save: %+v, want one failure", st)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	hist = append(hist, rec(retiredSweeps+2))
	p.record(rec(retiredSweeps+2), history)
	if got, want := logged(), sweepIDs(history()); !slices.Equal(got, want) {
		t.Fatalf("the save after a failed one left %v, want the rewritten %v", got, want)
	}
}

// FuzzStatusLog: the history decoder reads bytes from disk, so on any input
// it must not panic, and what it restores must be sweep-named, unique and
// within the history bound.
func FuzzStatusLog(f *testing.F) {
	f.Add([]byte(`{"id":"a","state":"done","started_at":"2026-09-01T00:00:00Z"}` + "\n" +
		`{"id":"b","state":"running","started_at":"2026-09-01T00:00:01Z"}` + "\n"))
	f.Add([]byte(`{"id":"a","state":"done"}{"id":"a","state":"failed","error":"x"}{"id":"../evil"}`))
	f.Add([]byte(`{"id":"torn","state":"do`))
	f.Add([]byte(`{"id":"x","stats":{"cells":1e999}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sts := historyRecords(bytes.NewReader(data), bytes.NewReader(data))
		if len(sts) > retiredSweeps {
			t.Fatalf("restored %d records, bound %d", len(sts), retiredSweeps)
		}
		seen := make(map[string]bool)
		for _, st := range sts {
			if !dse.NamePattern.MatchString(st.ID) || seen[st.ID] {
				t.Fatalf("restored id %q (seen before: %v)", st.ID, seen[st.ID])
			}
			if st.State == StateRunning || st.State == StateQueued {
				t.Fatalf("record %q restored as %s", st.ID, st.State)
			}
			seen[st.ID] = true
		}
	})
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
	if code := postFleet(t, hsA.URL, "/checkpoint", fleet.CheckpointUpload{
		SweepID: lease.SweepID, LeaseID: lease.LeaseID, Worker: "manual", Complete: true,
		Stats: &fleet.ShardStats{}, Checkpoint: ckpt.Bytes(),
	}, nil); code != http.StatusOK {
		t.Fatalf("shard 0's complete upload answered %d, want 200", code)
	}
	if st, _ := sA.fleet.Status(spec.ID); st.State != "running" || st.ShardsDone != 1 {
		t.Fatalf("after shard 0's complete upload: %+v, want one shard left", st)
	}
	hsA.Close()
	sA.Close()

	_, hsB := newTestServer(t, Config{DataDir: dir})
	if st := submitFleet(t, hsB.URL, spec); shardCells == 0 || st.CheckpointCells != shardCells {
		t.Errorf("resubmitted fleet sweep starts with %d settled cells, want shard 0's %d", st.CheckpointCells, shardCells)
	}
}
