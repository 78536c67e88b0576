// Fault-tolerance tests of the sweep service: scheduled persistence chaos,
// saver failures and degraded persistence, corrupt-checkpoint quarantine,
// handler-level panic isolation, and the /healthz fault counters.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gemini/internal/atomicfile"
	"gemini/internal/dse"
	"gemini/internal/faultinject"
)

// chaosInjector builds the canonical persistence chaos schedule: the first
// checkpoint save fails all three of its in-save attempts — the first by
// panicking inside the save, the other two with injected errors — and every
// later checkpoint save succeeds. Whether that first save is an incremental
// one or the sweep's final flush, it is the first sweep's, and it fails
// exactly once, so the schedule alone fixes the outcome: one failed save in
// the first sweep, never three in a row, so never degraded.
func chaosInjector() *faultinject.Injector {
	return faultinject.New(
		faultinject.Rule{Point: faultinject.PointCheckpointSave, Kind: faultinject.KindPanic, On: []int{0}},
		faultinject.Rule{Point: faultinject.PointCheckpointSave, Kind: faultinject.KindError, On: []int{1, 2}},
	)
}

// resultsByArch indexes a stream's result events by candidate name.
func resultsByArch(events []Event) map[string]CandidateSummary {
	out := make(map[string]CandidateSummary)
	for _, ev := range events {
		if ev.Type == "result" {
			out[ev.Result.Arch] = *ev.Result
		}
	}
	return out
}

// getHealth reads /healthz.
func getHealth(t *testing.T, url string) Health {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestChaosSweepBitIdentical: on a DataDir server whose first checkpoint
// save panics and fails, a sweep completes with results bit-identical to a
// fault-free server's, accounts for exactly the failure the schedule
// injected, and the server does not end degraded; the next sweep saves
// cleanly and a restarted server resumes every cell from the checkpoint —
// persistence faults degrade restart cost, never results.
func TestChaosSweepBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := tinySpec("chaos", 8, 16, 32, 64)
			spec.Models = []string{"tinycnn", "tinytransformer"}
			spec.Seed = seed
			_, clean := newTestServer(t, Config{})
			want := runSweep(t, clean.URL, spec)

			dataDir := t.TempDir()
			inj := chaosInjector()
			_, hs := newTestServer(t, Config{DataDir: dataDir, FaultInjector: inj})
			got := runSweep(t, hs.URL, spec)
			done := got[len(got)-1]
			if done.Type != "done" {
				t.Fatalf("chaos sweep ended with %+v", done)
			}
			if w, g := resultsByArch(want), resultsByArch(got); !reflect.DeepEqual(w, g) {
				t.Errorf("chaos results differ from the fault-free server's:\n got %+v\nwant %+v", g, w)
			}
			if wantBest := want[len(want)-1].Best; !reflect.DeepEqual(done.Best, wantBest) {
				t.Errorf("chaos best %+v, want %+v", done.Best, wantBest)
			}
			if inj.Fired(faultinject.PointCheckpointSave) != 3 {
				t.Errorf("injector fired %d times, want 3", inj.Fired(faultinject.PointCheckpointSave))
			}
			st := done.Stats
			if st.PersistenceErrors != 1 || st.PersistenceDegraded || !strings.Contains(st.LastPersistenceError, "faultinject") {
				t.Errorf("persistence errors=%d degraded=%t last=%q, want 1, false and the injected error",
					st.PersistenceErrors, st.PersistenceDegraded, st.LastPersistenceError)
			}
			// The save's panic is a persistence failure, not a cell's.
			if st.Panics != 0 {
				t.Errorf("Panics = %d, want 0", st.Panics)
			}

			next := spec
			next.ID, next.Seed = "chaos-next", seed+100
			if again := runSweep(t, hs.URL, next); again[len(again)-1].Stats.PersistenceErrors != 0 {
				t.Errorf("the second sweep's saves failed: %+v", again[len(again)-1].Stats)
			}
			h := getHealth(t, hs.URL)
			if h.Persistence.Errors != 1 || h.Persistence.Degraded || h.PersistenceDegraded {
				t.Errorf("healthz persistence %+v degraded=%t, want 1 error and not degraded", h.Persistence, h.PersistenceDegraded)
			}
			if h.Sessions[0].CheckpointCells != 2*st.Cells {
				t.Errorf("session holds %d cells, want %d", h.Sessions[0].CheckpointCells, 2*st.Cells)
			}
			hs.Close()

			_, restarted := newTestServer(t, Config{DataDir: dataDir})
			redone := runSweep(t, restarted.URL, spec)
			if st := redone[len(redone)-1].Stats; st.ResumedCells != st.Cells {
				t.Errorf("restart resumed %d of %d cells", st.ResumedCells, st.Cells)
			}
		})
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

// TestResumeAfterSaverFailures: a server whose first checkpoint save fails
// (after its bounded in-save retries) keeps serving and keeps persisting — a
// later save covers the lost one — so a restarted server resumes the sweep
// with zero settled-cell recompute. The failed save may be the sweep's own
// final flush, so a second sweep on the same server guarantees the later
// save.
func TestResumeAfterSaverFailures(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("flaky-save", 8, 16, 32, 64)

	// Count 3 = exactly the three in-save attempts of the first save
	// operation: the first checkpoint save fails outright, every later one
	// succeeds.
	inj := faultinject.New(faultinject.Rule{
		Point: faultinject.PointCheckpointSave, Kind: faultinject.KindError, Count: 3,
	})
	_, hsA := newTestServer(t, Config{DataDir: dir, FaultInjector: inj})
	events := runSweep(t, hsA.URL, spec)
	done := events[len(events)-1]
	if done.Type != "done" {
		t.Fatalf("sweep with failing saver ended with %q: %+v", done.Type, done)
	}
	if done.Stats.PersistenceErrors != 1 {
		t.Errorf("persistence_errors = %d, want 1 (one save died, the rest recovered)", done.Stats.PersistenceErrors)
	}
	if done.Stats.PersistenceDegraded {
		t.Error("a single failed save must not report degraded persistence")
	}
	if !strings.Contains(done.Stats.LastPersistenceError, "faultinject") {
		t.Errorf("last_persistence_error = %q, want the injected error", done.Stats.LastPersistenceError)
	}
	other := runSweep(t, hsA.URL, tinySpec("later", 128))
	if st := other[len(other)-1].Stats; st.PersistenceErrors != 0 {
		t.Errorf("the later sweep's saves failed: %+v", st)
	}
	hsA.Close()

	_, hsB := newTestServer(t, Config{DataDir: dir})
	second := runSweep(t, hsB.URL, spec)
	if second[0].CheckpointCells != second[0].Cells {
		t.Errorf("restart found %d of %d cells checkpointed; the surviving saves should have covered all of them",
			second[0].CheckpointCells, second[0].Cells)
	}
	redone := second[len(second)-1]
	if redone.Type != "done" || redone.Stats.ResumedCells != redone.Stats.Cells {
		t.Errorf("resumed %d of %d cells, want zero recompute: %+v",
			redone.Stats.ResumedCells, redone.Stats.Cells, redone)
	}
}

// writeSessionCheckpoint sweeps spec in a fresh dse.Session and writes its
// cells to path with Session.SaveCheckpoint — the bytes an older server's
// per-sweep or per-fleet-sweep <id>.ckpt holds.
func writeSessionCheckpoint(t *testing.T, path string, spec dse.Spec) {
	t.Helper()
	cands, err := spec.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := spec.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	ses := dse.NewSession()
	if dse.Best(ses.Run(cands, graphs, spec.Options())) == nil {
		t.Fatal("checkpointed sweep found no feasible candidate")
	}
	if err := atomicfile.Write(path, ses.SaveCheckpoint); err != nil {
		t.Fatal(err)
	}
}

// checkpointFiles lists the *.ckpt files in dir by base name.
func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return paths
}

// TestSweepSurvivesDeadPersistence: when the startup load and every
// checkpoint and status save fail, sweeps still stream to completion — they
// recompute what the unreadable checkpoint held, persistence degrades,
// /healthz says so, and the work is not lost to the client.
func TestSweepSurvivesDeadPersistence(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("doomed-saves", 8, 16, 32, 64)
	writeSessionCheckpoint(t, filepath.Join(dir, "old.ckpt"), spec)
	inj := faultinject.New(
		faultinject.Rule{Point: faultinject.PointCheckpointLoad, Kind: faultinject.KindError, Count: 1 << 20},
		faultinject.Rule{Point: faultinject.PointCheckpointSave, Kind: faultinject.KindError, Count: 1 << 20},
		faultinject.Rule{Point: faultinject.PointStatusSave, Kind: faultinject.KindError, Count: 1 << 20},
	)
	_, hs := newTestServer(t, Config{DataDir: dir, FaultInjector: inj})
	if inj.Fired(faultinject.PointCheckpointLoad) != 1 {
		t.Errorf("startup attempted %d checkpoint loads, want 1", inj.Fired(faultinject.PointCheckpointLoad))
	}
	for _, sp := range []dse.Spec{spec, tinySpec("doomed-too", 128)} {
		events := runSweep(t, hs.URL, sp)
		done := events[len(events)-1]
		if done.Type != "done" {
			t.Fatalf("sweep with dead persistence ended with %q: %+v", done.Type, done)
		}
		if done.Stats.ResumedCells != 0 {
			t.Errorf("%s restored %d cells from a checkpoint that never loaded", sp.ID, done.Stats.ResumedCells)
		}
		if done.Stats.PersistenceErrors < 1 {
			t.Errorf("%s: persistence_errors = %d, want >= 1 (the final flush)", sp.ID, done.Stats.PersistenceErrors)
		}
	}
	// The unreadable file is left alone (it is not corrupt), and no save
	// ever landed.
	if got := checkpointFiles(t, dir); !reflect.DeepEqual(got, []string{"old.ckpt"}) {
		t.Errorf("checkpoint files %v, want only the untouched old.ckpt", got)
	}

	// Two final flushes and two status saves have failed by now — four or
	// more consecutive failures — so the server must report degradation.
	h := getHealth(t, hs.URL)
	if !h.PersistenceDegraded || !h.Persistence.Degraded {
		t.Errorf("healthz does not report degraded persistence: %+v", h.Persistence)
	}
	if h.Persistence.Errors < 4 || h.Persistence.LastError == "" {
		t.Errorf("healthz persistence accounting: %+v", h.Persistence)
	}
}

// TestCorruptCheckpointQuarantined: a damaged checkpoint file in DataDir
// must not fail startup or the sweeps — the startup load moves it aside to
// <name>.corrupt, still merges its healthy neighbours, the sweep runs cold,
// and the final flush writes a fresh checkpoint a restart resumes from.
func TestCorruptCheckpointQuarantined(t *testing.T) {
	dir := t.TempDir()
	const id = "damaged"
	garbage := []byte("{this is not a checkpoint")
	if err := os.WriteFile(filepath.Join(dir, id+".ckpt"), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	healthy := tinySpec("healthy", 16)
	writeSessionCheckpoint(t, filepath.Join(dir, "healthy.ckpt"), healthy)

	_, hs := newTestServer(t, Config{DataDir: dir})
	kept, err := os.ReadFile(filepath.Join(dir, id+".ckpt.corrupt"))
	if err != nil {
		t.Fatalf("startup did not quarantine the damaged file: %v", err)
	}
	if !bytes.Equal(kept, garbage) {
		t.Error("quarantine did not preserve the damaged bytes")
	}
	if got := checkpointFiles(t, dir); !reflect.DeepEqual(got, []string{"healthy.ckpt"}) {
		t.Errorf("checkpoint files after startup %v, want only healthy.ckpt", got)
	}
	if ev := runSweep(t, hs.URL, healthy); ev[len(ev)-1].Stats.ResumedCells != 1 {
		t.Errorf("the healthy neighbour's cell was not merged: %+v", ev[len(ev)-1].Stats)
	}
	events := runSweep(t, hs.URL, tinySpec(id, 32, 64))
	if events[0].CheckpointCells != 0 {
		t.Errorf("start reports %d checkpoint cells from a corrupt file, want 0", events[0].CheckpointCells)
	}
	done := events[len(events)-1]
	if done.Type != "done" || done.Stats.ResumedCells != 0 {
		t.Fatalf("corrupt-checkpoint sweep: %+v", done)
	}
	hs.Close()

	// The fresh checkpoint is valid: a restart resumes from it.
	_, hsB := newTestServer(t, Config{DataDir: dir})
	second := runSweep(t, hsB.URL, tinySpec(id, 32, 64))
	redone := second[len(second)-1]
	if redone.Type != "done" || redone.Stats.ResumedCells != redone.Stats.Cells {
		t.Errorf("fresh checkpoint after quarantine did not resume: %+v", redone)
	}
}

// bombWriter is a ResponseWriter whose Nth write panics — a stand-in for a
// streaming-layer bug — and which records every other write.
type bombWriter struct {
	header http.Header
	bombAt int

	mu     sync.Mutex
	writes int
	buf    bytes.Buffer
}

func (b *bombWriter) Header() http.Header { return b.header }
func (b *bombWriter) WriteHeader(int)     {}
func (b *bombWriter) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.writes++
	if b.writes == b.bombAt {
		panic("injected stream bug")
	}
	return b.buf.Write(p)
}

func (b *bombWriter) lines(t *testing.T) []Event {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var events []Event
	for _, line := range strings.Split(strings.TrimSpace(b.buf.String()), "\n") {
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return events
}

// TestHandlerPanicEmitsTerminalErrorEvent pins the terminal backstop: a
// panic in the handler itself (here: the very first stream write) must end
// the stream with a typed error event and mark the sweep failed — never
// crash the server.
func TestHandlerPanicEmitsTerminalErrorEvent(t *testing.T) {
	s := New(Config{Logf: t.Logf})
	defer s.Close()
	body, err := json.Marshal(tinySpec("boom-handler", 32))
	if err != nil {
		t.Fatal(err)
	}
	w := &bombWriter{header: make(http.Header), bombAt: 1}
	s.handleSweep(w, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))

	events := w.lines(t)
	if len(events) != 1 || events[0].Type != "error" {
		t.Fatalf("stream after handler panic: %+v", events)
	}
	if !strings.Contains(events[0].Error, "panicked") {
		t.Errorf("error event text %q does not mention the panic", events[0].Error)
	}
	sw, ok := s.lookup("boom-handler")
	if !ok || sw.status().State != StateFailed {
		t.Errorf("sweep state after handler panic: found=%t %+v", ok, sw)
	}
	// The server is still alive and serving.
	hs := httptest.NewServer(s)
	defer hs.Close()
	after := runSweep(t, hs.URL, tinySpec("after-boom", 32))
	if after[len(after)-1].Type != "done" {
		t.Errorf("server did not survive the handler panic: %+v", after[len(after)-1])
	}
}

// sweepWithResultPanic runs a two-candidate, one-worker sweep on s whose
// first result event's stream write panics, and returns the events that
// made it out. Write 1 is the start event; write 2 is the first result
// event, sent from inside the scheduler's OnResult callback. A panic that
// leaves the scheduler's OnResult lock held deadlocks the next result, so the
// sweep gets 30s to finish before the helper fails.
func sweepWithResultPanic(t *testing.T, s *Server, id string) []Event {
	t.Helper()
	spec := tinySpec(id, 32, 64)
	spec.Workers = 1
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := &bombWriter{header: make(http.Header), bombAt: 2}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		s.handleSweep(w, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep hung after a panic in OnResult: the OnResult lock was left held")
	}
	events := w.lines(t)
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	return events
}

// TestWorkerPanicLosesOneCandidateNotTheSweep: a panic while finishing one
// candidate (here: its result event's stream write) is recovered at the
// worker level — the sweep completes, the panic is counted, and the done
// event still arrives.
func TestWorkerPanicLosesOneCandidateNotTheSweep(t *testing.T) {
	s := New(Config{Logf: t.Logf})
	defer s.Close()
	events := sweepWithResultPanic(t, s, "boom-result")
	done := events[len(events)-1]
	if done.Type != "done" {
		t.Fatalf("sweep with a panicking result write ended with %q: %+v", done.Type, done)
	}
	if done.Stats == nil || done.Stats.Panics < 1 {
		t.Errorf("recovered worker panic not counted: %+v", done.Stats)
	}
	if done.Stats.LastPanic == "" || !strings.Contains(done.Stats.LastPanic, "injected stream bug") {
		t.Errorf("last_panic = %q", done.Stats.LastPanic)
	}
}

// TestHealthzFaultCounters: a real recovered panic — the result write above,
// nothing injected through faultinject — shows up on /healthz as a lifetime
// fault count once its sweep finishes.
func TestHealthzFaultCounters(t *testing.T) {
	s := New(Config{Logf: t.Logf})
	defer s.Close()
	events := sweepWithResultPanic(t, s, "boom-healthz")
	if done := events[len(events)-1]; done.Type != "done" || done.Stats == nil || done.Stats.Panics != 1 {
		t.Fatalf("sweep ended with %+v, want done with one recovered panic", done)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h Health
	if err := json.NewDecoder(rec.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Faults.Panics != 1 {
		t.Errorf("healthz faults: %+v, want 1 panic", h.Faults)
	}
	if h.PersistenceDegraded {
		t.Error("healthy server reports degraded persistence")
	}
}
