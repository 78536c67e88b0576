// Fault-tolerance tests of the sweep service: saver failures and degraded
// persistence, corrupt-checkpoint quarantine, handler-level panic isolation,
// and the /healthz fault counters.
package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gemini/internal/faultinject"
)

// TestResumeAfterSaverFailures pins the satellite acceptance criterion: a
// sweep whose first checkpoint save fails (after its bounded in-save
// retries) still completes and still persists — a later save covers the
// tail — so a restarted server resumes it with zero settled-cell recompute.
func TestResumeAfterSaverFailures(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("flaky-save", 8, 16, 32, 64)

	// Count 3 = exactly the three in-save attempts of the first save
	// operation: the first checkpoint save fails outright, every later one
	// succeeds.
	inj := faultinject.New(1, faultinject.Rule{
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

// TestSweepSurvivesDeadPersistence: when every checkpoint and status save
// fails, the sweep still streams to completion — persistence degrades,
// /healthz says so, the work is not lost to the client.
func TestSweepSurvivesDeadPersistence(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(1,
		faultinject.Rule{Point: faultinject.PointCheckpointSave, Kind: faultinject.KindError, Count: 1 << 20},
		faultinject.Rule{Point: faultinject.PointStatusSave, Kind: faultinject.KindError, Count: 1 << 20},
	)
	_, hs := newTestServer(t, Config{DataDir: dir, FaultInjector: inj})
	events := runSweep(t, hs.URL, tinySpec("doomed-saves", 8, 16, 32, 64))
	done := events[len(events)-1]
	if done.Type != "done" {
		t.Fatalf("sweep with dead persistence ended with %q: %+v", done.Type, done)
	}
	if done.Stats.PersistenceErrors < 2 {
		t.Errorf("persistence_errors = %d, want >= 2 (incremental + final)", done.Stats.PersistenceErrors)
	}
	if _, err := os.Stat(filepath.Join(dir, "doomed-saves.ckpt")); !os.IsNotExist(err) {
		t.Errorf("checkpoint file exists despite every save failing (stat err %v)", err)
	}

	// By now checkpoint saves and the status save have all failed — three or
	// more consecutive failures — so the server must report degradation.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.PersistenceDegraded || !h.Persistence.Degraded {
		t.Errorf("healthz does not report degraded persistence: %+v", h.Persistence)
	}
	if h.Persistence.Errors < 3 || h.Persistence.LastError == "" {
		t.Errorf("healthz persistence accounting: %+v", h.Persistence)
	}
}

// TestCorruptCheckpointQuarantined: a damaged checkpoint file must not fail
// the sweep — it is moved aside to <name>.corrupt, the sweep resumes cold,
// and the completion save writes a fresh valid checkpoint.
func TestCorruptCheckpointQuarantined(t *testing.T) {
	dir := t.TempDir()
	const id = "damaged"
	garbage := []byte("{this is not a checkpoint")
	if err := os.WriteFile(filepath.Join(dir, id+".ckpt"), garbage, 0o644); err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{DataDir: dir})
	events := runSweep(t, hs.URL, tinySpec(id, 32, 64))
	if events[0].CheckpointCells != 0 {
		t.Errorf("start reports %d checkpoint cells from a corrupt file, want 0", events[0].CheckpointCells)
	}
	done := events[len(events)-1]
	if done.Type != "done" || done.Stats.ResumedCells != 0 {
		t.Fatalf("corrupt-checkpoint sweep: %+v", done)
	}

	kept, err := os.ReadFile(filepath.Join(dir, id+".ckpt.corrupt"))
	if err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if !bytes.Equal(kept, garbage) {
		t.Error("quarantine did not preserve the damaged bytes")
	}
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
	if !ok || sw.stateNow() != StateFailed {
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
// event, sent from inside the scheduler's OnResult callback.
func sweepWithResultPanic(t *testing.T, s *Server, id string) []Event {
	t.Helper()
	spec := tinySpec(id, 32, 64)
	spec.Workers = 1
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := &bombWriter{header: make(http.Header), bombAt: 2}
	s.handleSweep(w, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
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
