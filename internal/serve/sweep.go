// Sweep execution: one POST /sweep request's lifecycle. The handler
// resolves the spec, registers the sweep, waits for the queue, and streams
// typed NDJSON events while dse.Session.RunContext walks the grid on the
// server's session, which already holds every cell the DataDir's
// checkpoints settled. The sweep computes; it asks the server's persister
// for a checkpoint save per streamed candidate and flushes it before it
// parks on preemption and before its terminal event.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"gemini/internal/atomicfile"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/faultinject"
)

// SweepState is the lifecycle state of a sweep.
type SweepState string

// Sweep lifecycle states.
const (
	// StateQueued marks a sweep admitted by the queue but not yet holding
	// worker slots — waiting for dispatch, or parked mid-run by a
	// preemption.
	StateQueued SweepState = "queued"
	// StateRunning marks a sweep whose grid is still being walked.
	StateRunning SweepState = "running"
	// StateDone marks a sweep whose every candidate settled.
	StateDone SweepState = "done"
	// StateCanceled marks a sweep stopped early (client disconnect,
	// DELETE /sweeps/{id}, or server shutdown); its checkpoint survives.
	StateCanceled SweepState = "canceled"
	// StateFailed marks a sweep that died of an infrastructure error.
	StateFailed SweepState = "failed"
)

// CandidateSummary is the JSON shape of one candidate's outcome, used in
// result events, done events and sweep statuses. Objective-class numbers
// are omitted rather than sent as +Inf (which JSON cannot carry) when the
// candidate is not feasible.
type CandidateSummary struct {
	// Arch is the candidate's configuration name.
	Arch string `json:"arch"`
	// Chiplets and Cores describe the candidate's partitioning.
	Chiplets int `json:"chiplets"`
	// Cores is the candidate's total core count.
	Cores int `json:"cores"`
	// Status is "ok", "infeasible", "pruned" or "error".
	Status string `json:"status"`
	// Objective is MC^alpha * E^beta * D^gamma (feasible candidates only).
	Objective float64 `json:"objective,omitempty"`
	// MCUSD is the candidate's monetary cost in dollars.
	MCUSD float64 `json:"mc_usd,omitempty"`
	// EnergyJ is the geometric-mean mapping energy (feasible only).
	EnergyJ float64 `json:"energy_j,omitempty"`
	// DelayS is the geometric-mean mapping delay (feasible only).
	DelayS float64 `json:"delay_s,omitempty"`
	// EDP is EnergyJ * DelayS (feasible only).
	EDP float64 `json:"edp,omitempty"`
	// LowerBound is the objective bound that justified a prune (pruned
	// candidates only).
	LowerBound float64 `json:"lower_bound,omitempty"`
	// Error carries the infrastructure error (errored candidates only).
	Error string `json:"error,omitempty"`
}

// finite returns v when it is a real number, else 0 so the field is omitted
// from JSON instead of breaking the encoder.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

// summarize converts a dse.CandidateResult to its wire shape.
func summarize(r *dse.CandidateResult) *CandidateSummary {
	cs := &CandidateSummary{
		Arch:       r.Cfg.Name,
		Chiplets:   r.Cfg.Chiplets(),
		Cores:      r.Cfg.Cores(),
		Status:     r.Status(),
		MCUSD:      finite(r.MC.Total()),
		LowerBound: finite(r.LowerBound),
	}
	if r.Feasible {
		cs.Objective = finite(r.Obj)
		cs.EnergyJ = finite(r.Energy)
		cs.DelayS = finite(r.Delay)
		cs.EDP = finite(r.EDP())
	}
	if r.Err != nil {
		cs.Error = r.Err.Error()
	}
	return cs
}

// StatsSummary is the JSON shape of dse.SweepStats (which itself is not
// JSON-safe: an unseeded incumbent is +Inf).
type StatsSummary struct {
	// Candidates and Cells size the sweep grid.
	Candidates int `json:"candidates"`
	// Cells is the total (candidate, model) cell count.
	Cells int `json:"cells"`
	// Canceled reports an early stop; unfinished cells were not run.
	Canceled bool `json:"canceled,omitempty"`
	// ResumedCells counts cells served from the server-side checkpoint.
	ResumedCells int `json:"resumed_cells"`
	// PrunedCandidates counts candidates the bound gate skipped.
	PrunedCandidates int `json:"pruned_candidates"`
	// AbandonedRestarts counts SA restarts cut off by the live incumbent.
	AbandonedRestarts int `json:"abandoned_restarts"`
	// SeededIncumbent is the incumbent restored from the checkpoint before
	// the first task (omitted when nothing seeded).
	SeededIncumbent float64 `json:"seeded_incumbent,omitempty"`
	// Trajectory records every incumbent improvement in order.
	Trajectory []TrajectoryStep `json:"trajectory,omitempty"`
	// Panics counts recovered panics (each failed its cell, not the server).
	Panics int `json:"panics,omitempty"`
	// DeadlineExceeded is always 0 and never on the wire: cells have no
	// deadline any more. It stays only because the benchmark harness
	// (bench/) still reads it; drop it when that read goes.
	DeadlineExceeded int `json:"-"`
	// LastPanic is the most recent recovered panic's message and stack.
	LastPanic string `json:"last_panic,omitempty"`
	// PersistenceErrors counts the server's failed saves while the sweep ran
	// (checkpoint, status and cache spill, concurrent sweeps' included); the
	// sweep itself kept running.
	PersistenceErrors int `json:"persistence_errors,omitempty"`
	// PersistenceDegraded reports the server's persistence ended the sweep
	// degraded; LastPersistenceError is the most recent failure.
	PersistenceDegraded  bool   `json:"persistence_degraded,omitempty"`
	LastPersistenceError string `json:"last_persistence_error,omitempty"`
}

// TrajectoryStep is one incumbent improvement in a StatsSummary.
type TrajectoryStep struct {
	// Candidate is the improving candidate ("(checkpoint seed)" for the
	// restored initial value).
	Candidate string `json:"candidate"`
	// Objective is the improved incumbent value.
	Objective float64 `json:"objective"`
}

// summarizeStats converts dse.SweepStats to its wire shape.
func summarizeStats(st dse.SweepStats) *StatsSummary {
	out := &StatsSummary{
		Candidates:        st.Candidates,
		Cells:             st.Cells,
		Canceled:          st.Canceled,
		ResumedCells:      st.ResumedCells,
		PrunedCandidates:  st.PrunedCandidates,
		AbandonedRestarts: st.AbandonedRestarts,
		SeededIncumbent:   finite(st.SeededIncumbent),

		Panics:    st.Panics,
		LastPanic: st.LastPanic,
	}
	for _, step := range st.Trajectory {
		out.Trajectory = append(out.Trajectory, TrajectoryStep{Candidate: step.Candidate, Objective: finite(step.Obj)})
	}
	return out
}

// Event is one NDJSON line of a POST /sweep (or GET /sweeps/{id}/stream)
// response stream.
type Event struct {
	// Type is "queued", "start", "result", "preempted", "resumed", "done"
	// or "error".
	Type string `json:"type"`
	// Tenant and Priority identify the sweep's queue identity (queued,
	// preempted and resumed events).
	Tenant string `json:"tenant,omitempty"`
	// Priority is the sweep's class, "interactive" or "batch" (queued,
	// preempted and resumed events).
	Priority string `json:"priority,omitempty"`
	// Position is the server-wide waiting count at admission, 1-based
	// (queued events).
	Position int `json:"position,omitempty"`
	// SweepID names the sweep (every event carries it, so streams can be
	// demultiplexed by tooling that merges them).
	SweepID string `json:"sweep_id"`
	// Seq is the 1-based completion index of a result event.
	Seq int `json:"seq,omitempty"`
	// Candidates, Cells and Models describe the grid (start events).
	Candidates int `json:"candidates,omitempty"`
	// Cells is the (candidate, model) grid size (start events).
	Cells int `json:"cells,omitempty"`
	// Models lists the workloads (start events).
	Models []string `json:"models,omitempty"`
	// CheckpointCells is how many of this sweep's own (candidate, model)
	// cells were already settled — and will be restored, not recomputed —
	// when it started (start events; > 0 means the sweep is resuming). On
	// preempted and resumed events it is the settled-cell count carried
	// across the preemption: resume restores exactly these for free.
	// Cells of unrelated sweeps sharing the session are not counted.
	CheckpointCells int `json:"checkpoint_cells,omitempty"`
	// Result is the candidate outcome (result events).
	Result *CandidateSummary `json:"result,omitempty"`
	// Best is the winning candidate (done events, when any is feasible).
	Best *CandidateSummary `json:"best,omitempty"`
	// Stats is the sweep's scheduler accounting (done events).
	Stats *StatsSummary `json:"stats,omitempty"`
	// ElapsedMS is the sweep wall time (done events).
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// Error explains an error event (spec rejected mid-flight, sweep
	// canceled, infrastructure failure).
	Error string `json:"error,omitempty"`
}

// SweepStatus is the GET /sweeps/{id} body: a point-in-time view of one
// sweep's progress.
type SweepStatus struct {
	// ID names the sweep.
	ID string `json:"id"`
	// State is the sweep's lifecycle state.
	State SweepState `json:"state"`
	// Tenant is the sweep's queue tenant ("default" when the spec named
	// none; empty on records persisted before tenancy existed).
	Tenant string `json:"tenant,omitempty"`
	// Priority is the sweep's queue class, "interactive" or "batch".
	Priority string `json:"priority,omitempty"`
	// Preemptions counts how many times the queue preempted this sweep.
	Preemptions int `json:"preemptions,omitempty"`
	// Candidates and Cells size the grid.
	Candidates int `json:"candidates"`
	// Cells is the (candidate, model) grid size.
	Cells int `json:"cells"`
	// DoneCandidates counts candidates whose outcome has streamed.
	DoneCandidates int `json:"done_candidates"`
	// Best is the best feasible candidate streamed so far.
	Best *CandidateSummary `json:"best,omitempty"`
	// Trajectory is the live incumbent trajectory: every improvement of
	// Best streamed so far, in order. Unlike Stats.Trajectory (which is
	// only available once the sweep finishes), it is populated while the
	// sweep is still running.
	Trajectory []TrajectoryStep `json:"trajectory,omitempty"`
	// Stats is the final scheduler accounting (finished sweeps only).
	Stats *StatsSummary `json:"stats,omitempty"`
	// Error is the sweep-level failure (canceled or failed sweeps).
	Error string `json:"error,omitempty"`
	// StartedAt is when the sweep registered.
	StartedAt time.Time `json:"started_at"`
	// FinishedAt is when the sweep left StateRunning (finished sweeps).
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// sweep is the server-side record of one sweep.
type sweep struct {
	id       string
	server   *Server
	cancel   context.CancelFunc
	tenant   string
	priority dse.SweepPriority
	// log is the sweep's bounded event history, replayed by
	// GET /sweeps/{id}/stream.
	log *eventLog

	mu       sync.Mutex
	state    SweepState
	cands    int
	cells    int
	done     int
	preempts int
	best     *CandidateSummary
	traj     []TrajectoryStep
	stats    *StatsSummary
	err      string
	started  time.Time
	finished time.Time
}

// stateNow reads just the lifecycle state — cheap enough for the server's
// registration path, which runs under the server-wide mutex.
func (sw *sweep) stateNow() SweepState {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.state
}

// active reports the sweep still owns its id: queued or running. Only
// inactive records may be superseded by a re-POST or evicted.
func (sw *sweep) active() bool {
	st := sw.stateNow()
	return st == StateRunning || st == StateQueued
}

// markRunning flips the sweep to running (initial dispatch and every
// post-preemption resume).
func (sw *sweep) markRunning() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.state = StateRunning
}

// notePreempted parks the sweep back in the queued state and counts the
// preemption.
func (sw *sweep) notePreempted() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.state = StateQueued
	sw.preempts++
}

// status snapshots the sweep.
func (sw *sweep) status() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := SweepStatus{
		ID:             sw.id,
		State:          sw.state,
		Tenant:         sw.tenant,
		Priority:       string(sw.priority),
		Preemptions:    sw.preempts,
		Candidates:     sw.cands,
		Cells:          sw.cells,
		DoneCandidates: sw.done,
		Best:           sw.best,
		Trajectory:     append([]TrajectoryStep(nil), sw.traj...),
		Stats:          sw.stats,
		Error:          sw.err,
		StartedAt:      sw.started,
	}
	if !sw.finished.IsZero() {
		f := sw.finished
		st.FinishedAt = &f
	}
	return st
}

// noteResult folds one streamed candidate into the live progress view,
// extending the live incumbent trajectory on every improvement.
func (sw *sweep) noteResult(cs *CandidateSummary) {
	sw.mu.Lock()
	sw.done++
	if cs.Status == "ok" && (sw.best == nil || cs.Objective < sw.best.Objective) {
		sw.best = cs
		sw.traj = append(sw.traj, TrajectoryStep{Candidate: cs.Arch, Objective: cs.Objective})
	}
	sw.mu.Unlock()
}

// finish settles the sweep's final state.
func (sw *sweep) finish(state SweepState, stats *StatsSummary, best *CandidateSummary, errText string) {
	sw.mu.Lock()
	sw.state = state
	sw.stats = stats
	if best != nil {
		sw.best = best
	}
	sw.err = errText
	sw.finished = time.Now()
	sw.mu.Unlock()
}

// newSweepID generates a server-assigned sweep id.
func newSweepID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to
		// a time-derived id rather than crash the handler.
		return fmt.Sprintf("sweep-%d", time.Now().UnixNano())
	}
	return "sweep-" + hex.EncodeToString(b[:])
}

// streamWriter serializes NDJSON events onto a response, flushing per line
// and going quiet (rather than erroring the sweep) once the client is gone.
type streamWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flush   func()
	enc     *json.Encoder
	stopped bool
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	sw := &streamWriter{w: w, enc: json.NewEncoder(w), flush: func() {}}
	if f, ok := w.(http.Flusher); ok {
		sw.flush = f.Flush
	}
	return sw
}

func (sw *streamWriter) send(ev Event) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.stopped {
		return
	}
	if err := sw.enc.Encode(ev); err != nil {
		sw.stopped = true
		return
	}
	sw.flush()
}

// --- status persistence --------------------------------------------------

// statusPath maps a sweep id to its on-disk status record, or "" when
// persistence is disabled. Status records live next to the checkpoint so
// GET /sweeps survives a server restart with the same history a live server
// would report.
func (s *Server) statusPath(id string) string {
	if s.cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.DataDir, id+".status.json")
}

// saveStatus persists a finished sweep's status record (atomic rename). The
// on-disk history needs no trimming here: loadStatuses cuts it to the
// retiredSweeps bound at startup and every in-memory eviction after that
// removes its record, so disk follows memory one for one. A failed save only
// costs history-after-restart, so it runs under the server's persistence
// tracker — bounded retry, degradation accounting — and is never fatal.
func (s *Server) saveStatus(sw *sweep) {
	path := s.statusPath(sw.id)
	if path == "" {
		return
	}
	write := func() error {
		if ierr := s.cfg.FaultInjector.Check(faultinject.PointStatusSave, sw.id); ierr != nil {
			return ierr
		}
		return atomicfile.Write(path, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(sw.status())
		})
	}
	if err := s.persist.Do(write); err != nil {
		s.logf("serve: sweep %s: status save failed: %v", sw.id, err)
	}
}

// removeStatus deletes a sweep's persisted status record (used when the
// in-memory history evicts it, so disk and memory stay in step).
func (s *Server) removeStatus(id string) {
	if path := s.statusPath(id); path != "" {
		_ = os.Remove(path)
	}
}

// readStatusFile decodes one persisted status record. Its id must be a sweep
// name and the file's own name: any other id is damage, which removeStatus
// would otherwise resolve to a file the record does not live in.
func readStatusFile(path string) (SweepStatus, error) {
	var st SweepStatus
	raw, err := os.ReadFile(path)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, err
	}
	if name := strings.TrimSuffix(filepath.Base(path), ".status.json"); st.ID != name || !dse.NamePattern.MatchString(st.ID) {
		return st, fmt.Errorf("serve: status file %s holds sweep id %q", path, st.ID)
	}
	return st, nil
}

// loadStatuses restores the finished-sweep history from DataDir at startup.
// A sweep recorded as running died with its server: it is restored as
// canceled (its settled cells survive in the checkpoint, so re-POSTing the
// spec resumes it).
// Damaged records are skipped — history is a convenience, never worth
// failing startup over. This is also the one place the on-disk history is
// trimmed to the retiredSweeps bound: a directory holding more records than
// that loses the unreadable ones first (they would otherwise pin the history
// forever), then the oldest.
func (s *Server) loadStatuses() {
	if s.cfg.DataDir == "" {
		return
	}
	entries, err := filepath.Glob(filepath.Join(s.cfg.DataDir, "*.status.json"))
	if err != nil {
		return
	}
	excess := len(entries) - retiredSweeps
	var sts []SweepStatus
	for _, p := range entries {
		st, err := readStatusFile(p)
		if err != nil {
			s.logf("serve: skipping damaged status record %s: %v", p, err)
			if excess > 0 {
				_ = os.Remove(p) // best effort, like removeStatus
				excess--
			}
			continue
		}
		if st.State == StateRunning || st.State == StateQueued {
			st.State = StateCanceled
			st.Error = "server restarted while the sweep was running"
		}
		sts = append(sts, st)
	}
	sort.Slice(sts, func(a, b int) bool {
		if !sts[a].StartedAt.Equal(sts[b].StartedAt) {
			return sts[a].StartedAt.Before(sts[b].StartedAt)
		}
		return sts[a].ID < sts[b].ID
	})
	for ; excess > 0 && len(sts) > 0; excess-- {
		s.removeStatus(sts[0].ID)
		sts = sts[1:]
	}
	for _, st := range sts {
		sw := restoredSweep(s, st)
		s.sweeps[sw.id] = sw
		s.order = append(s.order, sw.id)
	}
	if len(sts) > 0 {
		s.logf("serve: restored %d sweep status records from %s", len(sts), s.cfg.DataDir)
	}
}

// restoredSweep rebuilds a sweep record from its persisted status. The
// cancel hook is a no-op: nothing is running.
func restoredSweep(s *Server, st SweepStatus) *sweep {
	sw := &sweep{
		id:       st.ID,
		server:   s,
		cancel:   func() {},
		tenant:   st.Tenant,
		priority: dse.SweepPriority(st.Priority),
		log:      newEventLog(),
		state:    st.State,
		cands:    st.Candidates,
		cells:    st.Cells,
		done:     st.DoneCandidates,
		preempts: st.Preemptions,
		best:     st.Best,
		traj:     st.Trajectory,
		stats:    st.Stats,
		err:      st.Error,
		started:  st.StartedAt,
	}
	if st.FinishedAt != nil {
		sw.finished = *st.FinishedAt
	}
	// The live event history died with the old process; synthesize the
	// terminal event so GET /sweeps/{id}/stream on a restored sweep returns
	// a closed one-line stream instead of hanging.
	if st.State == StateDone {
		sw.log.append(Event{Type: "done", SweepID: st.ID, Best: st.Best, Stats: st.Stats})
	} else {
		sw.log.append(Event{Type: "error", SweepID: st.ID, Error: st.Error, Stats: st.Stats})
	}
	return sw
}

// --- the POST /sweep handler ---------------------------------------------

// specBodyLimit bounds a POST /sweep request body.
const specBodyLimit = 1 << 20

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec dse.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, specBodyLimit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding sweep spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.ID == "" {
		spec.ID = newSweepID()
	} else if !dse.NamePattern.MatchString(spec.ID) {
		// Ids key status and fleet checkpoint files on disk, so they must be
		// path- and filename-safe. No id starts with '_', so none names the
		// server's checkpoint.
		writeError(w, http.StatusBadRequest, "sweep id %q: want %s", spec.ID, dse.NamePattern)
		return
	}
	cands, err := spec.Candidates()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	graphs, err := spec.Graphs()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells := len(cands) * len(graphs)
	if cells > s.cfg.maxCells() {
		writeError(w, http.StatusBadRequest, "sweep has %d cells, server cap is %d", cells, s.cfg.maxCells())
		return
	}

	tenant := spec.Tenant
	if tenant == "" {
		tenant = defaultTenant
	}
	priority := dse.SweepPriority(spec.Priority)
	if priority == "" {
		priority = dse.PriorityInteractive
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	sw := &sweep{
		id:       spec.ID,
		server:   s,
		cancel:   cancel,
		tenant:   tenant,
		priority: priority,
		log:      newEventLog(),
		state:    StateQueued,
		cands:    len(cands),
		cells:    cells,
		started:  time.Now(),
	}
	undoRegister, code, err := s.register(sw)
	if code != 0 {
		writeError(w, code, "%v", err)
		return
	}
	j, aerr := s.queue.Admit(spec.ID, tenant, priority, spec.Workers)
	if aerr != nil {
		// Admission rejections leave no trace: the registration rolls back
		// (restoring any superseded finished record) and nothing was
		// persisted, so a rejected client can simply retry after backoff.
		undoRegister()
		writeRejection(w, aerr)
		return
	}
	defer s.queue.Release(j)
	// Server shutdown cancels the sweep like a client disconnect would.
	stopWatch := context.AfterFunc(s.base, cancel)
	defer stopWatch()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Id", spec.ID)
	w.WriteHeader(http.StatusOK)
	stream := newStreamWriter(w)
	// emit records every event in the sweep's replayable log (the
	// GET /sweeps/{id}/stream source) and sends it down the POST stream.
	emit := func(ev Event) {
		sw.log.append(ev)
		stream.send(ev)
	}
	// Terminal backstop: the engine recovers panics at the cell and worker
	// level, but if anything above those nets still panics, the stream must
	// end with a typed error event — carrying whatever fault counters the
	// sweep accumulated — not a dropped connection, and the server must keep
	// serving its other sweeps.
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		stack := debug.Stack()
		s.logf("serve: sweep %s: handler panicked (recovered): %v\n%s", spec.ID, v, stack)
		msg := fmt.Sprintf("internal error: sweep handler panicked: %v", v)
		st := sw.status()
		if st.State == StateRunning || st.State == StateQueued {
			sw.finish(StateFailed, st.Stats, nil, msg)
		}
		emit(Event{Type: "error", SweepID: spec.ID, Error: msg, Stats: sw.status().Stats})
		s.saveStatus(sw)
	}()

	// Wait for the queue to dispatch the sweep. Uncontended admission
	// grants synchronously inside Admit, so the common stream still begins
	// with its start event; only a sweep that actually waits emits queued.
	select {
	case <-j.granted():
	default:
		emit(Event{Type: "queued", SweepID: spec.ID, Tenant: tenant, Priority: string(priority), Position: j.position})
		select {
		case <-j.granted():
		case <-ctx.Done():
			msg := "sweep canceled while queued"
			sw.finish(StateCanceled, nil, nil, msg)
			emit(Event{Type: "error", SweepID: spec.ID, Error: msg})
			s.saveStatus(sw)
			return
		}
	}
	sw.markRunning()

	// persistBase anchors the sweep's persistence accounting: its stats
	// report the server tracker's failures from here to the final flush.
	persistBase := s.persist.State().Errors
	opt := spec.Options()
	// The queue granted this sweep j.slots worker slots; that grant is its
	// whole worker budget (the spec's Workers request was clamped into it).
	opt.Workers = j.slots

	emit(Event{
		Type:            "start",
		SweepID:         spec.ID,
		Candidates:      len(cands),
		Cells:           cells,
		Models:          spec.Models,
		CheckpointCells: s.ses.SettledCells(cands, graphs, opt),
	})

	// runCtx is the current dispatch round's context; OnResult reads it to
	// tell preemption cancellations apart from real outcomes.
	var roundMu sync.Mutex
	var runCtx context.Context

	var seqMu sync.Mutex
	seq := 0
	// streamed dedupes result events across dispatch rounds: a preempted
	// sweep re-reduces every candidate after resume, but each candidate
	// streams exactly once. Keyed by structural fingerprint: display names
	// are not unique (the 7-tuple omits cut orientation).
	streamed := make(map[uint64]bool)
	opt.OnResult = func(cr dse.CandidateResult) {
		roundMu.Lock()
		rc := runCtx
		roundMu.Unlock()
		// A preempted round reports its undelivered cells as canceled;
		// those candidates re-run after resume and stream their real
		// outcome then. Suppress the interim error rows.
		if cr.Err != nil && rc != nil && errors.Is(context.Cause(rc), errPreempted) {
			return
		}
		cs := summarize(&cr)
		fp := eval.ConfigFingerprint(&cr.Cfg)
		seqMu.Lock()
		if streamed[fp] {
			seqMu.Unlock()
			return
		}
		streamed[fp] = true
		seq++
		n := seq
		seqMu.Unlock()
		sw.noteResult(cs)
		emit(Event{Type: "result", SweepID: spec.ID, Seq: n, Result: cs})
		// OnResult runs in the scheduler's serialized callback section, so
		// the save itself happens on the server's saver goroutine.
		s.persist.poke()
	}

	s.logf("serve: sweep %s: %d candidates x %d models (%d cells)", spec.ID, len(cands), len(graphs), cells)
	begin := time.Now()
	// The dispatch-round loop: each iteration runs the sweep under a
	// cancelable round context the queue can interrupt with errPreempted.
	// A preempted round checkpoints its settled cells, yields its slots and
	// parks until the queue re-dispatches the job; the resumed round then
	// restores every settled cell for free and continues. Any other exit —
	// completion, client disconnect, DELETE, shutdown — leaves the loop.
	var (
		results []dse.CandidateResult
		stats   dse.SweepStats
		runErr  error
	)
	for {
		rc, cancelRound := context.WithCancelCause(ctx)
		roundMu.Lock()
		runCtx = rc
		roundMu.Unlock()
		s.queue.BindPreempt(j, func() { cancelRound(errPreempted) })
		results, stats, runErr = s.ses.RunContext(rc, cands, graphs, opt)
		s.queue.ClearPreempt(j)
		preempted := errors.Is(context.Cause(rc), errPreempted) && ctx.Err() == nil
		cancelRound(context.Canceled)
		if !preempted {
			break
		}
		// Flush the settled cells before parking, so the on-disk checkpoint
		// matches what the resumed round will restore even across a crash.
		s.persist.flush("preempt")
		settled := s.ses.SettledCells(cands, graphs, opt)
		sw.notePreempted()
		emit(Event{Type: "preempted", SweepID: spec.ID, Tenant: tenant, Priority: string(priority), CheckpointCells: settled})
		s.logf("serve: sweep %s: preempted with %d settled cells", spec.ID, settled)
		s.queue.Yield(j)
		resumed := false
		select {
		case <-j.granted():
			resumed = true
		case <-ctx.Done():
		}
		if !resumed {
			// Canceled while parked: the preempted round's canceled runErr
			// already classifies the sweep below.
			break
		}
		sw.markRunning()
		emit(Event{Type: "resumed", SweepID: spec.ID, Tenant: tenant, Priority: string(priority), CheckpointCells: settled})
	}
	// Every settled cell is on disk before the terminal event is sent.
	s.persist.flush("final")
	s.persist.spill()
	s.faultPanics.Add(int64(stats.Panics))

	sum := summarizeStats(stats)
	// The tracker is server-wide, so under concurrent sweeps the delta may
	// include their failures; the degraded flag and last error are the
	// current truth either way.
	if pst := s.persist.State(); pst.Errors > persistBase {
		sum.PersistenceErrors = int(pst.Errors - persistBase)
		sum.PersistenceDegraded = pst.Degraded
		sum.LastPersistenceError = pst.LastError
	}
	elapsed := time.Since(begin).Milliseconds()
	switch {
	case runErr != nil && (errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded)):
		sw.finish(StateCanceled, sum, nil, runErr.Error())
		emit(Event{Type: "error", SweepID: spec.ID, Error: runErr.Error(), Stats: sum, ElapsedMS: elapsed})
	case runErr != nil:
		sw.finish(StateFailed, sum, nil, runErr.Error())
		emit(Event{Type: "error", SweepID: spec.ID, Error: runErr.Error(), Stats: sum, ElapsedMS: elapsed})
	default:
		var best *CandidateSummary
		if b := dse.Best(results); b != nil {
			best = summarize(b)
		}
		sw.finish(StateDone, sum, best, "")
		emit(Event{Type: "done", SweepID: spec.ID, Best: best, Stats: sum, ElapsedMS: elapsed})
	}
	// Persist the final status next to the checkpoint, so GET /sweeps
	// survives a server restart.
	s.saveStatus(sw)
}
