// Sweep execution: one POST /sweep request's lifecycle. The handler
// resolves the spec, registers the sweep, waits for the queue, and streams
// typed NDJSON events while dse.Session.RunContext walks the grid on the
// server's session, which already holds every cell the DataDir's
// checkpoints settled. The sweep computes; it asks the server's persister
// for a checkpoint save per streamed candidate, flushes it before it parks
// on preemption and before its terminal event, and has its final status
// appended to the history log.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"gemini/internal/dse"
	"gemini/internal/eval"
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
	// PartitionsReused counts cells whose graph partition the server's
	// session already held (omitted when 0).
	PartitionsReused int `json:"partitions_reused,omitempty"`
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
	// (checkpoint and status, concurrent sweeps' included); the
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
		PartitionsReused:  st.PartitionsReused,
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
	cancel context.CancelFunc
	// log is the sweep's bounded event history, replayed by
	// GET /sweeps/{id}/stream.
	log *eventLog

	mu sync.Mutex
	// st is the sweep's status. ID, Tenant and Priority are set before the
	// record is shared and never change; every other field is guarded by mu.
	st SweepStatus
}

// active reports the sweep still owns its id: queued or running. Only
// inactive records may be superseded by a re-POST or evicted.
func (sw *sweep) active() bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.st.State == StateRunning || sw.st.State == StateQueued
}

// markRunning flips the sweep to running (initial dispatch and every
// post-preemption resume).
func (sw *sweep) markRunning() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.st.State = StateRunning
}

// notePreempted parks the sweep back in the queued state and counts the
// preemption.
func (sw *sweep) notePreempted() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.st.State = StateQueued
	sw.st.Preemptions++
}

// status snapshots the sweep.
func (sw *sweep) status() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := sw.st
	st.Trajectory = slices.Clone(sw.st.Trajectory)
	return st
}

// noteResult folds one streamed candidate into the live progress view,
// extending the live incumbent trajectory on every improvement.
func (sw *sweep) noteResult(cs *CandidateSummary) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.st.DoneCandidates++
	if cs.Status == "ok" && (sw.st.Best == nil || cs.Objective < sw.st.Best.Objective) {
		sw.st.Best = cs
		sw.st.Trajectory = append(sw.st.Trajectory, TrajectoryStep{Candidate: cs.Arch, Objective: cs.Objective})
	}
}

// finish settles the sweep's final state.
func (sw *sweep) finish(state SweepState, stats *StatsSummary, best *CandidateSummary, errText string) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.st.State = state
	sw.st.Stats = stats
	if best != nil {
		sw.st.Best = best
	}
	sw.st.Error = errText
	now := time.Now()
	sw.st.FinishedAt = &now
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

// restoredSweep rebuilds a sweep record from its persisted status. The
// cancel hook is a no-op: nothing is running.
func restoredSweep(st SweepStatus) *sweep {
	sw := &sweep{cancel: func() {}, log: newEventLog(), st: st}
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
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "sweep spec exceeds %d bytes", specBodyLimit)
			return
		}
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
		// Ids are /sweeps/{id} path segments and history-log keys, so they
		// are restricted to one safe name pattern.
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
		writeError(w, http.StatusUnprocessableEntity, "sweep has %d cells, server cap is %d", cells, s.cfg.maxCells())
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
		cancel: cancel,
		log:    newEventLog(),
		st: SweepStatus{
			ID:         spec.ID,
			State:      StateQueued,
			Tenant:     tenant,
			Priority:   string(priority),
			Candidates: len(cands),
			Cells:      cells,
			StartedAt:  time.Now(),
		},
	}
	j, aerr := s.register(sw, spec.Workers)
	if aerr != nil {
		// Nothing was registered or persisted, so a rejected client can
		// simply retry after backoff.
		writeRejection(w, aerr)
		return
	}
	defer s.queue.Release(j)
	// Server shutdown cancels the sweep like a client disconnect would.
	stopWatch := context.AfterFunc(s.base, cancel)
	defer stopWatch()
	// However the sweep ends, its final status joins the history log, so
	// GET /sweeps survives a restart.
	defer func() { s.persist.record(sw.status(), s.statuses) }()

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

	var seqMu sync.Mutex
	seq := 0
	// streamed dedupes result events across dispatch rounds: a preempted
	// sweep re-reduces every candidate after resume, but each candidate
	// streams exactly once. Keyed by structural fingerprint: display names
	// are not unique (the 7-tuple omits cut orientation).
	streamed := make(map[uint64]bool)
	// onResult builds one dispatch round's result callback over that
	// round's context, which tells preemption cancellations apart from real
	// outcomes.
	onResult := func(rc context.Context) func(dse.CandidateResult) {
		return func(cr dse.CandidateResult) {
			// A preempted round reports its undelivered cells as canceled;
			// those candidates re-run after resume and stream their real
			// outcome then. Suppress the interim error rows.
			if cr.Err != nil && errors.Is(context.Cause(rc), errPreempted) {
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
			// OnResult runs in the scheduler's serialized callback section,
			// so the save itself happens on the server's saver goroutine.
			s.persist.poke()
		}
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
		opt.OnResult = onResult(rc)
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
}
