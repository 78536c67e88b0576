// Sweep execution: one POST /sweep request's lifecycle. The handler
// resolves the spec, registers the sweep and follows its event log, while
// the sweep's own goroutine waits for the queue and appends typed events as
// dse.Session.RunContext walks the grid on the server's session, which
// holds every cell the DataDir's checkpoints settled. The sweep asks the
// server's persister for a checkpoint save per result, flushes it before it
// parks on preemption and before its terminal event, and has its final
// status appended to the history log.

package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/intake"
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

// StatsSummary is a finished sweep's stats on the wire: the scheduler's
// dse.SweepStats record as it is, plus the server's persistence accounting.
type StatsSummary struct {
	dse.SweepStats
	// DeadlineExceeded is always 0 and never on the wire: cells have no
	// deadline any more. It stays only because the benchmark harness
	// (bench/) still reads it; drop it when that read goes.
	DeadlineExceeded int `json:"-"`
	// PersistenceErrors counts the server's failed saves while the sweep ran
	// (checkpoint and status, concurrent sweeps' included); the
	// sweep itself kept running.
	PersistenceErrors int `json:"persistence_errors,omitempty"`
	// PersistenceDegraded reports the server's persistence ended the sweep
	// degraded; LastPersistenceError is the most recent failure.
	PersistenceDegraded  bool   `json:"persistence_degraded,omitempty"`
	LastPersistenceError string `json:"last_persistence_error,omitempty"`
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
	Trajectory []dse.IncumbentStep `json:"trajectory,omitempty"`
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
	// st is the sweep's status. ID, Tenant, Priority, Candidates and Cells
	// are set before the record is shared and never change; every other
	// field is guarded by mu.
	st SweepStatus
}

// Active reports the sweep still owns its id: queued or running. Only
// inactive records may be superseded by a re-POST or evicted.
func (sw *sweep) Active() bool {
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
		sw.st.Trajectory = append(sw.st.Trajectory, dse.IncumbentStep{Candidate: cs.Arch, Obj: cs.Objective})
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

// restoredSweep rebuilds a sweep record from its persisted status. The
// cancel hook is a no-op: nothing is running.
func restoredSweep(st SweepStatus) *sweep {
	sw := &sweep{cancel: func() {}, log: newEventLog(false), st: st}
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

// handleSweep admits a sweep, runs it on its own goroutine and serves the
// response the way GET /sweeps/{id}/stream does: by following the sweep's
// event log, so the sweep never waits on its client. Once the follower ends
// (terminal event sent, client gone, or a write deadline missed) the sweep
// is canceled, a no-op if it finished, and joined.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec dse.Spec
	if !intake.Decode(w, r, intake.BodyLimit, true, "sweep spec", &spec) {
		return
	}
	cands, graphs, ok := intake.Resolve(w, &spec, "sweep", s.cfg.maxCells())
	if !ok {
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
		log:    newEventLog(true),
		st: SweepStatus{
			ID:         spec.ID,
			State:      StateQueued,
			Tenant:     tenant,
			Priority:   string(priority),
			Candidates: len(cands),
			Cells:      len(cands) * len(graphs),
		},
	}
	j, aerr := s.register(sw, spec.Workers)
	if aerr != nil {
		// Nothing was registered or persisted, so a rejected client can
		// simply retry after backoff.
		aerr.Write(w)
		return
	}
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		s.runSweep(ctx, sw, j, &spec, cands, graphs)
	}()
	follow(r.Context(), w, sw, true)
	cancel()
	<-ran
}

// runSweep walks one admitted sweep from its queue wait to its terminal
// event, then releases its worker slots and appends its history line. Its
// events only join the sweep's log; followers write them to clients.
func (s *Server) runSweep(ctx context.Context, sw *sweep, j *job, spec *dse.Spec, cands []arch.Config, graphs []*dnn.Graph) {
	tenant, priority, cells := sw.st.Tenant, sw.st.Priority, sw.st.Cells
	defer s.queue.Release(j)
	// Server shutdown cancels the sweep like a client disconnect would.
	stopWatch := context.AfterFunc(s.base, sw.cancel)
	defer stopWatch()
	// However the sweep ends, its final status joins the history log, so
	// GET /sweeps survives a restart.
	defer func() { s.persist.record(sw.status(), s.statuses) }()

	emit := func(ev Event) {
		if s.cfg.fault != nil {
			_ = s.cfg.fault("emit", ev.Type) // a test hook; only its panic counts
		}
		sw.log.append(ev)
	}
	// Terminal backstop: the engine recovers panics at the cell and worker
	// level, but if anything above those nets still panics, the stream must
	// end with a typed error event — carrying whatever fault counters the
	// sweep accumulated — and the server must keep serving its other sweeps.
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
		emit(Event{Type: "queued", SweepID: spec.ID, Tenant: tenant, Priority: priority, Position: j.position})
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
		prev := stats
		results, stats, runErr = s.ses.RunContext(rc, cands, graphs, opt)
		// The work and the faults of every round count; every other stat
		// describes the final round.
		stats.SAIterations += prev.SAIterations
		stats.AbandonedRestarts += prev.AbandonedRestarts
		stats.Panics += prev.Panics
		if stats.LastPanic == "" {
			stats.LastPanic = prev.LastPanic
		}
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
		emit(Event{Type: "preempted", SweepID: spec.ID, Tenant: tenant, Priority: priority, CheckpointCells: settled})
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
		emit(Event{Type: "resumed", SweepID: spec.ID, Tenant: tenant, Priority: priority, CheckpointCells: settled})
	}
	// Every settled cell is on disk before the terminal event is sent.
	s.persist.flush("final")
	s.faultPanics.Add(int64(stats.Panics))

	sum := &StatsSummary{SweepStats: stats}
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
