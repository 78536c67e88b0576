// Package serve is the HTTP front end of the DSE sweep engine: a long-lived
// server owning one dse.Session, accepting JSON sweep specs and streaming
// per-candidate results back as NDJSON while the sweep runs.
//
// Endpoints:
//
//	POST   /sweep               submit a dse.Spec; the response body is an
//	                            NDJSON event stream (queued when the sweep
//	                            waits, start, one result per candidate in
//	                            completion order, preempted/resumed around
//	                            queue preemptions, done/error)
//	GET    /sweeps              list every sweep the server knows about
//	GET    /sweeps/{id}         one sweep's status, progress and final stats
//	GET    /sweeps/{id}/stream  replay the sweep's event stream from the
//	                            beginning, then follow it live (re-attach)
//	DELETE /sweeps/{id}         cancel a running or queued sweep
//	GET    /healthz             liveness plus session-cache, incumbent and
//	                            queue metrics
//
// Sweeps compute and the server persists (Config.DataDir): one checkpoint
// file per DataDir holds every settled (candidate, model) cell of every
// sweep, /sweep and fleet alike, kept current by one saver and flushed
// before each sweep's terminal event. A restarted server merges it — and
// any other *.ckpt in the directory — into its session at startup, so a
// re-POSTed spec, under any id, recomputes none of the finished cells.
// Finished sweeps' statuses append to one history log beside it, so
// GET /sweeps survives a restart too. Nothing else reaches disk: the
// session's evaluation cache lives and dies with the process, since every
// cell it could spare a restarted server is already in the checkpoint.
//
// Execution is gated by a multi-tenant job queue over a fixed worker-slot
// pool: interactive sweeps dispatch ahead of batch sweeps, tenants share
// slots by weighted deficit round-robin, per-tenant quotas reject excess
// backlog with 429 (server-wide overload with 503), and a blocked
// interactive sweep preempts the newest batch work — which checkpoints,
// yields and later resumes from its settled cells for free. Every dispatched
// sweep runs on the server's one session, so all of them share its
// evaluation cache and checkpoint cells.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gemini/internal/dse"
	"gemini/internal/faultinject"
	"gemini/internal/fleet"
)

// Config sizes and locates a Server. The zero value is usable: it serves
// with modest concurrency and no persistence.
type Config struct {
	// WorkerSlots is the worker-slot pool the queue dispatches sweeps
	// against (default GOMAXPROCS). A sweep occupies its clamped Workers
	// request in slots while it runs, so at most WorkerSlots sweeps run at
	// once; excess admitted sweeps wait in the queue, and excess backlog is
	// rejected (QueueDepth, MaxQueuedSweeps).
	WorkerSlots int
	// QueueDepth is the per-tenant waiting-sweep quota (default 8); a
	// tenant POSTing beyond it gets 429 with a Retry-After.
	QueueDepth int
	// MaxQueuedSweeps is the server-wide waiting-sweep bound (default 64);
	// beyond it POSTs get 503 so clients fail over to another replica.
	MaxQueuedSweeps int
	// BatchShare is the fraction of WorkerSlots batch-priority sweeps may
	// hold while interactive work is queued or running (default 0.5). With
	// no interactive work the queue is work-conserving and batch may use
	// every slot.
	BatchShare float64
	// TenantWeights sets per-tenant fair-share weights for the queue's
	// deficit round-robin; unlisted tenants weigh 1.
	TenantWeights map[string]int
	// MaxCells caps a single sweep's (candidate, model) grid (default
	// 1<<20 cells); larger specs are rejected with 422.
	MaxCells int
	// DataDir is where the server's one checkpoint (_session.ckpt, holding
	// /sweep and fleet cells alike) and its sweep-history log
	// (_history.ndjson, one line per finished sweep) live; empty disables
	// persistence (sweeps then only share state within the process).
	DataDir string
	// FleetLeaseTTL is how long a fleet shard lease lives without a
	// checkpoint upload before the coordinator re-shards it onto another
	// worker (default 10s). Lower it for fast failover in tests; raise it
	// on networks where uploads may stall.
	FleetLeaseTTL time.Duration
	// Logf, when set, receives server lifecycle and scheduling lines.
	Logf func(format string, args ...any)
	// FaultInjector, when non-nil, arms the deterministic fault-injection
	// harness across the server's sweeps and persistence paths (chaos tests
	// only; nil in production).
	FaultInjector *faultinject.Injector
}

func (c Config) maxCells() int {
	if c.MaxCells <= 0 {
		return 1 << 20
	}
	return c.MaxCells
}

func (c Config) workerSlots() int {
	if c.WorkerSlots <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.WorkerSlots
}

// Server is the sweep service. Create with New, mount as an http.Handler,
// and Close on shutdown to cancel running sweeps. Server is safe for
// concurrent use.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	base  context.Context
	stop  context.CancelFunc
	start time.Time

	// ses is the one session every sweep runs on: one evaluation cache, one
	// set of checkpoint cells.
	ses *dse.Session

	// queue is the multi-tenant admission/dispatch state machine every
	// sweep passes through before it may touch the session.
	queue *sweepQueue

	// fleet is the distributed-sweep coordinator, mounted under /fleet/:
	// shard leases, incumbent fan-out and checkpoint merging into ses for
	// worker processes (gemini-serve -worker).
	fleet *fleet.Coordinator

	mu     sync.Mutex
	sweeps map[string]*sweep
	order  []string // sweep ids in registration order (for listing/eviction)

	// persist owns the server's checkpoint file, its saver and the history
	// log, and tracks every save's health: a failing disk degrades
	// persistence (sweeps keep running and streaming), it never fails a
	// sweep. /healthz surfaces the state.
	persist *persister

	// faultPanics is the lifetime count of recovered panics across every
	// finished sweep's stats, served by /healthz.
	faultPanics atomic.Int64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		base:   base,
		stop:   stop,
		start:  time.Now(),
		ses:    dse.NewSession(),
		sweeps: make(map[string]*sweep),
	}
	s.ses.Logf = s.logf
	s.persist = newPersister(base, s.ses, cfg, s.logf)
	s.queue = newSweepQueue(queueConfig{
		slots:      cfg.workerSlots(),
		queueDepth: cfg.QueueDepth,
		maxQueued:  cfg.MaxQueuedSweeps,
		batchShare: cfg.BatchShare,
		weights:    cfg.TenantWeights,
	})
	// Restore the finished-sweep history before serving: GET /sweeps then
	// reports the predecessor process's sweeps alongside new ones.
	for _, st := range s.persist.loadHistory() {
		s.sweeps[st.ID] = restoredSweep(st)
		s.order = append(s.order, st.ID)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("GET /sweeps", s.handleList)
	mux.HandleFunc("GET /sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /sweeps/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /sweeps/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	// Fleet sweeps settle cells in the server's session, so the persister
	// that keeps /sweep's cells keeps theirs: every merged upload pokes the
	// saver, and a finished fleet sweep is on disk before its last upload
	// is answered.
	s.fleet = fleet.NewCoordinator(fleet.CoordinatorConfig{
		LeaseTTL: cfg.FleetLeaseTTL,
		MaxCells: cfg.maxCells(),
		Logf:     s.logf,
		Session:  s.ses,
		OnMerge: func(sweepDone bool) {
			if sweepDone {
				s.persist.flush("fleet")
			} else {
				s.persist.poke()
			}
		},
	})
	mux.Handle("/fleet/", http.StripPrefix("/fleet", s.fleet))
	s.mux = mux
	return s
}

// ServeHTTP dispatches to the server's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels every running sweep, refuses new work and stops the
// checkpoint saver, waiting out a save in flight. In-flight POST handlers
// observe the cancellation, flush the checkpoint and finish their streams;
// Close does not wait for them — callers that need the drain should pair it
// with http.Server.Shutdown.
func (s *Server) Close() {
	s.stop()
	s.persist.wait()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// retiredSweeps bounds the finished-sweep history kept for GET /sweeps.
const retiredSweeps = 1024

// register admits a new sweep to the queue and records it, both under the
// server mutex, so a sweep refused — shutting down (503), its id still
// queued or running (409), or a queue rejection (429, 503) — leaves no trace:
// nothing was recorded, superseded or evicted.
func (s *Server) register(sw *sweep, workers int) (*job, *admitError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.base.Err() != nil {
		return nil, &admitError{code: http.StatusServiceUnavailable, msg: "server is shutting down"}
	}
	id := sw.st.ID
	old, existed := s.sweeps[id]
	if existed && old.active() {
		return nil, &admitError{code: http.StatusConflict, msg: fmt.Sprintf("sweep %q is already running", id)}
	}
	j, aerr := s.queue.Admit(id, sw.st.Tenant, dse.SweepPriority(sw.st.Priority), workers)
	if aerr != nil {
		return nil, aerr
	}
	// A finished record under the same id is superseded: re-POSTing a
	// spec is how clients resume after a disconnect or server restart.
	if !existed {
		s.order = append(s.order, id)
	}
	s.sweeps[id] = sw
	// Evict the oldest finished sweeps beyond the history bound. The
	// history log keeps their lines until its next rewrite, which is cut
	// from this table.
	for len(s.order) > retiredSweeps {
		i := slices.IndexFunc(s.order, func(id string) bool { return !s.sweeps[id].active() })
		if i < 0 {
			break
		}
		delete(s.sweeps, s.order[i])
		s.order = slices.Delete(s.order, i, i+1)
	}
	return j, nil
}

func (s *Server) lookup(id string) (*sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// statuses snapshots every known sweep in registration order.
func (s *Server) statuses() []SweepStatus {
	s.mu.Lock()
	sws := make([]*sweep, len(s.order))
	for i, id := range s.order {
		sws[i] = s.sweeps[id]
	}
	s.mu.Unlock()
	out := make([]SweepStatus, len(sws))
	for i, sw := range sws {
		out[i] = sw.status()
	}
	return out
}

// --- plain-JSON handlers -------------------------------------------------

// errorBody is the JSON error envelope of every non-streaming failure.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on queue rejections
	// (429 per-tenant quota, 503 server-wide backlog); zero otherwise.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeRejection writes a refused registration: for a queue rejection the
// Retry-After header plus the error envelope mirroring it.
func writeRejection(w http.ResponseWriter, aerr *admitError) {
	if aerr.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", aerr.retryAfter))
	}
	writeJSON(w, aerr.code, errorBody{Error: aerr.msg, RetryAfterSeconds: aerr.retryAfter})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	type listBody struct {
		Sweeps []SweepStatus `json:"sweeps"`
	}
	writeJSON(w, http.StatusOK, listBody{Sweeps: s.statuses()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sw.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	sw.cancel()
	writeJSON(w, http.StatusAccepted, sw.status())
}

// SessionHealth is the session's health snapshot.
type SessionHealth struct {
	// Index is always 0: the server owns one session, and the field keeps the
	// wire shape of the pooled servers that preceded it.
	Index int `json:"index"`
	// CacheHits / CacheMisses / CacheEntries mirror eval.CacheStats. A hit
	// is a group evaluation served from a stored bandwidth-free summary —
	// one this architecture computed or one a bandwidth sibling (same core
	// array, cuts and DRAM controller count) did.
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
	// CacheFlushes counts wholesale shard flushes: each dropped up to 16384
	// entries because a shard filled. Nonzero means the working set of the
	// session's sweeps exceeds the cache.
	CacheFlushes int64 `json:"cache_flushes"`
	// CacheHitRate is hits / (hits + misses), 0 when idle.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CheckpointCells counts the settled cells the session holds.
	CheckpointCells int `json:"checkpoint_cells"`
	// ResumedCells counts cells served from checkpoints over the session's
	// lifetime.
	ResumedCells int64 `json:"resumed_cells"`
}

// FaultCounts aggregates the fault-handling counters of every sweep the
// server has finished. A recovered panic is a bug that repeats on every run
// of its cell, so any nonzero count is the signal to read the sweeps'
// last_panic fields and the logs.
type FaultCounts struct {
	// Panics counts recovered panics (cells and candidate rows they cost).
	Panics int64 `json:"panics"`
}

// SweepCounts aggregates sweep states for the health endpoint.
type SweepCounts struct {
	// Queued, Running, Done, Canceled and Failed count sweeps by state.
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Canceled int `json:"canceled"`
	Failed   int `json:"failed"`
}

// TenantHealth is one live tenant's queue accounting in the health body.
type TenantHealth struct {
	// Name is the tenant (dse.Spec.Tenant, "default" when unset).
	Name string `json:"name"`
	// Weight is the tenant's fair-share weight.
	Weight int `json:"weight"`
	// Waiting and Running count the tenant's queued and dispatched sweeps.
	Waiting int `json:"waiting"`
	// Running counts the tenant's dispatched sweeps.
	Running int `json:"running"`
}

// QueueHealth is the sweep queue's snapshot in the health body.
type QueueHealth struct {
	// Slots and FreeSlots size the worker-slot pool.
	Slots int `json:"slots"`
	// FreeSlots is how many slots are currently unheld.
	FreeSlots int `json:"free_slots"`
	// BatchShare is the configured batch slot share under interactive load.
	BatchShare float64 `json:"batch_share"`
	// RunningSweeps counts dispatched sweeps holding slots.
	RunningSweeps int `json:"running_sweeps"`
	// WaitingInteractive and WaitingBatch count queued sweeps by class.
	WaitingInteractive int `json:"waiting_interactive"`
	// WaitingBatch counts queued batch-priority sweeps.
	WaitingBatch int `json:"waiting_batch"`
	// Preemptions and Resumes are lifetime preemption-cycle counters.
	Preemptions int64 `json:"preemptions"`
	// Resumes counts re-dispatches of previously preempted sweeps.
	Resumes int64 `json:"resumes"`
	// Rejected429 and Rejected503 count admission rejections by status.
	Rejected429 int64 `json:"rejected_429"`
	// Rejected503 counts server-wide backlog rejections.
	Rejected503 int64 `json:"rejected_503"`
	// Tenants lists the live tenants (those with a sweep waiting or
	// running), sorted by name.
	Tenants []TenantHealth `json:"tenants,omitempty"`
}

// RunningSweep is the health endpoint's live view of one running sweep: its
// progress and the current pruning incumbent.
type RunningSweep struct {
	// ID names the sweep.
	ID string `json:"id"`
	// DoneCandidates / Candidates is the sweep's progress.
	DoneCandidates int `json:"done_candidates"`
	// Candidates is the sweep's total candidate count.
	Candidates int `json:"candidates"`
	// Incumbent is the best feasible objective streamed so far (absent
	// until one candidate is feasible).
	Incumbent *CandidateSummary `json:"incumbent,omitempty"`
	// Trajectory is the live incumbent trajectory: every improvement of
	// Incumbent streamed so far, in order.
	Trajectory []TrajectoryStep `json:"trajectory,omitempty"`
}

// Health is the GET /healthz body.
type Health struct {
	// Status is "ok" while the server accepts work, "closing" after Close.
	Status string `json:"status"`
	// UptimeSeconds is the time since New.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Sessions reports the session's cache metrics. It always has exactly
	// one element; it is a list because the wire shape predates the
	// single-session server.
	Sessions []SessionHealth `json:"sessions"`
	// Sweeps aggregates sweep states.
	Sweeps SweepCounts `json:"sweeps"`
	// Running lists every running sweep with its live incumbent.
	Running []RunningSweep `json:"running,omitempty"`
	// Faults aggregates fault-handling counters across finished sweeps.
	Faults FaultCounts `json:"faults"`
	// Persistence is the health of every save the server makes: the
	// checkpoint and the history log.
	Persistence PersistenceState `json:"persistence"`
	// PersistenceDegraded mirrors Persistence.Degraded: several consecutive
	// saves failed. Work continues in memory; restart cost is what
	// degrades.
	PersistenceDegraded bool `json:"persistence_degraded"`
	// Queue is the sweep queue's snapshot: slot occupancy, per-class
	// backlog, preemption and rejection counters, live tenants.
	Queue *QueueHealth `json:"queue,omitempty"`
	// Fleet is the distributed-sweep coordinator's snapshot: sweep and
	// shard counts, live lease holders, lease-expiry total.
	Fleet *fleet.Health `json:"fleet,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := Health{Status: "ok", UptimeSeconds: time.Since(s.start).Seconds()}
	if s.base.Err() != nil {
		h.Status = "closing"
	}
	h.Faults = FaultCounts{Panics: s.faultPanics.Load()}
	h.Persistence = s.persist.State()
	h.PersistenceDegraded = h.Persistence.Degraded
	cs := s.ses.CacheStats()
	h.Sessions = []SessionHealth{{
		CacheHits:       cs.Hits,
		CacheMisses:     cs.Misses,
		CacheEntries:    cs.Entries,
		CacheFlushes:    cs.Flushes,
		CacheHitRate:    cs.HitRate(),
		CheckpointCells: s.ses.CheckpointCells(),
		ResumedCells:    s.ses.ResumedCells(),
	}}
	h.Queue = s.queue.health()
	fh := s.fleet.Health()
	h.Fleet = &fh
	for _, st := range s.statuses() {
		switch st.State {
		case StateQueued:
			h.Sweeps.Queued++
		case StateRunning:
			h.Sweeps.Running++
			h.Running = append(h.Running, RunningSweep{
				ID:             st.ID,
				DoneCandidates: st.DoneCandidates,
				Candidates:     st.Candidates,
				Incumbent:      st.Best,
				Trajectory:     st.Trajectory,
			})
		case StateDone:
			h.Sweeps.Done++
		case StateCanceled:
			h.Sweeps.Canceled++
		case StateFailed:
			h.Sweeps.Failed++
		}
	}
	sort.Slice(h.Running, func(a, b int) bool { return h.Running[a].ID < h.Running[b].ID })
	writeJSON(w, http.StatusOK, h)
}
