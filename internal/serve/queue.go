// The multi-tenant sweep queue: admission control, priority classes,
// deficit-round-robin fair share and preemption, in front of the sweep
// scheduler. The queue owns a fixed pool of worker slots; every sweep asks
// for a slot count (its clamped workers request) and runs only while it
// holds them. Interactive sweeps dispatch ahead of batch sweeps; tenants
// inside a class share slots by deficit round-robin (weighted); a tenant
// over its waiting-sweep quota is rejected with 429 and a server over its
// global backlog bound with 503; and when an interactive sweep cannot fit,
// the newest-dispatched batch sweeps are preempted — signaled to checkpoint,
// yield their slots and re-queue at the front of their tenant's batch queue,
// where resume is free (settled cells restore from the session and the
// checkpoint, recomputing nothing).
//
// The queue is a synchronous state machine under one mutex: admission,
// dispatch, yield and release decisions happen entirely inside locked
// sections, in deterministic order, which is what makes the conformance
// suite (queue_test.go) reproducible without sleeping.
package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gemini/internal/dse"
)

// defaultTenant is the tenant name used when a spec names none.
const defaultTenant = "default"

// queueConfig sizes a sweepQueue. The server derives it from Config; tests
// construct it directly with an injected clock and observation hook.
type queueConfig struct {
	// slots is the worker-slot pool the queue dispatches against.
	slots int
	// queueDepth is the per-tenant waiting-sweep quota; admission beyond it
	// is rejected with 429.
	queueDepth int
	// maxQueued is the server-wide waiting-sweep bound; admission beyond it
	// is rejected with 503.
	maxQueued int
	// batchShare is the fraction of slots batch sweeps may hold while
	// interactive work is present (queued or running). Outside that the
	// queue is work-conserving: idle slots go to batch freely.
	batchShare float64
	// weights are per-tenant fair-share weights (missing tenants weigh 1).
	weights map[string]int
	// now is the queue's clock (tests inject a fake one).
	now func() time.Time
	// hook, when set, observes every queue transition (tests only). It is
	// called with the queue lock held; hooks must not call back into the
	// queue.
	hook func(queueEvent)
}

// queueEvent is one observed queue transition, for the conformance suite.
type queueEvent struct {
	kind     string // "dispatch", "preempt", "yield", "reject"
	id       string
	tenant   string
	priority dse.SweepPriority
	slots    int
}

// job is one sweep's queue-side record. The immutable identity fields are
// set at admission; the scheduling state is guarded by the queue mutex.
type job struct {
	id       string
	tenant   string
	priority dse.SweepPriority
	slots    int
	seq      uint64
	// grant receives one token per dispatch (initial and after each
	// preemption-yield cycle).
	grant chan struct{}
	// position is the server-wide waiting count at admission, 1-based;
	// informational (the queued event carries it).
	position int

	// Guarded by sweepQueue.mu.
	waiting    bool
	running    bool
	preempting bool
	preempt    func() // cancels the job's current run round
	resumes    int
	grantIndex uint64 // global dispatch counter at first dispatch (TTFR)
	queuedAt   time.Time
}

// granted exposes the dispatch channel for select loops.
func (j *job) granted() <-chan struct{} { return j.grant }

// admitError is a typed admission rejection.
type admitError struct {
	code       int // 429 (tenant quota) or 503 (server backlog)
	retryAfter int // seconds, for the Retry-After header and envelope
	msg        string
}

func (e *admitError) Error() string { return e.msg }

// sweepQueue is the multi-tenant job queue. Construct with newSweepQueue.
type sweepQueue struct {
	cfg queueConfig

	mu      sync.Mutex
	tenants map[string]*tenantState
	ring    []string // tenant names in first-activation order
	sched   map[dse.SweepPriority]*classSched

	free        int
	runningJobs int
	batchSlots  int
	runningInt  int // running interactive jobs
	waitingInt  int
	waitingBat  int
	runningList []*job // dispatch order, newest last (preemption victims)

	seq    uint64
	grants uint64

	preemptions int64
	resumes     int64
	rejected429 int64
	rejected503 int64
}

// classSched is the deficit-round-robin cursor state of one priority class:
// which ring position is being served and whether it has received its
// quantum for the current visit.
type classSched struct {
	cursor int
	fresh  bool
}

func newSweepQueue(cfg queueConfig) *sweepQueue {
	if cfg.slots <= 0 {
		cfg.slots = 1
	}
	if cfg.queueDepth <= 0 {
		cfg.queueDepth = 8
	}
	if cfg.maxQueued <= 0 {
		cfg.maxQueued = 64
	}
	if cfg.batchShare <= 0 || cfg.batchShare > 1 {
		cfg.batchShare = 0.5
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &sweepQueue{
		cfg:     cfg,
		tenants: make(map[string]*tenantState),
		sched: map[dse.SweepPriority]*classSched{
			dse.PriorityInteractive: {fresh: true},
			dse.PriorityBatch:       {fresh: true},
		},
		free: cfg.slots,
	}
}

func (q *sweepQueue) emit(kind string, j *job) {
	if q.cfg.hook != nil {
		q.cfg.hook(queueEvent{kind: kind, id: j.id, tenant: j.tenant, priority: j.priority, slots: j.slots})
	}
}

// tenantLocked returns (creating on first sight) one tenant's state.
func (q *sweepQueue) tenantLocked(name string) *tenantState {
	if t, ok := q.tenants[name]; ok {
		return t
	}
	w := q.cfg.weights[name]
	if w <= 0 {
		w = 1
	}
	t := &tenantState{name: name, weight: w}
	q.tenants[name] = t
	q.ring = append(q.ring, name)
	return t
}

// clampSlots turns a spec's workers request into a slot count: 0 (default)
// asks for the whole pool, anything else is clamped into [1, slots].
func (q *sweepQueue) clampSlots(workers int) int {
	if workers <= 0 || workers > q.cfg.slots {
		return q.cfg.slots
	}
	return workers
}

// Admit enqueues one sweep, enforcing the per-tenant quota (429) and the
// server-wide backlog bound (503), and dispatches whatever the new state
// allows. On success the caller must eventually call Release exactly once.
func (q *sweepQueue) Admit(id, tenant string, priority dse.SweepPriority, workers int) (*job, *admitError) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if priority == "" {
		priority = dse.PriorityInteractive
	}
	t := q.tenantLocked(tenant)
	j := &job{
		id: id, tenant: tenant, priority: priority,
		slots: q.clampSlots(workers), grant: make(chan struct{}, 1),
		queuedAt: q.cfg.now(),
	}
	if q.waitingInt+q.waitingBat >= q.cfg.maxQueued {
		q.rejected503++
		t.rejected++
		q.emit("reject", j)
		return nil, &admitError{
			code: 503, retryAfter: q.retryAfterLocked(),
			msg: fmt.Sprintf("queue full: %d sweeps waiting server-wide (bound %d)",
				q.waitingInt+q.waitingBat, q.cfg.maxQueued),
		}
	}
	if t.waiting() >= q.cfg.queueDepth {
		q.rejected429++
		t.rejected++
		q.emit("reject", j)
		return nil, &admitError{
			code: 429, retryAfter: q.retryAfterLocked(),
			msg: fmt.Sprintf("tenant %q queue depth %d reached (quota %d)",
				tenant, t.waiting(), q.cfg.queueDepth),
		}
	}
	j.seq = q.seq
	q.seq++
	j.waiting = true
	t.push(j, false)
	q.noteWaiting(priority, +1)
	j.position = q.waitingInt + q.waitingBat
	q.dispatchLocked()
	return j, nil
}

// retryAfterLocked estimates how long a rejected client should back off:
// one second per waiting sweep, bounded — deterministic, and monotone in the
// backlog.
func (q *sweepQueue) retryAfterLocked() int {
	after := 1 + q.waitingInt + q.waitingBat
	if after > 60 {
		after = 60
	}
	return after
}

func (q *sweepQueue) noteWaiting(p dse.SweepPriority, d int) {
	if p == dse.PriorityBatch {
		q.waitingBat += d
	} else {
		q.waitingInt += d
	}
}

// dispatchLocked drains the queue into free slots in scheduling order, then
// signals preemption for whatever interactive demand is still blocked.
func (q *sweepQueue) dispatchLocked() {
	for q.free > 0 {
		j := q.pickLocked()
		if j == nil {
			break
		}
		q.grantLocked(j)
	}
	q.maybePreemptLocked()
}

// pickLocked selects the next waiting job that fits the free slots:
// interactive class first, deficit round-robin across tenants within a
// class. nil means nothing dispatchable right now.
func (q *sweepQueue) pickLocked() *job {
	if j := q.pickClassLocked(dse.PriorityInteractive); j != nil {
		return j
	}
	return q.pickClassLocked(dse.PriorityBatch)
}

// pickClassLocked runs one class's deficit round-robin: each tenant visit
// grants a quantum proportional to its weight, and the visit serves that
// tenant's queue head for as long as the accumulated deficit covers the
// head's slot cost. Deficits persist across calls (a tenant whose head did
// not fit keeps its credit, bounded) and reset when a tenant's class queue
// drains, so long-run slot share converges to the weight ratio.
func (q *sweepQueue) pickClassLocked(class dse.SweepPriority) *job {
	n := len(q.ring)
	if n == 0 {
		return nil
	}
	// Nothing in this class can dispatch right now (empty, blocked on free
	// slots, or gated by the batch share): return before touching deficits,
	// so blocked passes do not bank credit.
	dispatchable := false
	for _, name := range q.ring {
		if h := q.tenants[name].head(class); h != nil && h.slots <= q.free && q.classAllowedLocked(h) {
			dispatchable = true
			break
		}
	}
	if !dispatchable {
		return nil
	}
	cs := q.sched[class]
	// Each visit adds weight >= 1 to a deficit that must reach at most
	// cfg.slots, so slots+1 full ring passes always suffice to serve the
	// dispatchable head found above.
	for iter := 0; iter < n*(q.cfg.slots+2); iter++ {
		if cs.cursor >= n {
			cs.cursor = 0
		}
		t := q.tenants[q.ring[cs.cursor]]
		h := t.head(class)
		if h == nil {
			// Idle tenants bank no credit.
			t.setDeficit(class, 0)
			cs.cursor, cs.fresh = (cs.cursor+1)%n, true
			continue
		}
		if cs.fresh {
			d := t.deficit(class) + t.weight
			// Bank at most one full burst: the larger of the pool (the
			// biggest single job cost) and the tenant's own quantum, so a
			// weight-w tenant can serve w unit jobs per visit even on a
			// small pool, while a blocked tenant's credit stays bounded.
			limit := q.cfg.slots
			if t.weight > limit {
				limit = t.weight
			}
			if d > limit {
				d = limit
			}
			t.setDeficit(class, d)
			cs.fresh = false
		}
		if t.deficit(class) >= h.slots && h.slots <= q.free && q.classAllowedLocked(h) {
			t.setDeficit(class, t.deficit(class)-h.slots)
			t.remove(h)
			// The visit continues: the same tenant may serve its next head
			// on the following pick call while its deficit lasts.
			return h
		}
		cs.cursor, cs.fresh = (cs.cursor+1)%n, true
	}
	return nil
}

// batchCapLocked is the slot cap batch sweeps share while interactive work
// is present.
func (q *sweepQueue) batchCapLocked() int {
	return int(q.cfg.batchShare * float64(q.cfg.slots))
}

// classAllowedLocked gates a batch dispatch on the batch share: while
// interactive work is queued or running, batch may not grow past its share
// of the slot pool. With no interactive work the queue is work-conserving.
//
// It also reserves slots for blocked interactive demand that preemption is
// (or will be) satisfying: while an interactive sweep waits and yielding
// batch work can cover it, no batch sweep dispatches — otherwise a yielded
// victim's own head would re-take the just-freed slots before the other
// victims yield, and multi-victim preemption would livelock (yield,
// re-dispatch, preempt, forever) with the interactive sweep starved.
// Demand that no amount of batch yielding can cover (slots pinned by other
// interactive work) reserves nothing: the queue stays work-conserving.
func (q *sweepQueue) classAllowedLocked(j *job) bool {
	if j.priority != dse.PriorityBatch {
		return true
	}
	if q.waitingInt == 0 && q.runningInt == 0 {
		return true
	}
	if d := q.interactiveDemandLocked(); d > 0 && q.free+q.preemptibleBatchLocked() >= d {
		return false
	}
	return q.batchSlots+j.slots <= q.batchCapLocked()
}

// interactiveDemandLocked is the smallest waiting interactive request's slot
// count, 0 when no interactive sweep waits. Callers run after the dispatch
// loop drained, so a nonzero demand is blocked demand.
func (q *sweepQueue) interactiveDemandLocked() int {
	if q.waitingInt == 0 {
		return 0
	}
	demand := 0
	for _, name := range q.ring {
		if h := q.tenants[name].head(dse.PriorityInteractive); h != nil {
			if demand == 0 || h.slots < demand {
				demand = h.slots
			}
		}
	}
	return demand
}

// preemptibleBatchLocked sums the slots of every running batch sweep —
// including ones already signaled preempting, whose slots are in flight back
// to the pool.
func (q *sweepQueue) preemptibleBatchLocked() int {
	s := 0
	for _, r := range q.runningList {
		if r.priority == dse.PriorityBatch {
			s += r.slots
		}
	}
	return s
}

// grantLocked moves one job from waiting to running and signals its grant
// channel.
func (q *sweepQueue) grantLocked(j *job) {
	t := q.tenants[j.tenant]
	j.waiting = false
	j.running = true
	q.noteWaiting(j.priority, -1)
	q.free -= j.slots
	q.runningJobs++
	if j.priority == dse.PriorityBatch {
		q.batchSlots += j.slots
	} else {
		q.runningInt++
	}
	t.running++
	t.dispatched++
	q.grants++
	if j.grantIndex == 0 {
		j.grantIndex = q.grants
	} else {
		q.resumes++
	}
	q.runningList = append(q.runningList, j)
	q.emit("dispatch", j)
	j.grant <- struct{}{}
}

// maybePreemptLocked signals preemption when interactive demand is blocked
// on slots held by batch work: the newest-dispatched preemptible batch jobs
// are told to checkpoint and yield until the projected free slots cover the
// smallest blocked interactive request. Slots free asynchronously — when
// the preempted handler acks via Yield; until then classAllowedLocked
// reserves them for the blocked demand, so they accumulate instead of
// re-dispatching the victims. Demand that even yielding every batch sweep
// cannot cover (slots pinned by other interactive work) preempts nothing:
// checkpoint-thrashing batch work for an interactive sweep that still
// cannot fit buys no forward progress.
func (q *sweepQueue) maybePreemptLocked() {
	demand := q.interactiveDemandLocked()
	if demand == 0 {
		return
	}
	if q.free+q.preemptibleBatchLocked() < demand {
		return
	}
	projected := q.free
	for _, r := range q.runningList {
		if r.preempting {
			projected += r.slots
		}
	}
	for i := len(q.runningList) - 1; i >= 0 && projected < demand; i-- {
		v := q.runningList[i]
		if v.priority != dse.PriorityBatch || v.preempting {
			continue
		}
		v.preempting = true
		projected += v.slots
		q.emit("preempt", v)
		if v.preempt != nil {
			v.preempt()
		}
	}
}

// BindPreempt registers the cancel hook for a dispatched job's current run
// round. If the queue already signaled preemption before the hook existed,
// it fires immediately.
func (q *sweepQueue) BindPreempt(j *job, cancel func()) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j.preempt = cancel
	if j.preempting {
		cancel()
	}
}

// ClearPreempt detaches the current round's cancel hook (the round ended).
func (q *sweepQueue) ClearPreempt(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j.preempt = nil
}

// Yield acks a preemption: the job's slots free, it re-queues at the front
// of its tenant's queue for its class, and dispatch runs. The caller then
// waits on the job's grant channel for re-dispatch.
func (q *sweepQueue) Yield(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !j.running {
		return
	}
	q.releaseRunningLocked(j)
	j.preempting = false
	j.preempt = nil
	j.waiting = true
	j.resumes++
	q.preemptions++
	q.tenants[j.tenant].preemptions++
	q.tenants[j.tenant].push(j, true)
	q.noteWaiting(j.priority, +1)
	q.emit("yield", j)
	q.dispatchLocked()
}

// releaseRunningLocked returns a running job's slots to the pool.
func (q *sweepQueue) releaseRunningLocked(j *job) {
	t := q.tenants[j.tenant]
	j.running = false
	q.free += j.slots
	q.runningJobs--
	if j.priority == dse.PriorityBatch {
		q.batchSlots -= j.slots
	} else {
		q.runningInt--
	}
	t.running--
	for i, r := range q.runningList {
		if r == j {
			q.runningList = append(q.runningList[:i], q.runningList[i+1:]...)
			break
		}
	}
}

// Release ends a job's relationship with the queue, whatever state it is in
// — running (slots return to the pool), waiting (it leaves its tenant
// queue), or already released (no-op) — and dispatches successors. Safe to
// defer unconditionally.
func (q *sweepQueue) Release(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case j.running:
		q.releaseRunningLocked(j)
	case j.waiting:
		j.waiting = false
		q.tenants[j.tenant].remove(j)
		q.noteWaiting(j.priority, -1)
	default:
		return
	}
	j.preempt = nil
	q.emit("finish", j)
	q.dispatchLocked()
}

// health snapshots the queue for the health endpoint.
func (q *sweepQueue) health() *QueueHealth {
	q.mu.Lock()
	defer q.mu.Unlock()
	qh := &QueueHealth{
		Slots:              q.cfg.slots,
		FreeSlots:          q.free,
		BatchShare:         q.cfg.batchShare,
		RunningSweeps:      q.runningJobs,
		WaitingInteractive: q.waitingInt,
		WaitingBatch:       q.waitingBat,
		Preemptions:        q.preemptions,
		Resumes:            q.resumes,
		Rejected429:        q.rejected429,
		Rejected503:        q.rejected503,
	}
	for _, name := range q.ring {
		t := q.tenants[name]
		qh.Tenants = append(qh.Tenants, TenantHealth{
			Name:        t.name,
			Weight:      t.weight,
			Waiting:     t.waiting(),
			Running:     t.running,
			Dispatched:  t.dispatched,
			Preemptions: t.preemptions,
			Rejected:    t.rejected,
		})
	}
	sort.Slice(qh.Tenants, func(a, b int) bool { return qh.Tenants[a].Name < qh.Tenants[b].Name })
	return qh
}
