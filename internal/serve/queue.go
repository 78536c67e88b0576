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
// The queue's state is its queues: each live tenant's per-class FIFOs and
// deficits, the running list in dispatch order, one round-robin cursor per
// class and the queue-wide lifetime counters. Free slots, per-class backlog
// and the batch share in use are walks over those lists, never separate
// counters. A tenant's lifetime is its work: it joins the ring's end, with
// no credit, when its first job is admitted and leaves once nothing of its
// own waits or runs, so the ring never outgrows maxQueued + slots however
// many tenant names clients make up.
//
// The queue is a synchronous state machine under one mutex: admission,
// dispatch, yield and release decisions happen entirely inside locked
// sections, in deterministic order, which is what makes the conformance
// suite (queue_test.go) reproducible without sleeping.
package serve

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"gemini/internal/dse"
	"gemini/internal/intake"
)

// defaultTenant is the tenant name used when a spec names none.
const defaultTenant = "default"

// queueConfig sizes a sweepQueue. The server derives it from Config; tests
// construct it directly with an observation hook.
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
	// hook, when set, observes every queue transition (tests only). It is
	// called with the queue lock held; hooks must not call back into the
	// queue.
	hook func(queueEvent)
}

// queueEvent is one observed queue transition, for the conformance suite.
type queueEvent struct {
	kind     string // "dispatch", "preempt", "yield", "finish", "reject"
	id       string
	tenant   string
	priority dse.SweepPriority
	slots    int
}

// job is one sweep's queue-side record. The identity fields are set at
// admission; whether the job waits or runs is where it sits — its tenant's
// FIFO or the queue's running list.
type job struct {
	id       string
	tenant   string
	priority dse.SweepPriority
	slots    int
	// grant receives one token per dispatch (initial and after each
	// preemption-yield cycle).
	grant chan struct{}
	// position is the server-wide waiting count at admission, 1-based;
	// informational (the queued event carries it).
	position int

	// Guarded by sweepQueue.mu.
	preempting bool
	preempt    func() // cancels the job's current run round
	grantIndex uint64 // global dispatch counter at first dispatch (TTFR)
}

// class is the job's priority class index.
func (j *job) class() int { return classOf(j.priority) }

// granted exposes the dispatch channel for select loops.
func (j *job) granted() <-chan struct{} { return j.grant }

// sweepQueue is the multi-tenant job queue. Construct with newSweepQueue.
type sweepQueue struct {
	cfg queueConfig

	mu      sync.Mutex
	ring    []*tenantState // live tenants in activation order
	sched   [numClasses]classSched
	running []*job // dispatch order, newest last (preemption victims)

	grants      uint64
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
	q := &sweepQueue{cfg: cfg}
	for c := range q.sched {
		q.sched[c].fresh = true
	}
	return q
}

func (q *sweepQueue) emit(kind string, j *job) {
	if q.cfg.hook != nil {
		q.cfg.hook(queueEvent{kind: kind, id: j.id, tenant: j.tenant, priority: j.priority, slots: j.slots})
	}
}

// tenantLocked returns one tenant's state, nil when it has no job.
func (q *sweepQueue) tenantLocked(name string) *tenantState {
	for _, t := range q.ring {
		if t.name == name {
			return t
		}
	}
	return nil
}

// joinLocked appends a new tenant to the ring's end, with no credit.
func (q *sweepQueue) joinLocked(name string) *tenantState {
	w := q.cfg.weights[name]
	if w <= 0 {
		w = 1
	}
	t := &tenantState{name: name, weight: w}
	q.ring = append(q.ring, t)
	return t
}

// leaveIfIdleLocked drops a tenant with nothing waiting or running from the
// ring. Each class cursor keeps pointing at the tenant it was serving; one
// that pointed at the leaver moves on to its successor for a fresh visit.
func (q *sweepQueue) leaveIfIdleLocked(t *tenantState) {
	if t.waiting() > 0 || q.runningOfLocked(t.name) > 0 {
		return
	}
	i := slices.Index(q.ring, t)
	q.ring = slices.Delete(q.ring, i, i+1)
	for c := range q.sched {
		cs := &q.sched[c]
		switch {
		case cs.cursor > i:
			cs.cursor--
		case cs.cursor == i:
			cs.fresh = true
		}
		if cs.cursor >= len(q.ring) {
			cs.cursor = 0
		}
	}
}

// waitingLocked counts the waiting jobs per class.
func (q *sweepQueue) waitingLocked() (n [numClasses]int) {
	for _, t := range q.ring {
		for c := range n {
			n[c] += len(t.queue[c])
		}
	}
	return n
}

// heldLocked sums the slots running jobs hold per class.
func (q *sweepQueue) heldLocked() (n [numClasses]int) {
	for _, r := range q.running {
		n[r.class()] += r.slots
	}
	return n
}

// freeLocked is the number of slots no running job holds.
func (q *sweepQueue) freeLocked() int {
	held := q.heldLocked()
	return q.cfg.slots - held[classInteractive] - held[classBatch]
}

// runningOfLocked counts one tenant's running jobs.
func (q *sweepQueue) runningOfLocked(tenant string) int {
	n := 0
	for _, r := range q.running {
		if r.tenant == tenant {
			n++
		}
	}
	return n
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
func (q *sweepQueue) Admit(id, tenant string, priority dse.SweepPriority, workers int) (*job, *intake.Error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if priority == "" {
		priority = dse.PriorityInteractive
	}
	j := &job{
		id: id, tenant: tenant, priority: priority,
		slots: q.clampSlots(workers), grant: make(chan struct{}, 1),
	}
	w := q.waitingLocked()
	waiting := w[classInteractive] + w[classBatch]
	if waiting >= q.cfg.maxQueued {
		q.rejected503++
		q.emit("reject", j)
		return nil, &intake.Error{
			Code: 503, RetryAfter: retryAfter(waiting),
			Msg: fmt.Sprintf("queue full: %d sweeps waiting server-wide (bound %d)", waiting, q.cfg.maxQueued),
		}
	}
	t := q.tenantLocked(tenant)
	if t == nil {
		t = q.joinLocked(tenant)
	} else if t.waiting() >= q.cfg.queueDepth {
		q.rejected429++
		q.emit("reject", j)
		return nil, &intake.Error{
			Code: 429, RetryAfter: retryAfter(waiting),
			Msg: fmt.Sprintf("tenant %q queue depth %d reached (quota %d)",
				tenant, t.waiting(), q.cfg.queueDepth),
		}
	}
	t.push(j, false)
	j.position = waiting + 1
	q.dispatchLocked()
	return j, nil
}

// retryAfter estimates how long a rejected client should back off: one
// second per waiting sweep, bounded — deterministic, and monotone in the
// backlog.
func retryAfter(waiting int) int {
	return min(1+waiting, 60)
}

// dispatchLocked drains the queue into free slots in scheduling order, then
// signals preemption for whatever interactive demand is still blocked.
func (q *sweepQueue) dispatchLocked() {
	for q.freeLocked() > 0 {
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
	if j := q.pickClassLocked(classInteractive); j != nil {
		return j
	}
	return q.pickClassLocked(classBatch)
}

// pickClassLocked runs one class's deficit round-robin: each tenant visit
// grants a quantum proportional to its weight, and the visit serves that
// tenant's queue head for as long as the accumulated deficit covers the
// head's slot cost. Deficits persist across calls (a tenant whose head did
// not fit keeps its credit, bounded) and reset when a tenant's class queue
// drains, so long-run slot share converges to the weight ratio.
func (q *sweepQueue) pickClassLocked(class int) *job {
	n := len(q.ring)
	if n == 0 {
		return nil
	}
	free := q.freeLocked()
	// Nothing in this class can dispatch right now (empty, blocked on free
	// slots, or gated by the batch share): return before touching deficits,
	// so blocked passes do not bank credit.
	dispatchable := false
	for _, t := range q.ring {
		if h := t.head(class); h != nil && h.slots <= free && q.classAllowedLocked(h) {
			dispatchable = true
			break
		}
	}
	if !dispatchable {
		return nil
	}
	cs := &q.sched[class]
	// Each visit adds weight >= 1 to a deficit that must reach at most
	// cfg.slots, so slots+1 full ring passes always suffice to serve the
	// dispatchable head found above.
	for iter := 0; iter < n*(q.cfg.slots+2); iter++ {
		if cs.cursor >= n {
			cs.cursor = 0
		}
		t := q.ring[cs.cursor]
		h := t.head(class)
		if h == nil {
			// Idle tenants bank no credit.
			t.deficit[class] = 0
			cs.cursor, cs.fresh = (cs.cursor+1)%n, true
			continue
		}
		if cs.fresh {
			// Bank at most one full burst: the larger of the pool (the
			// biggest single job cost) and the tenant's own quantum, so a
			// weight-w tenant can serve w unit jobs per visit even on a
			// small pool, while a blocked tenant's credit stays bounded.
			t.deficit[class] = min(t.deficit[class]+t.weight, max(q.cfg.slots, t.weight))
			cs.fresh = false
		}
		if t.deficit[class] >= h.slots && h.slots <= free && q.classAllowedLocked(h) {
			t.deficit[class] -= h.slots
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
	if j.class() != classBatch {
		return true
	}
	demand := q.interactiveDemandLocked()
	held := q.heldLocked()
	if demand == 0 && held[classInteractive] == 0 {
		return true
	}
	// Free slots plus every batch slot is what yielding could hand over.
	if demand > 0 && q.cfg.slots-held[classInteractive] >= demand {
		return false
	}
	return held[classBatch]+j.slots <= q.batchCapLocked()
}

// interactiveDemandLocked is the smallest waiting interactive request's slot
// count, 0 when no interactive sweep waits. Callers run after the dispatch
// loop drained, so a nonzero demand is blocked demand.
func (q *sweepQueue) interactiveDemandLocked() int {
	demand := 0
	for _, t := range q.ring {
		if h := t.head(classInteractive); h != nil && (demand == 0 || h.slots < demand) {
			demand = h.slots
		}
	}
	return demand
}

// grantLocked moves one job, already off its tenant's FIFO, onto the
// running list and signals its grant channel.
func (q *sweepQueue) grantLocked(j *job) {
	q.grants++
	if j.grantIndex == 0 {
		j.grantIndex = q.grants
	} else {
		q.resumes++
	}
	q.running = append(q.running, j)
	q.emit("dispatch", j)
	j.grant <- struct{}{}
}

// maybePreemptLocked signals preemption when interactive demand is blocked
// on slots held by batch work: the newest-dispatched preemptible batch jobs
// are told to checkpoint and yield until the projected free slots cover the
// smallest blocked interactive request. Slots free asynchronously — when
// the preempted sweep acks via Yield; until then classAllowedLocked
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
	held := q.heldLocked()
	if q.cfg.slots-held[classInteractive] < demand {
		return
	}
	projected := q.cfg.slots - held[classInteractive] - held[classBatch]
	for _, r := range q.running {
		if r.preempting {
			projected += r.slots
		}
	}
	for i := len(q.running) - 1; i >= 0 && projected < demand; i-- {
		v := q.running[i]
		if v.class() != classBatch || v.preempting {
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
	if !q.stopLocked(j) {
		return
	}
	j.preempting = false
	j.preempt = nil
	q.preemptions++
	q.tenantLocked(j.tenant).push(j, true)
	q.emit("yield", j)
	q.dispatchLocked()
}

// stopLocked takes j off the running list, returning its slots to the
// pool, and reports whether it was running.
func (q *sweepQueue) stopLocked(j *job) bool {
	i := slices.Index(q.running, j)
	if i < 0 {
		return false
	}
	q.running = slices.Delete(q.running, i, i+1)
	return true
}

// Release ends a job's relationship with the queue, whatever state it is in
// — running (slots return to the pool), waiting (it leaves its tenant
// queue), or already released (no-op) — and dispatches successors. A
// tenant left with no job leaves the ring. Safe to defer unconditionally.
func (q *sweepQueue) Release(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.tenantLocked(j.tenant)
	if t == nil || !q.stopLocked(j) && !t.remove(j) {
		return
	}
	q.leaveIfIdleLocked(t)
	j.preempt = nil
	q.emit("finish", j)
	q.dispatchLocked()
}

// health snapshots the queue for the health endpoint.
func (q *sweepQueue) health() *QueueHealth {
	q.mu.Lock()
	defer q.mu.Unlock()
	w := q.waitingLocked()
	qh := &QueueHealth{
		Slots:              q.cfg.slots,
		FreeSlots:          q.freeLocked(),
		BatchShare:         q.cfg.batchShare,
		RunningSweeps:      len(q.running),
		WaitingInteractive: w[classInteractive],
		WaitingBatch:       w[classBatch],
		Preemptions:        q.preemptions,
		Resumes:            q.resumes,
		Rejected429:        q.rejected429,
		Rejected503:        q.rejected503,
	}
	for _, t := range q.ring {
		qh.Tenants = append(qh.Tenants, TenantHealth{
			Name:    t.name,
			Weight:  t.weight,
			Waiting: t.waiting(),
			Running: q.runningOfLocked(t.name),
		})
	}
	sort.Slice(qh.Tenants, func(a, b int) bool { return qh.Tenants[a].Name < qh.Tenants[b].Name })
	return qh
}
