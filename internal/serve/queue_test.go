// The scheduling-conformance suite for the multi-tenant sweep queue. The
// tests drive sweepQueue directly — no network, no goroutines, no sleeps:
// the queue is a synchronous state machine, so dispatch decisions are
// asserted as exact sequences. Determinism itself is a pinned property: the same
// arrival pattern must produce the same grant order on every run.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"gemini/internal/dse"
)

// queueRecorder collects the queue's transition events in order.
type queueRecorder struct {
	events []queueEvent
}

func (r *queueRecorder) hook(ev queueEvent) { r.events = append(r.events, ev) }

// ids returns the ids of every recorded event of one kind, in order.
func (r *queueRecorder) ids(kind string) []string {
	var out []string
	for _, ev := range r.events {
		if ev.kind == kind {
			out = append(out, ev.id)
		}
	}
	return out
}

// isGranted consumes a pending grant token, reporting whether one existed.
func isGranted(j *job) bool {
	select {
	case <-j.granted():
		return true
	default:
		return false
	}
}

// drain completes every admitted job in dispatch order (each dispatched job
// finishes before the next completion), returning the full grant sequence.
func drain(t *testing.T, q *sweepQueue, rec *queueRecorder, jobs map[string]*job) []string {
	t.Helper()
	released := make(map[string]bool)
	for done := 0; done < len(jobs); {
		progressed := false
		for _, ev := range rec.events {
			if ev.kind != "dispatch" || released[ev.id] {
				continue
			}
			released[ev.id] = true
			q.Release(jobs[ev.id])
			done++
			progressed = true
			break
		}
		if !progressed {
			t.Fatalf("queue stalled with %d of %d jobs finished; events: %+v", done, len(jobs), rec.events)
		}
	}
	return rec.ids("dispatch")
}

// TestQueueDispatchOrderDeterministic pins the acceptance criterion: for
// three fixed seeds, a randomized multi-tenant arrival pattern dispatches
// in exactly the same order every time it is replayed.
func TestQueueDispatchOrderDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		run := func() []string {
			rec := &queueRecorder{}
			q := newSweepQueue(queueConfig{
				slots: 4, queueDepth: 64, maxQueued: 256,
				weights: map[string]int{"a": 2, "b": 1, "c": 1},
				hook:    rec.hook,
			})
			rng := rand.New(rand.NewSource(seed))
			tenants := []string{"a", "b", "c"}
			jobs := make(map[string]*job)
			for i := 0; i < 24; i++ {
				ten := tenants[rng.Intn(len(tenants))]
				pri := dse.PriorityBatch
				if rng.Intn(2) == 0 {
					pri = dse.PriorityInteractive
				}
				id := fmt.Sprintf("s%02d", i)
				j, aerr := q.Admit(id, ten, pri, 1+rng.Intn(2))
				if aerr != nil {
					t.Fatalf("seed %d: admit %s: %v", seed, id, aerr)
				}
				jobs[id] = j
			}
			// Tenants live only while they have work, so the health
			// listing is checked before the drain.
			var names []string
			for _, th := range q.health().Tenants {
				names = append(names, th.Name)
			}
			if !sort.StringsAreSorted(names) {
				t.Errorf("seed %d: health lists tenants as %v, want name order", seed, names)
			}
			return drain(t, q, rec, jobs)
		}
		first := run()
		if len(first) != 24 {
			t.Fatalf("seed %d: dispatched %d of 24 jobs", seed, len(first))
		}
		second := run()
		if !reflect.DeepEqual(first, second) {
			t.Errorf("seed %d: dispatch order is not deterministic:\n first: %v\nsecond: %v", seed, first, second)
		}
	}
}

// TestQueuePriorityClasses pins that a later-arriving interactive sweep
// dispatches ahead of an earlier-queued batch sweep.
func TestQueuePriorityClasses(t *testing.T) {
	rec := &queueRecorder{}
	q := newSweepQueue(queueConfig{slots: 1, queueDepth: 8, maxQueued: 64, hook: rec.hook})
	filler, _ := q.Admit("filler", "t1", dse.PriorityInteractive, 1)
	if !isGranted(filler) {
		t.Fatal("uncontended filler did not dispatch synchronously")
	}
	batch, _ := q.Admit("batch", "t1", dse.PriorityBatch, 1)
	inter, _ := q.Admit("inter", "t2", dse.PriorityInteractive, 1)
	if isGranted(batch) || isGranted(inter) {
		t.Fatal("jobs dispatched while the pool was full")
	}
	q.Release(filler)
	if !isGranted(inter) {
		t.Error("interactive sweep did not jump the earlier batch sweep")
	}
	if isGranted(batch) {
		t.Error("batch sweep dispatched alongside the interactive one on a 1-slot pool")
	}
	q.Release(inter)
	if !isGranted(batch) {
		t.Error("batch sweep did not dispatch once the interactive class drained")
	}
	q.Release(batch)
	if got := rec.ids("dispatch"); !reflect.DeepEqual(got, []string{"filler", "inter", "batch"}) {
		t.Errorf("dispatch order = %v", got)
	}
}

// TestQueueFairShareWeights pins the deficit round-robin ratio: with
// weights 2:1 and unit-slot batch jobs on a 1-slot pool, the long-run grant
// pattern is exactly two of tenant a per one of tenant b.
func TestQueueFairShareWeights(t *testing.T) {
	rec := &queueRecorder{}
	q := newSweepQueue(queueConfig{
		slots: 1, queueDepth: 16, maxQueued: 64,
		weights: map[string]int{"a": 2, "b": 1},
		hook:    rec.hook,
	})
	jobs := make(map[string]*job)
	for i := 0; i < 6; i++ {
		for _, ten := range []string{"a", "b"} {
			id := fmt.Sprintf("%s%d", ten, i)
			j, aerr := q.Admit(id, ten, dse.PriorityBatch, 1)
			if aerr != nil {
				t.Fatal(aerr)
			}
			jobs[id] = j
		}
	}
	order := drain(t, q, rec, jobs)
	// a0 dispatches on admission (empty pool); thereafter every AAB block
	// realizes the 2:1 weight ratio until tenant a drains.
	want := []string{"a0", "a1", "b0", "a2", "a3", "b1", "a4", "a5", "b2", "b3", "b4", "b5"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("weighted fair-share order:\n got: %v\nwant: %v", order, want)
	}
}

// TestQueuePreemptResume pins the preemption protocol end to end at the
// queue level: signal on the newest batch job, yield, interactive dispatch,
// and front-of-queue resume once the slots free — with the counters the
// health endpoint reports.
func TestQueuePreemptResume(t *testing.T) {
	rec := &queueRecorder{}
	q := newSweepQueue(queueConfig{slots: 1, queueDepth: 8, maxQueued: 64, hook: rec.hook})
	batch, _ := q.Admit("batch", "bulk", dse.PriorityBatch, 1)
	if !isGranted(batch) {
		t.Fatal("batch job did not dispatch on an idle pool")
	}
	inter, _ := q.Admit("inter", "dev", dse.PriorityInteractive, 1)
	if got := rec.ids("preempt"); !reflect.DeepEqual(got, []string{"batch"}) {
		t.Fatalf("preempt signals = %v, want [batch]", got)
	}
	// The handler binds its round-cancel hook after the signal raced ahead:
	// it must fire immediately.
	fired := false
	q.BindPreempt(batch, func() { fired = true })
	if !fired {
		t.Error("late-bound preempt hook did not fire for an already-signaled job")
	}
	// The preempted handler checkpoints, then acks.
	q.Yield(batch)
	if !isGranted(inter) {
		t.Error("interactive sweep did not dispatch after the batch yield")
	}
	if isGranted(batch) {
		t.Error("yielded batch sweep kept a grant")
	}
	q.Release(inter)
	if !isGranted(batch) {
		t.Error("preempted batch sweep did not resume once the interactive sweep finished")
	}
	q.Release(batch)
	qh := q.health()
	if qh.Preemptions != 1 || qh.Resumes != 1 {
		t.Errorf("preemptions=%d resumes=%d, want 1 and 1", qh.Preemptions, qh.Resumes)
	}
	if got := rec.ids("dispatch"); !reflect.DeepEqual(got, []string{"batch", "inter", "batch"}) {
		t.Errorf("dispatch sequence = %v", got)
	}
}

// TestQueueMultiVictimPreemption pins the livelock fix: when satisfying a
// blocked interactive sweep requires preempting more than one batch sweep,
// the slots each victim yields are reserved for the interactive demand — a
// yielded victim must not re-dispatch into them — so free slots accumulate
// across yields until the interactive sweep fits.
func TestQueueMultiVictimPreemption(t *testing.T) {
	rec := &queueRecorder{}
	q := newSweepQueue(queueConfig{slots: 8, queueDepth: 8, maxQueued: 64, hook: rec.hook})
	i1, _ := q.Admit("i1", "dev", dse.PriorityInteractive, 4)
	b1, _ := q.Admit("b1", "bulk", dse.PriorityBatch, 2)
	b2, _ := q.Admit("b2", "bulk", dse.PriorityBatch, 2)
	if !isGranted(i1) || !isGranted(b1) || !isGranted(b2) {
		t.Fatal("initial load did not dispatch on an idle pool")
	}
	// The pool is full; a second interactive sweep needs both batch sweeps'
	// slots. Both must be signaled, newest-dispatched first.
	i2, _ := q.Admit("i2", "dev", dse.PriorityInteractive, 4)
	if got := rec.ids("preempt"); !reflect.DeepEqual(got, []string{"b2", "b1"}) {
		t.Fatalf("preempt signals = %v, want [b2 b1]", got)
	}
	// First victim yields: its two slots cover only half the demand. They
	// must be held for i2 — not handed back to the victim's own queue head —
	// and the yield must not trigger another round of preemption signals.
	q.Yield(b2)
	if isGranted(b2) || isGranted(b1) || isGranted(i2) {
		t.Fatal("a sweep dispatched into slots reserved for blocked interactive demand")
	}
	if got := len(rec.ids("preempt")); got != 2 {
		t.Fatalf("preempt signals after first yield = %d, want still 2", got)
	}
	// Second victim yields: the accumulated slots now cover the demand.
	q.Yield(b1)
	if !isGranted(i2) {
		t.Fatal("interactive sweep did not dispatch once both victims yielded")
	}
	if isGranted(b1) || isGranted(b2) {
		t.Error("batch sweep resumed while the pool was full of interactive work")
	}
	// With the interactive class no longer blocked, freed slots resume the
	// parked victims.
	q.Release(i1)
	if !isGranted(b1) || !isGranted(b2) {
		t.Error("preempted batch sweeps did not resume once slots freed")
	}
	q.Release(i2)
	q.Release(b1)
	q.Release(b2)
	qh := q.health()
	if qh.Preemptions != 2 || qh.Resumes != 2 {
		t.Errorf("preemptions=%d resumes=%d, want 2 and 2", qh.Preemptions, qh.Resumes)
	}
}

// TestQueueUnsatisfiableDemandNoPreempt pins that preemption only fires when
// it can actually help: interactive demand that exceeds the free slots plus
// every preemptible batch slot (the rest pinned by other interactive work)
// preempts nothing — checkpoint-thrashing batch sweeps for an interactive
// sweep that still cannot fit buys no forward progress — and the queue stays
// work-conserving for batch in the meantime.
func TestQueueUnsatisfiableDemandNoPreempt(t *testing.T) {
	rec := &queueRecorder{}
	q := newSweepQueue(queueConfig{slots: 8, queueDepth: 8, maxQueued: 64, hook: rec.hook})
	i1, _ := q.Admit("i1", "dev", dse.PriorityInteractive, 5)
	b1, _ := q.Admit("b1", "bulk", dse.PriorityBatch, 2)
	if !isGranted(i1) || !isGranted(b1) {
		t.Fatal("initial load did not dispatch on an idle pool")
	}
	// i2 needs 4 slots; 1 free + 2 preemptible can never cover it while i1
	// holds 5. No victim may be signaled.
	i2, _ := q.Admit("i2", "dev", dse.PriorityInteractive, 4)
	if isGranted(i2) {
		t.Fatal("interactive sweep dispatched without slots for it")
	}
	if got := rec.ids("preempt"); len(got) != 0 {
		t.Fatalf("preempt signals = %v for unsatisfiable demand, want none", got)
	}
	// The unreachable demand reserves nothing: a batch sweep that fits the
	// free slot (and the batch share) still dispatches.
	b2, _ := q.Admit("b2", "bulk", dse.PriorityBatch, 1)
	if !isGranted(b2) {
		t.Error("batch sweep gated by interactive demand no yielding could satisfy")
	}
	// Once the blocking interactive sweep finishes, the waiting one fits
	// without any preemption having happened.
	q.Release(i1)
	if !isGranted(i2) {
		t.Error("interactive sweep did not dispatch once its blocker finished")
	}
	q.Release(i2)
	q.Release(b1)
	q.Release(b2)
	if got := rec.ids("preempt"); len(got) != 0 {
		t.Fatalf("preempt signals = %v over the whole scenario, want none", got)
	}
}

// TestQueueBatchShare pins the batch slot cap: while interactive work is
// present, batch may not grow past BatchShare of the pool, but with no
// interactive work the queue is work-conserving.
func TestQueueBatchShare(t *testing.T) {
	q := newSweepQueue(queueConfig{slots: 4, queueDepth: 16, maxQueued: 64, batchShare: 0.5})
	b1, _ := q.Admit("b1", "bulk", dse.PriorityBatch, 1)
	i1, _ := q.Admit("i1", "dev", dse.PriorityInteractive, 1)
	b3, _ := q.Admit("b3", "bulk", dse.PriorityBatch, 1)
	if !isGranted(b1) || !isGranted(i1) || !isGranted(b3) {
		t.Fatal("jobs within the share did not dispatch")
	}
	// Two batch slots are the whole share on a 4-slot pool while i1 runs:
	// b2 must wait even though two slots are free.
	b2, _ := q.Admit("b2", "bulk", dse.PriorityBatch, 2)
	if isGranted(b2) {
		t.Fatal("batch sweep dispatched past the batch share under interactive load")
	}
	q.Release(i1)
	// No interactive work left: work conservation lets batch take the pool.
	if !isGranted(b2) {
		t.Error("batch sweep still gated with no interactive work present")
	}
	q.Release(b1)
	q.Release(b2)
	q.Release(b3)
}

// TestQueueQuotaRejections pins the admission envelopes: per-tenant 429,
// server-wide 503, Retry-After growth with backlog, and the health
// counters.
func TestQueueQuotaRejections(t *testing.T) {
	q := newSweepQueue(queueConfig{slots: 1, queueDepth: 2, maxQueued: 3})
	if _, aerr := q.Admit("r1", "a", dse.PriorityBatch, 1); aerr != nil {
		t.Fatal(aerr)
	}
	for i := 0; i < 2; i++ {
		if _, aerr := q.Admit(fmt.Sprintf("w%d", i), "a", dse.PriorityBatch, 1); aerr != nil {
			t.Fatal(aerr)
		}
	}
	// Tenant a has two sweeps waiting: its quota.
	_, aerr := q.Admit("over", "a", dse.PriorityBatch, 1)
	if aerr == nil || aerr.Code != 429 {
		t.Fatalf("over-quota admit: %+v, want 429", aerr)
	}
	if aerr.RetryAfter != 3 { // 1 + 2 waiting
		t.Errorf("429 retryAfter = %d, want 3", aerr.RetryAfter)
	}
	// Tenant b fits under its own quota and fills the global bound.
	if _, aerr := q.Admit("w3", "b", dse.PriorityBatch, 1); aerr != nil {
		t.Fatal(aerr)
	}
	_, aerr = q.Admit("flood", "c", dse.PriorityBatch, 1)
	if aerr == nil || aerr.Code != 503 {
		t.Fatalf("over-backlog admit: %+v, want 503", aerr)
	}
	if aerr.RetryAfter != 4 { // 1 + 3 waiting
		t.Errorf("503 retryAfter = %d, want 4", aerr.RetryAfter)
	}
	qh := q.health()
	if qh.Rejected429 != 1 || qh.Rejected503 != 1 {
		t.Errorf("rejected counters = %d/%d, want 1/1", qh.Rejected429, qh.Rejected503)
	}
}

// TestQueueForgetsIdleTenants pins that a tenant lives only while it has
// work: distinct names admitted and released leave an empty ring and an
// empty health listing, rejected POSTs under fresh names create no tenant,
// and a returning tenant rejoins at the ring's end with no credit while the
// round-robin cursors keep pointing at live tenants.
func TestQueueForgetsIdleTenants(t *testing.T) {
	s, _ := newTestServer(t, Config{WorkerSlots: 2, QueueDepth: 4, MaxQueuedSweeps: 4})
	q := s.queue
	cursorsLive := func(q *sweepQueue, when string) {
		t.Helper()
		for c, cs := range q.sched {
			if cs.cursor != 0 && cs.cursor >= len(q.ring) {
				t.Fatalf("%s: class %d cursor %d past a %d-tenant ring", when, c, cs.cursor, len(q.ring))
			}
		}
	}
	healthTenants := func() []TenantHealth {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var h Health
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		return h.Queue.Tenants
	}

	for i := 0; i < 10000; i++ {
		pri := dse.PriorityBatch
		if i%2 == 0 {
			pri = dse.PriorityInteractive
		}
		j, aerr := q.Admit(fmt.Sprintf("s%d", i), fmt.Sprintf("t%d", i), pri, 1+i%2)
		if aerr != nil {
			t.Fatal(aerr)
		}
		q.Release(j)
		cursorsLive(q, "admit+release")
	}
	if len(q.ring) != 0 {
		t.Fatalf("%d tenants left in the ring after every job was released", len(q.ring))
	}
	if got := healthTenants(); len(got) != 0 {
		t.Fatalf("/healthz lists %d tenants with no work", len(got))
	}

	// Fill the pool and the server-wide backlog, then POST under fresh names:
	// every one is a 503 and none becomes a tenant.
	hog, _ := q.Admit("hog", "hog", dse.PriorityBatch, 0)
	var backlog []*job
	for i := 0; i < 4; i++ {
		j, aerr := q.Admit(fmt.Sprintf("w%d", i), "w", dse.PriorityBatch, 1)
		if aerr != nil {
			t.Fatal(aerr)
		}
		backlog = append(backlog, j)
	}
	for i := 0; i < 1000; i++ {
		spec := tinySpec(fmt.Sprintf("flood%d", i))
		spec.Tenant = fmt.Sprintf("flood%d", i)
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("POST %d over a full backlog answered %d, want 503", i, rec.Code)
		}
	}
	if len(q.ring) != 2 || len(healthTenants()) != 2 {
		t.Fatalf("after 1000 rejected POSTs: ring %d tenants, /healthz %d, want 2 (hog and w)", len(q.ring), len(healthTenants()))
	}
	q.Release(hog)
	for _, j := range backlog {
		q.Release(j)
	}
	if len(q.ring) != 0 {
		t.Fatalf("%d tenants left in the ring after the backlog drained", len(q.ring))
	}

	// Weight-2 tenant x banks credit on its first visit, then goes idle and
	// leaves; when it returns it queues behind y, with nothing banked.
	q2 := newSweepQueue(queueConfig{slots: 1, queueDepth: 4, maxQueued: 8, weights: map[string]int{"x": 2}})
	x1, _ := q2.Admit("x1", "x", dse.PriorityBatch, 1)
	y1, _ := q2.Admit("y1", "y", dse.PriorityBatch, 1)
	if !isGranted(x1) || q2.ring[0].deficit[classBatch] != 1 {
		t.Fatalf("x1 not dispatched with one unit of credit left (deficit %v)", q2.ring[0].deficit)
	}
	q2.Release(x1)
	if !isGranted(y1) {
		t.Fatal("y1 did not dispatch once x1 finished")
	}
	x2, _ := q2.Admit("x2", "x", dse.PriorityBatch, 1)
	if len(q2.ring) != 2 || q2.ring[1].name != "x" || q2.ring[1].deficit != [numClasses]int{} {
		t.Fatalf("returning tenant: ring %v, want x at the end with zero deficit", q2.ring)
	}
	q2.Release(y1)
	if !isGranted(x2) {
		t.Fatal("x2 did not dispatch once y1 finished")
	}
	q2.Release(x2)

	// A tenant ahead of the interactive cursor leaves while the pool is
	// full: the cursor stays on the tenant it was serving. When that tenant
	// leaves in turn, its successor gets a fresh visit.
	q3 := newSweepQueue(queueConfig{slots: 1, queueDepth: 4, maxQueued: 8})
	a1, _ := q3.Admit("a1", "a", dse.PriorityInteractive, 1)
	b1, _ := q3.Admit("b1", "b", dse.PriorityInteractive, 1)
	c1, _ := q3.Admit("c1", "c", dse.PriorityInteractive, 1)
	d1, _ := q3.Admit("d1", "d", dse.PriorityInteractive, 1)
	a2, _ := q3.Admit("a2", "a", dse.PriorityInteractive, 1)
	q3.Release(a1)
	if !isGranted(a1) || !isGranted(b1) {
		t.Fatal("a1 then b1 did not dispatch")
	}
	q3.Release(a2)
	cursorsLive(q3, "tenant a left")
	if len(q3.ring) != 3 || q3.ring[q3.sched[classInteractive].cursor].name != "b" {
		t.Fatalf("after a left: %d tenants, interactive cursor %d, want it on b", len(q3.ring), q3.sched[classInteractive].cursor)
	}
	q3.Release(b1)
	if !isGranted(c1) || isGranted(d1) {
		t.Fatal("c1, next after b on the ring, did not dispatch once b1 finished")
	}
	q3.Release(c1)
	q3.Release(d1)
	if len(q3.ring) != 0 {
		t.Fatalf("%d tenants left after the last release", len(q3.ring))
	}
}

// TestQueueInteractiveTTFRBeatsFIFO pins the acceptance criterion that
// priority scheduling improves interactive time-to-first-result under mixed
// load: the interactive sweep's dispatch index (the TTFR proxy — every
// dispatch is one sweep completion away) must beat its arrival position,
// which is where strict admission-order dispatch would serve it.
func TestQueueInteractiveTTFRBeatsFIFO(t *testing.T) {
	rec := &queueRecorder{}
	q := newSweepQueue(queueConfig{slots: 2, queueDepth: 16, maxQueued: 64, hook: rec.hook})
	jobs := make(map[string]*job)
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("bulk%d", i)
		j, aerr := q.Admit(id, "bulk", dse.PriorityBatch, 1)
		if aerr != nil {
			t.Fatal(aerr)
		}
		jobs[id] = j
	}
	dev, aerr := q.Admit("dev", "dev", dse.PriorityInteractive, 1)
	if aerr != nil {
		t.Fatal(aerr)
	}
	jobs["dev"] = dev
	drain(t, q, rec, jobs)
	// The interactive sweep arrived 7th, behind every batch job.
	const arrival = 7
	if dev.grantIndex >= arrival {
		t.Errorf("interactive dispatch index %d, arrival position %d; priority must win", dev.grantIndex, arrival)
	}
}
