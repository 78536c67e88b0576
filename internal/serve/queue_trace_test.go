// The queue's pinned trace: a seeded mix of admissions, releases,
// preemption yields and rejections over weighted tenants, recorded event
// by event against a golden file, so any rewrite of the queue that moves a
// single dispatch, preemption or rejection shows up as a diff.
package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gemini/internal/dse"
	"gemini/internal/intake"
)

// queueClient plays the handler's side of the queue protocol: it admits and
// releases jobs, binds a preemption hook to each dispatched job (now or on a
// later step), yields the signaled ones and consumes every grant token.
type queueClient struct {
	q    *sweepQueue
	next int
	// live holds every admitted, unreleased job in admission order.
	live []*job
	// bound marks jobs whose current dispatch round has a preemption hook;
	// signaled marks jobs whose hook fired and which have not yet yielded.
	bound    map[*job]bool
	signaled map[*job]bool
	// grants counts consumed grant tokens per job.
	grants map[*job]int
}

func newQueueClient(cfg queueConfig) *queueClient {
	return &queueClient{
		q:        newSweepQueue(cfg),
		bound:    make(map[*job]bool),
		signaled: make(map[*job]bool),
		grants:   make(map[*job]int),
	}
}

// admit submits one job under the next sequential id, returning the id and
// the queue's rejection, if any.
func (d *queueClient) admit(tenant string, pri dse.SweepPriority, slots int) (string, *intake.Error) {
	id := fmt.Sprintf("j%03d", d.next)
	d.next++
	j, aerr := d.q.Admit(id, tenant, pri, slots)
	if aerr == nil {
		d.live = append(d.live, j)
	}
	return id, aerr
}

// release ends live job i.
func (d *queueClient) release(i int) *job {
	j := d.live[i]
	d.live = append(d.live[:i], d.live[i+1:]...)
	d.q.Release(j)
	delete(d.bound, j)
	delete(d.signaled, j)
	return j
}

// yieldable lists the live jobs whose preemption hook fired, in admission
// order.
func (d *queueClient) yieldable() []*job {
	var out []*job
	for _, j := range d.live {
		if d.signaled[j] {
			out = append(out, j)
		}
	}
	return out
}

// yield acks j's preemption as the handler does once it has checkpointed.
func (d *queueClient) yield(j *job) {
	d.signaled[j] = false
	d.bound[j] = false
	d.q.Yield(j)
}

// settle consumes every pending grant token, returning the jobs that held
// one, then binds a preemption hook to each once-granted job without one
// when bind says so — a job left unbound here is bound on a later step,
// after a signal may already have raced ahead of it.
func (d *queueClient) settle(bind func() bool) (granted []*job) {
	for _, j := range d.live {
		if isGranted(j) {
			d.grants[j]++
			d.bound[j] = false
			granted = append(granted, j)
		}
	}
	for _, j := range d.live {
		if d.grants[j] > 0 && !d.bound[j] && bind() {
			d.bound[j] = true
			d.q.BindPreempt(j, func() { d.signaled[j] = true })
		}
	}
	return granted
}

// traceQueue runs a seeded operation mix and returns its transcript: each
// step, the hook events it caused, and the queue-wide health fields after
// it. Per-tenant health is left out.
func traceQueue(seed int64, steps int) string {
	var b strings.Builder
	cfg := queueConfig{
		slots: 4, queueDepth: 3, maxQueued: 6,
		weights: map[string]int{"a": 2, "b": 1, "c": 1},
		hook: func(ev queueEvent) {
			fmt.Fprintf(&b, "  %s %s %s %s %d\n", ev.kind, ev.id, ev.tenant, ev.priority, ev.slots)
		},
	}
	d := newQueueClient(cfg)
	rng := rand.New(rand.NewSource(seed))
	tenants := []string{"a", "b", "c"}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			ten := tenants[rng.Intn(len(tenants))]
			pri := dse.PriorityBatch
			if rng.Intn(2) == 0 {
				pri = dse.PriorityInteractive
			}
			slots := 1 + rng.Intn(3)
			fmt.Fprintf(&b, "%d admit %s %s %d\n", step, ten, pri, slots)
			id, aerr := d.admit(ten, pri, slots)
			if aerr != nil {
				fmt.Fprintf(&b, "  rejected %s %d retry=%d\n", id, aerr.Code, aerr.RetryAfter)
			}
		case op < 8:
			if len(d.live) == 0 {
				fmt.Fprintf(&b, "%d release -\n", step)
				break
			}
			i := rng.Intn(len(d.live))
			fmt.Fprintf(&b, "%d release %s\n", step, d.live[i].id)
			d.release(i)
		default:
			ys := d.yieldable()
			if len(ys) == 0 {
				fmt.Fprintf(&b, "%d yield -\n", step)
				break
			}
			j := ys[rng.Intn(len(ys))]
			fmt.Fprintf(&b, "%d yield %s\n", step, j.id)
			d.yield(j)
		}
		d.settle(func() bool { return rng.Intn(2) == 0 })
		qh := d.q.health()
		fmt.Fprintf(&b, "  health free=%d running=%d waiting=%d/%d preemptions=%d resumes=%d rejected=%d/%d\n",
			qh.FreeSlots, qh.RunningSweeps, qh.WaitingInteractive, qh.WaitingBatch,
			qh.Preemptions, qh.Resumes, qh.Rejected429, qh.Rejected503)
	}
	return b.String()
}

// TestQueueTraceGolden pins the queue's complete decision sequence — every
// dispatch, preemption signal, yield, finish and rejection, with the
// queue-wide counters after each step — for a seeded mix over three
// weighted tenants, both classes and 1-3-slot jobs.
func TestQueueTraceGolden(t *testing.T) {
	checkGolden(t, "queue_trace.golden", traceQueue(28, 400))
}

// FuzzQueueOps decodes bytes into a sequence of Admit, Release, Yield and
// BindPreempt calls and checks the queue's invariants after every step: no
// slot is over-granted, every live job sits in exactly one place (its
// tenant's class FIFO or the running list), a tenant exists exactly while
// it has a job waiting or running, the round-robin cursors point into the
// ring, and a grant token only ever goes to a running job.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{0, 0x1b, 0, 0x05, 0, 0x12, 1, 0, 2, 0, 0, 0x0e})
	f.Add([]byte{0, 0x18, 0, 0x19, 0, 0x04, 2, 0, 6, 1, 1, 2, 2, 0, 1, 0})
	f.Add([]byte{0, 0x10, 0, 0x0c, 0, 0x15, 2, 0, 1, 0, 0, 0x0d, 1, 1, 1, 0})
	f.Add([]byte("\x00\x10\x00\x11\x00\x12\x00\x13\x00\x14\x00\x15\x00\x16\x00\x17"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newQueueClient(queueConfig{
			slots: 4, queueDepth: 2, maxQueued: 5,
			weights: map[string]int{"a": 2, "b": 1},
		})
		tenants := []string{"a", "b", "c", "d"}
		for len(data) >= 2 {
			op, arg := data[0], int(data[1])
			data = data[2:]
			switch op % 3 {
			case 0:
				pri := dse.PriorityBatch
				if arg&4 != 0 {
					pri = dse.PriorityInteractive
				}
				d.admit(tenants[arg%4], pri, 1+(arg>>3)%3)
			case 1:
				if len(d.live) > 0 {
					d.release(arg % len(d.live))
				}
			default:
				if ys := d.yieldable(); len(ys) > 0 {
					d.yield(ys[arg%len(ys)])
				}
			}
			for _, j := range d.settle(func() bool { return op&4 == 0 }) {
				if !slices.Contains(d.q.running, j) {
					t.Fatalf("grant token for %s, which is not running", j.id)
				}
			}
			checkQueueInvariants(t, d)
		}
	})
}

// checkQueueInvariants asserts the queue's structural invariants against
// the client's record of live jobs.
func checkQueueInvariants(t *testing.T, d *queueClient) {
	t.Helper()
	q := d.q
	held := 0
	where := make(map[*job]int)
	for _, r := range q.running {
		held += r.slots
		where[r]++
	}
	if held > q.cfg.slots {
		t.Fatalf("running jobs hold %d slots of %d", held, q.cfg.slots)
	}
	names := make(map[string]bool)
	for _, ten := range q.ring {
		if names[ten.name] {
			t.Fatalf("tenant %s is in the ring twice", ten.name)
		}
		names[ten.name] = true
		if ten.waiting() == 0 && q.runningOfLocked(ten.name) == 0 {
			t.Fatalf("tenant %s is in the ring with no job", ten.name)
		}
		for c, fifo := range ten.queue {
			for _, j := range fifo {
				if j.tenant != ten.name || j.class() != c {
					t.Fatalf("job %s (%s, class %d) waits in %s's class-%d FIFO", j.id, j.tenant, j.class(), ten.name, c)
				}
				where[j]++
			}
		}
	}
	for _, j := range d.live {
		if where[j] != 1 {
			t.Fatalf("live job %s sits in %d places", j.id, where[j])
		}
		if !names[j.tenant] {
			t.Fatalf("live job %s's tenant %s is not in the ring", j.id, j.tenant)
		}
		delete(where, j)
	}
	for j := range where {
		t.Fatalf("released job %s is still queued or running", j.id)
	}
	for c, cs := range q.sched {
		if cs.cursor != 0 && cs.cursor >= len(q.ring) {
			t.Fatalf("class %d cursor %d past a %d-tenant ring", c, cs.cursor, len(q.ring))
		}
	}
}
