// Per-tenant queue state for the sweep queue: one FIFO of waiting jobs per
// priority class, the tenant's deficit-round-robin credit per class, and
// the counters the health endpoint reports.
package serve

import "gemini/internal/dse"

// tenantState is one tenant's slice of the sweep queue. All fields are
// guarded by the owning sweepQueue's mutex.
type tenantState struct {
	name   string
	weight int

	qInteractive []*job
	qBatch       []*job

	defInteractive int
	defBatch       int

	running     int   // dispatched jobs
	dispatched  int64 // lifetime dispatch count
	preemptions int64 // lifetime preemption-yield count
	rejected    int64 // lifetime admission rejections
}

// queueFor returns the tenant's waiting FIFO for one class.
func (t *tenantState) queueFor(class dse.SweepPriority) *[]*job {
	if class == dse.PriorityBatch {
		return &t.qBatch
	}
	return &t.qInteractive
}

// waiting is the tenant's total waiting-job count across classes, the
// quantity the admission quota bounds.
func (t *tenantState) waiting() int {
	return len(t.qInteractive) + len(t.qBatch)
}

// head returns the tenant's next waiting job in one class without removing
// it, or nil.
func (t *tenantState) head(class dse.SweepPriority) *job {
	q := *t.queueFor(class)
	if len(q) == 0 {
		return nil
	}
	return q[0]
}

// push appends a job to its class FIFO — or prepends it when front is set,
// which is how a preempted job keeps its place for resume.
func (t *tenantState) push(j *job, front bool) {
	q := t.queueFor(j.priority)
	if front {
		*q = append([]*job{j}, *q...)
		return
	}
	*q = append(*q, j)
}

// remove deletes a specific job from its class FIFO (dispatch or abandon).
func (t *tenantState) remove(j *job) {
	q := t.queueFor(j.priority)
	for i, x := range *q {
		if x == j {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}

// deficit returns the tenant's round-robin credit in one class.
func (t *tenantState) deficit(class dse.SweepPriority) int {
	if class == dse.PriorityBatch {
		return t.defBatch
	}
	return t.defInteractive
}

// setDeficit stores the tenant's round-robin credit in one class.
func (t *tenantState) setDeficit(class dse.SweepPriority, d int) {
	if class == dse.PriorityBatch {
		t.defBatch = d
	} else {
		t.defInteractive = d
	}
}
