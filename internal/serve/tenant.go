// Per-tenant queue state for the sweep queue: one FIFO of waiting jobs and
// one deficit-round-robin credit per priority class, both indexed by class.
// A tenantState lives only while its tenant has a job waiting or running.

package serve

import (
	"slices"

	"gemini/internal/dse"
)

// Priority classes index a tenant's FIFOs and deficits and the queue's
// round-robin cursors.
const (
	classInteractive = iota
	classBatch
	numClasses
)

// classOf maps a sweep priority to its class index.
func classOf(p dse.SweepPriority) int {
	if p == dse.PriorityBatch {
		return classBatch
	}
	return classInteractive
}

// tenantState is one tenant's slice of the sweep queue. All fields are
// guarded by the owning sweepQueue's mutex.
type tenantState struct {
	name   string
	weight int

	queue   [numClasses][]*job // waiting jobs per class, head first
	deficit [numClasses]int    // round-robin credit per class
}

// waiting is the tenant's total waiting-job count across classes, the
// quantity the admission quota bounds.
func (t *tenantState) waiting() int {
	return len(t.queue[classInteractive]) + len(t.queue[classBatch])
}

// head returns the tenant's next waiting job in one class without removing
// it, or nil.
func (t *tenantState) head(class int) *job {
	if len(t.queue[class]) == 0 {
		return nil
	}
	return t.queue[class][0]
}

// push appends a job to its class FIFO — or prepends it when front is set,
// which is how a preempted job keeps its place for resume.
func (t *tenantState) push(j *job, front bool) {
	q := &t.queue[j.class()]
	if front {
		*q = slices.Insert(*q, 0, j)
		return
	}
	*q = append(*q, j)
}

// remove deletes a specific job from its class FIFO (dispatch or abandon),
// reporting whether it was waiting there.
func (t *tenantState) remove(j *job) bool {
	q := &t.queue[j.class()]
	i := slices.Index(*q, j)
	if i < 0 {
		return false
	}
	*q = slices.Delete(*q, i, i+1)
	return true
}
