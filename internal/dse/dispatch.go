// Cell dispatch: the feed the sweep scheduler's workers pull their
// (candidate, model) cell indices from. The default feed walks the
// bound-ordered schedule candidate-major; Options.Dispatch lets a caller
// wrap that feed — to reorder it, as the grid-order test hook does, or to
// observe dispatch order — without the scheduler knowing or caring.
// Cancellation, preemption included, travels on the sweep context, never on
// the feed. A feed only ever schedules: which cells run, and in what order,
// can never change a computed cell's bits, which is why Dispatch is
// excluded from the checkpoint fingerprint.
package dse

import "sync"

// Dispatcher feeds cell indices to the sweep scheduler's worker pool. A cell
// index k encodes the (candidate, model) pair (k/len(models), k%len(models))
// of the running sweep. Implementations must be safe for concurrent Next
// calls: every worker pulls from the one feed.
type Dispatcher interface {
	// Next returns the next cell index to run. ok == false means the feed is
	// exhausted and the calling worker should exit.
	// Once Next has returned ok == false it must keep doing so.
	Next() (cell int, ok bool)
}

// sliceDispatcher is the default feed: a fixed schedule walked front to
// back under a mutex. The scheduler builds one per sweep from its
// bound-ordered candidate schedule.
type sliceDispatcher struct {
	mu    sync.Mutex
	cells []int
	pos   int
}

func newSliceDispatcher(cells []int) *sliceDispatcher {
	return &sliceDispatcher{cells: cells}
}

func (d *sliceDispatcher) Next() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pos >= len(d.cells) {
		return 0, false
	}
	k := d.cells[d.pos]
	d.pos++
	return k, true
}

// feed builds the sweep's dispatch feed over its candidates in schedule
// order, cells candidate-major, wrapping it with Options.Dispatch when set.
func (sc *scheduler) feed(nm int) Dispatcher {
	cells := make([]int, 0, len(sc.order)*nm)
	for _, ci := range sc.order {
		for mi := 0; mi < nm; mi++ {
			cells = append(cells, ci*nm+mi)
		}
	}
	var d Dispatcher = newSliceDispatcher(cells)
	if sc.opt.Dispatch != nil {
		if wrapped := sc.opt.Dispatch(d); wrapped != nil {
			d = wrapped
		}
	}
	return d
}
