// Event-log streaming: every sweep keeps a bounded in-memory log of the
// NDJSON events it has emitted, so a client that loses its POST /sweep
// connection — or a second observer — can attach GET /sweeps/{id}/stream
// and replay the whole stream from the first event, then follow it live
// until the terminal done/error line.
package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"

	"gemini/internal/intake"
)

// errPreempted is the cancellation cause the queue uses to interrupt a
// batch sweep's run round. The handler tells it apart from a real cancel
// (client disconnect, DELETE, shutdown): a preempted round checkpoints,
// yields its slots and waits for re-dispatch instead of finishing.
var errPreempted = errors.New("serve: sweep preempted")

// maxLogEvents bounds one sweep's retained event history; when a stream
// outgrows it the oldest half is dropped, so a late re-attach on a huge
// sweep replays a suffix rather than nothing.
const maxLogEvents = 8192

// eventLog is one sweep's append-only event history plus a condition
// variable for live followers. Terminal events (done/error) close the log.
type eventLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	base   int // stream index of events[0] (grows when old events drop)
	events []Event
	closed bool
}

func newEventLog() *eventLog {
	l := &eventLog{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// append records one emitted event and wakes followers. Events after the
// terminal one are dropped (the backstop can race the normal finish path).
func (l *eventLog) append(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if len(l.events) >= maxLogEvents {
		drop := len(l.events) / 2
		l.events = append([]Event(nil), l.events[drop:]...)
		l.base += drop
	}
	l.events = append(l.events, ev)
	if ev.Type == "done" || ev.Type == "error" {
		l.closed = true
	}
	l.cond.Broadcast()
}

// next returns the events at stream index cursor and beyond, blocking until
// some exist, the log closes, or stop reports the follower is gone (pair
// stop with wake). drained means the log is closed and fully delivered.
func (l *eventLog) next(cursor int, stop func() bool) (evs []Event, nextCursor int, drained bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor < l.base {
		cursor = l.base
	}
	for cursor >= l.base+len(l.events) && !l.closed && !stop() {
		l.cond.Wait()
	}
	evs = append([]Event(nil), l.events[cursor-l.base:]...)
	nextCursor = cursor + len(evs)
	drained = l.closed && nextCursor == l.base+len(l.events)
	return evs, nextCursor, drained
}

// wake unblocks followers so they can re-check their stop condition (wired
// to the follower's request context).
func (l *eventLog) wake() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cond.Broadcast()
}

// handleStream serves GET /sweeps/{id}/stream: replay the sweep's event log
// from the beginning as NDJSON, then follow it live until the terminal
// event or client disconnect. The same typed events as the POST stream, so
// a client that lost its POST connection re-attaches here losslessly.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sw, ok := s.lookup(id)
	if !ok {
		intake.WriteError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Id", sw.st.ID)
	w.WriteHeader(http.StatusOK)
	stream := newStreamWriter(w)
	ctx := r.Context()
	stopWake := context.AfterFunc(ctx, sw.log.wake)
	defer stopWake()
	cursor := 0
	for {
		evs, next, drained := sw.log.next(cursor, func() bool { return ctx.Err() != nil })
		for _, ev := range evs {
			stream.send(ev)
		}
		cursor = next
		if drained || ctx.Err() != nil {
			return
		}
	}
}
