// Event-log streaming: a sweep only appends its events to a bounded
// in-memory log, and follow is the one writer of NDJSON to clients. POST
// /sweep and GET /sweeps/{id}/stream both replay the log from its first
// event and follow it live to the terminal done/error line, so no client's
// reading pace reaches the scheduler. The log holds every event its POST
// follower has not yet written, so the submitting client loses nothing
// however far it lags; only a GET follower can fall off the ring.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"gemini/internal/intake"
)

// errPreempted is the cancellation cause the queue uses to interrupt a
// batch sweep's run round. The sweep tells it apart from a real cancel
// (client disconnect, DELETE, shutdown): a preempted round checkpoints,
// yields its slots and waits for re-dispatch instead of finishing.
var errPreempted = errors.New("serve: sweep preempted")

// maxLogEvents bounds one sweep's retained event history; when a stream
// outgrows it the oldest half is dropped, save events the POST follower has
// yet to write, and a GET follower that had not read the dropped events
// gets one error event pointing at GET /sweeps/{id}.
const maxLogEvents = 8192

// eventLog is one sweep's append-only event history plus a condition
// variable for live followers. Terminal events (done/error) close the log.
type eventLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	base   int // stream index of events[0] (grows when old events drop)
	events []Event
	closed bool
	held   int // the POST follower's cursor while it streams, else math.MaxInt
}

// newEventLog returns an empty log, held at its first event for the POST
// follower when held is set.
func newEventLog(held bool) *eventLog {
	l := &eventLog{held: math.MaxInt}
	if held {
		l.held = 0
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// trim drops the oldest events past the ring's bound, but none the POST
// follower has yet to write: its lag is bounded by its write deadline, not
// by the ring. Dropping half a ring at the least keeps a held log's copies
// amortized.
func (l *eventLog) trim() {
	drop := min(len(l.events)-maxLogEvents/2, l.held-l.base)
	if len(l.events) >= maxLogEvents && drop >= maxLogEvents/2 {
		l.events = append([]Event(nil), l.events[drop:]...)
		l.base += drop
	}
}

// append records one emitted event and wakes followers. Events after the
// terminal one are dropped (the backstop can race the normal finish path).
func (l *eventLog) append(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.trim()
	l.events = append(l.events, ev)
	if ev.Type == "done" || ev.Type == "error" {
		l.closed = true
	}
	l.cond.Broadcast()
}

// next returns the events at stream index cursor and beyond, blocking until
// some exist, the log closes, or stop reports the follower is gone (pair
// stop with wake). A held follower moves the hold up to cursor. drained
// means the log is closed and fully delivered; dropped means the event at
// cursor has already left the log.
func (l *eventLog) next(cursor int, held bool, stop func() bool) (evs []Event, nextCursor int, drained, dropped bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if held {
		l.held = cursor
	}
	if cursor < l.base {
		return nil, cursor, false, true
	}
	for cursor >= l.base+len(l.events) && !l.closed && !stop() {
		l.cond.Wait()
	}
	evs = append([]Event(nil), l.events[cursor-l.base:]...)
	nextCursor = cursor + len(evs)
	drained = l.closed && nextCursor == l.base+len(l.events)
	return evs, nextCursor, drained, false
}

// release ends the POST follower's hold and trims what it kept.
func (l *eventLog) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.held = math.MaxInt
	l.trim()
}

// wake unblocks followers so they can re-check their stop condition (wired
// to the follower's request context).
func (l *eventLog) wake() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cond.Broadcast()
}

// streamWriteTimeout bounds the writes of each streamChunk events: a reader
// that takes none of a chunk's bytes (under 30 KB) within it is
// disconnected, while a slow reader stays attached.
const (
	streamWriteTimeout = 10 * time.Second
	streamChunk        = 32
)

// follow writes sw's event log to w as NDJSON, one write deadline per chunk
// and one flush per batch, until the terminal event, a failed write or the end of
// ctx, the request's: a canceled sweep's terminal event still goes out.
// held marks the sweep's POST follower, which the log waits for; a GET
// follower the log dropped unsent events from gets one error event instead.
func follow(ctx context.Context, w http.ResponseWriter, sw *sweep, held bool) {
	id := sw.st.ID
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Id", id)
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	stopWake := context.AfterFunc(ctx, sw.log.wake)
	defer stopWake()
	if held {
		defer sw.log.release()
	}
	for cursor := 0; ; {
		evs, next, drained, dropped := sw.log.next(cursor, held, func() bool { return ctx.Err() != nil })
		if dropped {
			msg := fmt.Sprintf("stream fell behind the sweep's event log; read its state from GET /sweeps/%s", id)
			evs, drained = []Event{{Type: "error", SweepID: id, Error: msg}}, true
		}
		for i, ev := range evs {
			if i%streamChunk == 0 {
				// A writer that takes no deadline (a test recorder) streams without.
				_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			}
			if enc.Encode(ev) != nil {
				return
			}
		}
		if rc.Flush() != nil || drained || ctx.Err() != nil {
			return
		}
		cursor = next
	}
}

// handleStream serves GET /sweeps/{id}/stream, the POST stream's follower,
// so a client that lost its POST connection re-attaches here losslessly.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sw, ok := s.lookup(id)
	if !ok {
		intake.WriteError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	follow(r.Context(), w, sw, false)
}
