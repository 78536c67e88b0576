// Package intake is the front door shared by the sweep service's POST /sweep
// and the fleet coordinator's POST /sweeps: the bounded JSON decode, spec
// intake (validation, the sweep id rule, grid resolution and the cell cap),
// the JSON error envelope and the bounded sweep registry. Both surfaces
// answer the same spec with the same status code because both call these.
package intake

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"net/http"
	"slices"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/dse"
)

// BodyLimit bounds a spec-carrying request body: a POST /sweep spec, a
// fleet submit, and the fleet's other control messages.
const BodyLimit = 1 << 20

// Error is a refused request: its status code, the seconds a client should
// back off (queue rejections only; 0 otherwise) and the message.
type Error struct {
	Code       int
	RetryAfter int
	Msg        string
}

// Error returns the message.
func (e *Error) Error() string { return e.Msg }

// Write answers the request with e's envelope, plus the Retry-After header
// the envelope mirrors when e carries a back-off.
func (e *Error) Write(w http.ResponseWriter) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", e.RetryAfter))
	}
	WriteJSON(w, e.Code, ErrorBody{Error: e.Msg, RetryAfterSeconds: e.RetryAfter})
}

// ErrorBody is the JSON error envelope of every non-streaming failure.
type ErrorBody struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on queue rejections
	// (429 per-tenant quota, 503 server-wide backlog); zero otherwise.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// WriteJSON answers the request with v as indented JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError answers the request with the error envelope.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	(&Error{Code: code, Msg: fmt.Sprintf(format, args...)}).Write(w)
}

// Decode decodes a request's JSON body into v, reading at most limit bytes,
// and on failure answers the request itself: 413 past the limit, 400 for
// anything else. strict additionally rejects unknown fields, as every
// client-facing spec does; fleet worker messages stay lenient so a fleet can
// be upgraded one process at a time. what names the message in the error.
func Decode(w http.ResponseWriter, r *http.Request, limit int64, strict bool, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if strict {
		dec.DisallowUnknownFields()
	}
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, limit)
	} else {
		WriteError(w, http.StatusBadRequest, "decoding %s: %v", what, err)
	}
	return false
}

// Resolve is spec intake: it validates spec, checks its id against
// dse.NamePattern or mints one as prefix-<12 hex digits>, and enumerates its
// candidates and builds its graphs, refusing a grid over maxCells cells
// (0: no cap). On failure it answers the request itself (400, or 422 over
// the cap) and returns ok false.
//
// The id rule lives here, not in dse.Spec.Validate: a fleet lease's spec
// carries the id <id>.sN, which may be longer than the pattern allows.
func Resolve(w http.ResponseWriter, spec *dse.Spec, prefix string, maxCells int) (cands []arch.Config, graphs []*dnn.Graph, ok bool) {
	if err := spec.Validate(); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, false
	}
	if spec.ID == "" {
		spec.ID = mintID(prefix)
	} else if !dse.NamePattern.MatchString(spec.ID) {
		// Ids are /sweeps/{id} path segments and history-log keys.
		WriteError(w, http.StatusBadRequest, "sweep id %q: want %s", spec.ID, dse.NamePattern)
		return nil, nil, false
	}
	cands, err := spec.Candidates()
	if err == nil {
		graphs, err = spec.Graphs()
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, false
	}
	if cells := len(cands) * len(graphs); maxCells > 0 && cells > maxCells {
		WriteError(w, http.StatusUnprocessableEntity, "sweep has %d cells, server cap is %d", cells, maxCells)
		return nil, nil, false
	}
	return cands, graphs, true
}

// mintID generates a sweep id for a submission that carries none.
func mintID(prefix string) string {
	var b [6]byte
	_, _ = rand.Read(b[:]) // never fails: since Go 1.24 it crashes instead
	return prefix + "-" + hex.EncodeToString(b[:])
}

// RegistryCap bounds a Registry: past it, the oldest finished records are
// evicted. It also bounds the sweep service's history log.
const RegistryCap = 1024

// Registry is a bounded table of sweep records kept in registration order.
// An active record owns its id: it can be neither superseded nor evicted.
// The registry takes no lock of its own: its owner guards every call with
// the lock that also guards what the records are admitted alongside.
type Registry[R interface{ Active() bool }] struct {
	recs map[string]R
	ids  []string // registration order
}

// Check refuses id with a 409 while an active record holds it, and any id
// with a 503 while RegistryCap records are held and none is finished: Put
// could evict nothing, and every active record pins its sweep's grid.
func (g *Registry[R]) Check(id string) *Error {
	if rec, ok := g.recs[id]; ok && rec.Active() {
		return &Error{Code: http.StatusConflict, Msg: fmt.Sprintf("sweep %q is still running", id)}
	}
	if len(g.ids) >= RegistryCap && !slices.ContainsFunc(g.ids, func(x string) bool { return !g.recs[x].Active() }) {
		return &Error{Code: http.StatusServiceUnavailable, Msg: fmt.Sprintf("%d sweeps are still running", len(g.ids))}
	}
	return nil
}

// Put records rec under id, after Check passed. A finished record under id
// is superseded, and id moves to the end of the order. Beyond RegistryCap
// records the oldest finished ones are evicted.
func (g *Registry[R]) Put(id string, rec R) {
	if g.recs == nil {
		g.recs = make(map[string]R)
	}
	if _, ok := g.recs[id]; ok {
		g.ids = slices.DeleteFunc(g.ids, func(x string) bool { return x == id })
	}
	g.recs[id] = rec
	g.ids = append(g.ids, id)
	for i := 0; len(g.ids) > RegistryCap && i < len(g.ids); {
		if old := g.ids[i]; !g.recs[old].Active() {
			delete(g.recs, old)
			g.ids = slices.Delete(g.ids, i, i+1)
			continue
		}
		i++
	}
}

// Get returns the record under id.
func (g *Registry[R]) Get(id string) (R, bool) {
	rec, ok := g.recs[id]
	return rec, ok
}

// Len counts the records.
func (g *Registry[R]) Len() int { return len(g.ids) }

// All yields the records in registration order. The caller must not Put
// while iterating.
func (g *Registry[R]) All() iter.Seq[R] {
	return func(yield func(R) bool) {
		for _, id := range g.ids {
			if !yield(g.recs[id]) {
				return
			}
		}
	}
}
