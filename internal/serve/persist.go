// Server persistence: everything the server writes to disk on behalf of
// /sweep and the fleet goes through one persister. Sweeps only compute —
// cells settle in the server's dse.Session, whether a /sweep mapped them or
// a fleet worker uploaded them — and the persister decides when that state
// reaches disk: one checkpoint file per DataDir, kept current by one
// coalescing saver goroutine and flushed synchronously at the points a sweep
// promises durability, and one history log per DataDir, one line appended
// per finished sweep. The evaluation cache stays in memory: a restart
// recomputes only what the checkpoint does not already settle.
package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"gemini/internal/atomicfile"
	"gemini/internal/dse"
	"gemini/internal/intake"
)

// checkpointName is the server's one checkpoint file in DataDir. Sweep ids
// cannot start with '_' (dse.NamePattern), so it never collides with the
// <id>.ckpt files older servers wrote per sweep.
const checkpointName = "_session.ckpt"

// historyName is the server's sweep-history log in DataDir: one compact
// JSON status record per line, in save order, so a later line for an id
// supersedes earlier ones.
const historyName = "_history.ndjson"

// persister owns a server's checkpoint file, its saver and its history log.
// Its embedded tracker accounts for every save the server makes —
// checkpoints and history. Without DataDir it does nothing: no goroutine, no
// file access.
type persister struct {
	persistenceTracker

	ses     *dse.Session
	dataDir string
	fault   func(point, key string) error // Config.fault
	logf    func(format string, args ...any)

	// req holds the one pending checkpoint save (nil without DataDir, which
	// makes poke a no-op); done closes when the saver goroutine returns.
	req  chan struct{}
	done chan struct{}
	// mu serializes checkpoint writes, so at most one is in flight.
	mu sync.Mutex

	// histMu serializes history-log writes. appended counts the lines
	// appended since the log was last rewritten; rewrite is set while the
	// file may end in a torn line, so the next save rewrites it whole.
	histMu   sync.Mutex
	appended int
	rewrite  bool
}

// newPersister loads what DataDir already holds into ses and starts the
// saver, which runs until ctx ends.
func newPersister(ctx context.Context, ses *dse.Session, cfg Config, logf func(format string, args ...any)) *persister {
	p := &persister{ses: ses, dataDir: cfg.DataDir, fault: cfg.fault, logf: logf}
	if p.dataDir != "" {
		p.loadCheckpoints()
		p.req = make(chan struct{}, 1)
		p.done = make(chan struct{})
		go p.run(ctx)
	}
	return p
}

// loadCheckpoints merges every *.ckpt in DataDir into the session, in Glob
// order: the server's own file, and the per-sweep and per-fleet-sweep
// checkpoints older servers left there. Sweeps never read checkpoint files,
// so this is the one load. A failed read skips its file; a file that does
// not decode is quarantined to <name>.corrupt (dse.Session.LoadCheckpointFile).
func (p *persister) loadCheckpoints() {
	paths, err := filepath.Glob(filepath.Join(p.dataDir, "*.ckpt"))
	if err != nil {
		p.logf("serve: listing checkpoints in %s: %v", p.dataDir, err)
		return
	}
	for _, path := range paths {
		err := p.check("checkpoint-load", path)
		if err == nil {
			err = p.ses.LoadCheckpointFile(path)
		}
		if err != nil {
			p.logf("serve: checkpoint %s not loaded: %v", path, err)
		}
	}
	if len(paths) > 0 {
		p.logf("serve: %d settled cells from %d checkpoint files in %s", p.ses.CheckpointCells(), len(paths), p.dataDir)
	}
}

// run is the saver: it turns pokes into checkpoint saves until ctx ends,
// then makes the save still pending, if any, so a poke before Close — a
// fleet upload's, say — reaches disk.
func (p *persister) run(ctx context.Context) {
	defer close(p.done)
	for {
		select {
		case <-p.req:
			p.flush("incremental")
		case <-ctx.Done():
			if len(p.req) > 0 {
				p.flush("final")
			}
			return
		}
	}
}

// poke asks the saver for a checkpoint save without waiting for it, so it
// is safe on the result path. A poke while a save is pending joins that
// save.
func (p *persister) poke() {
	select {
	case p.req <- struct{}{}:
	default:
	}
}

// flush writes the session's settled cells to the checkpoint file on the
// caller's goroutine: every cell settled before the call is on disk when it
// returns (or the failure is counted). The snapshot is taken after the
// pending poke is absorbed, so it covers every cell that poke announced.
func (p *persister) flush(label string) {
	if p.dataDir == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.req:
	default:
	}
	path := filepath.Join(p.dataDir, checkpointName)
	err := p.Do(func() error {
		if err := p.check("checkpoint-save", path); err != nil {
			return err
		}
		return atomicfile.Write(path, p.ses.SaveCheckpoint)
	})
	if err != nil {
		st := p.State()
		p.logf("serve: %s checkpoint save failed (errors %d, degraded %t): %v", label, st.Errors, st.Degraded, err)
	}
}

// loadHistory restores the finished-sweep history at startup from the log.
// It rewrites the log to hold exactly the records it returns, so a tail torn
// by a killed process never ends up mid-file.
func (p *persister) loadHistory() []SweepStatus {
	if p.dataDir == "" {
		return nil
	}
	path := filepath.Join(p.dataDir, historyName)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	sts := historyRecords(bytes.NewReader(raw))
	err = p.Do(func() error { return writeHistory(path, sts) })
	if p.rewrite = err != nil; p.rewrite {
		p.logf("serve: history log rewrite failed: %v", err)
	}
	p.logf("serve: restored %d sweep status records from %s", len(sts), p.dataDir)
	return sts
}

// historyRecords decodes r, stopping at the first value that does not decode
// (a torn tail, a damaged line). It skips records whose id is not a sweep
// name, lets a later record of an id replace an earlier one, and returns the
// newest intake.RegistryCap in start order, which is the registry's order: a
// re-POST moves its id to the end.
// A sweep recorded as running died with its server: it comes back canceled
// (its settled cells survive in the checkpoint, so re-POSTing the spec
// resumes it).
func historyRecords(r io.Reader) []SweepStatus {
	byID := make(map[string]SweepStatus)
	dec := json.NewDecoder(r)
	for {
		var st SweepStatus
		if dec.Decode(&st) != nil {
			break
		}
		if !dse.NamePattern.MatchString(st.ID) {
			continue
		}
		if st.State == StateRunning || st.State == StateQueued {
			st.State = StateCanceled
			st.Error = "server restarted while the sweep was running"
		}
		byID[st.ID] = st
	}
	sts := slices.SortedFunc(maps.Values(byID), func(a, b SweepStatus) int {
		return cmp.Or(a.StartedAt.Compare(b.StartedAt), strings.Compare(a.ID, b.ID))
	})
	return sts[max(0, len(sts)-intake.RegistryCap):]
}

// record saves a finished sweep's status: it appends one line to the
// history log. Once intake.RegistryCap lines have been appended since the last
// rewrite, or after a failed save that may have left a torn line, it
// rewrites the log from history() — the server's sweep table — instead, so
// the file stays bounded and whole. Losing a save costs only
// history-after-restart, so it runs under the tracker and is never fatal.
func (p *persister) record(st SweepStatus, history func() []SweepStatus) {
	if p.dataDir == "" {
		return
	}
	p.histMu.Lock()
	defer p.histMu.Unlock()
	path := filepath.Join(p.dataDir, historyName)
	err := p.Do(func() (err error) {
		if err := p.check("history-save", st.ID); err != nil {
			return err
		}
		if p.rewrite || p.appended >= intake.RegistryCap {
			err = writeHistory(path, history())
			p.appended = 0
		} else {
			err = appendHistory(path, st)
			p.appended++
		}
		p.rewrite = err != nil
		return err
	})
	if err != nil {
		p.logf("serve: sweep %s: history save failed: %v", st.ID, err)
	}
}

// appendHistory appends st to the log at path as one line, in one write.
func appendHistory(path string, st SweepStatus) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(st)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeHistory replaces the log at path with sts, one line each.
func writeHistory(path string, sts []SweepStatus) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, st := range sts {
			if err := enc.Encode(st); err != nil {
				return err
			}
		}
		return nil
	})
}

// check calls the fault hook, if one is set, at a persistence point.
func (p *persister) check(point, key string) error {
	if p.fault == nil {
		return nil
	}
	return p.fault(point, key)
}

// wait returns once the saver goroutine has stopped.
func (p *persister) wait() {
	if p.done != nil {
		<-p.done
	}
}

// persistDegradeAfter is how many consecutive persistence failures flip a
// tracker into degraded mode (a single hiccup on a healthy disk is not a
// degradation).
const persistDegradeAfter = 3

// persistSaveAttempts bounds the in-save retry loop of one persistence
// write; persistRetryDelay is the pause before the first in-save retry
// (doubling after).
const (
	persistSaveAttempts = 3
	persistRetryDelay   = 5 * time.Millisecond
)

// PersistenceState is a point-in-time snapshot of the server's persistence
// health, reported by /healthz.
type PersistenceState struct {
	// Errors counts failed save operations (after their bounded in-save
	// retries) since the tracker was created.
	Errors int64 `json:"errors"`
	// Degraded reports persistDegradeAfter or more consecutive failures:
	// sweeps keep running with in-memory state only, and the next
	// successful save clears the flag.
	Degraded bool `json:"degraded"`
	// LastError is the most recent failure's message, empty when none has
	// occurred yet.
	LastError string `json:"last_error,omitempty"`
}

// persistenceTracker accounts for persistence failures (checkpoint and
// status saves) without ever failing the sweep they serve:
// persistence is an optimization, losing it degrades restart cost, not
// correctness. The zero value is ready to use; all methods are safe for
// concurrent use.
type persistenceTracker struct {
	mu          sync.Mutex
	errors      int64
	consecutive int
	degraded    bool
	lastErr     string
}

// Fail records a failed save and reports whether the tracker just entered
// degraded mode (so the caller can log the transition once).
func (t *persistenceTracker) Fail(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.errors++
	t.consecutive++
	t.lastErr = err.Error()
	if !t.degraded && t.consecutive >= persistDegradeAfter {
		t.degraded = true
		return true
	}
	return false
}

// OK records a successful save, clearing the consecutive-failure streak and
// the degraded flag.
func (t *persistenceTracker) OK() {
	t.mu.Lock()
	t.consecutive = 0
	t.degraded = false
	t.mu.Unlock()
}

// State snapshots the tracker.
func (t *persistenceTracker) State() PersistenceState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return PersistenceState{Errors: t.errors, Degraded: t.degraded, LastError: t.lastErr}
}

// Do runs one persistence save under the tracker's bounded-retry
// discipline: up to persistSaveAttempts attempts with a short doubling
// pause, then the failure is recorded (possibly entering degraded mode) and
// returned for logging. A success clears the streak. The sweep the save
// serves never sees the error. A panicking save is recovered into a failed
// attempt: the saver runs on a background goroutine where an escaped panic
// would kill the process, and persistence is never worth that.
func (t *persistenceTracker) Do(save func() error) error {
	guarded := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("save panicked: %v", v)
			}
		}()
		return save()
	}
	var err error
	for a := 0; a < persistSaveAttempts; a++ {
		if a > 0 {
			time.Sleep(persistRetryDelay << uint(a-1))
		}
		if err = guarded(); err == nil {
			t.OK()
			return nil
		}
	}
	t.Fail(err)
	return err
}
