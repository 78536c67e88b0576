// Package fleet distributes one sweep across worker processes: a
// coordinator partitions a sweep spec's candidate grid into shard leases,
// hands them to workers over HTTP, merges worker checkpoint uploads into one
// fingerprint-keyed cell store, and folds the best result each upload
// carries into a fleet-wide incumbent that rides back on every response, so
// all shards prune against the fleet-wide best. Leases and uploads carry
// only their shard's cells. Worker death is handled by lease expiry: an
// orphaned shard goes back in the pending pool and its next lease carries
// the shard's settled cells, so they restore instead of recompute.
//
// The coordinator is an http.Handler with its own routes (the sweep
// service mounts it under /fleet/); it never runs mapping work itself. Its
// cell store is a dse.Session — the sweep service's own, so fleet sweeps
// and /sweep settle cells in one place and resume each other under any id.
package fleet

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/intake"
)

// CoordinatorConfig configures a fleet coordinator.
type CoordinatorConfig struct {
	// LeaseTTL is how long a shard lease lives without a checkpoint upload
	// before the shard is reissued to another worker (default 10s). Workers
	// upload at least every third of the TTL.
	LeaseTTL time.Duration
	// MaxCells caps a submitted sweep's (candidate × model) grid; 0 means
	// no cap. The sweep service forwards its own cap here.
	MaxCells int
	// Logf receives coordinator logs (default: discard).
	Logf func(format string, args ...any)
	// Session is the cell store every fleet sweep merges uploads into and
	// cuts lease checkpoints from (default: a fresh one). The sweep service
	// passes its own, so a sweep of any id restores every settled cell of
	// its grid, whichever surface settled it.
	Session *dse.Session
	// OnMerge, when set, is called after every merged upload, outside the
	// coordinator's lock; sweepDone reports that the upload completed its
	// sweep. The sweep service persists the session from it.
	OnMerge func(sweepDone bool)
	// now is the clock leases are granted and expired against (default
	// time.Now). This package's tests set a fake one to drive expiry.
	now func() time.Time
}

func (c *CoordinatorConfig) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 10 * time.Second
}

// Coordinator owns the fleet control plane: sweep submission, shard lease
// management, checkpoint merging and the fleet-wide incumbent. It is an
// http.Handler; see the route patterns in NewCoordinator.
type Coordinator struct {
	cfg CoordinatorConfig
	mux *http.ServeMux
	ses *dse.Session

	// mu guards sweeps, whose bound matters twice over: each record pins
	// its enumerated grid, and every request walks the registry.
	mu       sync.Mutex
	sweeps   intake.Registry[*fleetSweep]
	leaseSeq int
}

type shardPhase int

const (
	shardPending shardPhase = iota
	shardLeased
	shardDone
)

// shardState tracks one shard of a sweep's candidate grid.
type shardState struct {
	phase   shardPhase
	leaseID string
	worker  string
	expires time.Time
	// cands are the shard's enumeration indices, strictly ascending (see
	// partition); every lease of the shard carries them.
	cands []int
	// settledAtLease is how many of the shard's cells the session already
	// held when the current lease was granted; the holder's reported
	// ResumedCells must reach it or the difference is recomputed work,
	// surfaced in SweepAggregate.RecomputedSettledCells.
	settledAtLease int
}

// fleetSweep is the coordinator's record of one submitted sweep.
type fleetSweep struct {
	id     string
	spec   dse.Spec
	opt    dse.Options
	cands  []arch.Config
	graphs []*dnn.Graph
	shards []shardState
	inc    IncumbentState
	stats  SweepAggregate
	done   bool
}

// Active reports the sweep still has shards pending or leased. A done sweep
// may be superseded by a re-submit or evicted.
func (fs *fleetSweep) Active() bool { return !fs.done }

// SweepAggregate is the coordinator's fleet-wide accounting for one sweep,
// folded from completed shards' uploaded dse.SweepStats.
type SweepAggregate struct {
	// SAIterations sums annealing iterations across completed shards.
	SAIterations int `json:"sa_iterations"`
	// ResumedCells sums cells shards restored from lease checkpoints.
	ResumedCells int `json:"resumed_cells"`
	// PrunedCandidates sums candidates shards' bound gates skipped.
	PrunedCandidates int `json:"pruned_candidates"`
	// RecomputedSettledCells counts cells that were settled in the session
	// at lease time but recomputed anyway by the lease holder; the re-shard
	// machinery exists to keep this zero.
	RecomputedSettledCells int `json:"recomputed_settled_cells"`
	// ExpiredLeases counts leases that lapsed and sent their shard back to
	// the pending pool.
	ExpiredLeases int `json:"expired_leases"`
	// Uploads counts checkpoint uploads merged (partial and complete).
	Uploads int `json:"uploads"`
}

// SweepStatus is the GET /sweeps/{id} body.
type SweepStatus struct {
	// ID names the fleet sweep.
	ID string `json:"id"`
	// State is "running" until every shard completes, then "done".
	State string `json:"state"`
	// Shards is the sweep's total shard count.
	Shards int `json:"shards"`
	// ShardsPending, ShardsLeased and ShardsDone partition the shards.
	ShardsPending int `json:"shards_pending"`
	// ShardsLeased is the number of shards currently out on lease.
	ShardsLeased int `json:"shards_leased"`
	// ShardsDone is the number of completed shards.
	ShardsDone int `json:"shards_done"`
	// Candidates and Cells size the full (unsharded) grid.
	Candidates int `json:"candidates"`
	// Cells is the (candidate × model) grid size.
	Cells int `json:"cells"`
	// CheckpointCells is how many of the sweep's own cells are settled.
	CheckpointCells int `json:"checkpoint_cells"`
	// Incumbent is the fleet-wide best achieved feasible objective.
	Incumbent IncumbentState `json:"incumbent"`
	// Stats is the fleet-wide accounting.
	Stats SweepAggregate `json:"stats"`
	// Leases lists live leases in shard order.
	Leases []LeaseStatus `json:"leases,omitempty"`
}

// LeaseStatus describes one live lease in a SweepStatus.
type LeaseStatus struct {
	// Shard is the leased shard's index.
	Shard int `json:"shard"`
	// LeaseID names the grant.
	LeaseID string `json:"lease_id"`
	// Worker holds the lease.
	Worker string `json:"worker"`
	// ExpiresInMS is time to expiry at snapshot time.
	ExpiresInMS int `json:"expires_in_ms"`
}

// Health is the coordinator block embedded in the sweep service's /healthz.
type Health struct {
	// Sweeps counts submitted fleet sweeps.
	Sweeps int `json:"sweeps"`
	// Active counts sweeps with shards still pending or leased.
	Active int `json:"active"`
	// ShardsPending, ShardsLeased and ShardsDone aggregate across sweeps.
	ShardsPending int `json:"shards_pending"`
	// ShardsLeased counts shards currently out on lease.
	ShardsLeased int `json:"shards_leased"`
	// ShardsDone counts completed shards.
	ShardsDone int `json:"shards_done"`
	// ExpiredLeases counts lease expiries across all sweeps.
	ExpiredLeases int `json:"expired_leases"`
	// Workers lists workers currently holding leases, sorted.
	Workers []string `json:"workers,omitempty"`
}

// NewCoordinator builds a coordinator serving the fleet control plane:
//
//	POST /sweeps        submit a sweep for fleet execution
//	GET  /sweeps        list fleet sweeps
//	GET  /sweeps/{id}   one sweep's status
//	POST /lease         worker: fetch a shard lease (204 when none pending)
//	POST /checkpoint    worker: upload a (partial or final) shard checkpoint
//	                    and its best result, keep the lease alive, pull the
//	                    incumbent
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	c := &Coordinator{cfg: cfg, ses: cfg.Session}
	if c.ses == nil {
		c.ses = dse.NewSession()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps", c.handleSubmit)
	mux.HandleFunc("GET /sweeps", c.handleList)
	mux.HandleFunc("GET /sweeps/{id}", c.handleStatus)
	mux.HandleFunc("POST /lease", c.handleLease)
	mux.HandleFunc("POST /checkpoint", c.handleCheckpoint)
	c.mux = mux
	return c
}

// ServeHTTP dispatches to the coordinator's routes.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// reapLocked expires lapsed leases, returning their shards to the pending
// pool. Called with c.mu held, on every handler entry, so expiry needs no
// background timer: liveness only matters when someone is asking for work.
func (c *Coordinator) reapLocked(now time.Time) {
	for fs := range c.sweeps.All() {
		if fs.done {
			continue // every shard is done: nothing is leased
		}
		for i := range fs.shards {
			sh := &fs.shards[i]
			if sh.phase == shardLeased && now.After(sh.expires) {
				c.logf("fleet: sweep %s shard %d lease %s (worker %s) expired; shard back to pending",
					fs.id, i, sh.leaseID, sh.worker)
				sh.phase = shardPending
				sh.leaseID = ""
				sh.worker = ""
				fs.stats.ExpiredLeases++
			}
		}
	}
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !intake.Decode(w, r, intake.BodyLimit, true, "submit body", &req) {
		return
	}
	if req.Shards < 1 {
		intake.WriteError(w, http.StatusBadRequest, "shards = %d, want >= 1", req.Shards)
		return
	}
	spec := req.Spec
	cands, graphs, ok := intake.Resolve(w, &spec, "fleet", c.cfg.MaxCells)
	if !ok {
		return
	}
	parts := partition(cands, req.Shards)

	fs := &fleetSweep{
		id:     spec.ID,
		spec:   spec,
		opt:    spec.Options(),
		cands:  cands,
		graphs: graphs,
		shards: make([]shardState, len(parts)),
	}
	for i, p := range parts {
		fs.shards[i].cands = p
	}

	// A done sweep under the id is superseded: re-submitting is how a
	// client resumes, and the session already holds the prior cells.
	c.mu.Lock()
	if err := c.sweeps.Check(fs.id); err != nil {
		c.mu.Unlock()
		err.Write(w)
		return
	}
	c.sweeps.Put(fs.id, fs)
	st := c.statusLocked(fs)
	c.mu.Unlock()

	c.logf("fleet: sweep %s submitted: %d candidates x %d models in %d shards (%d cells resumed)",
		fs.id, len(cands), len(graphs), len(parts), st.CheckpointCells)
	intake.WriteJSON(w, http.StatusCreated, st)
}

// partition is the fleet's one sharding rule: it cuts the enumeration
// indices of cands into min(shards, len(cands)) shards (shards >= 1) along
// segment groups. A segment group is the candidates with one
// eval.SegmentFingerprint, which share every stripe-segment summary, so a
// group that stays on one shard has each of its segments computed by one
// worker. With fewer groups than shards, groups are cut into pieces: each
// extra piece goes to the group whose pieces are largest (the earlier group
// in enumeration order on a tie), and a group's pieces are near-equal
// contiguous runs of its indices. The pieces — the whole groups when there
// are at least as many groups as shards — are then dealt out largest first
// (equal sizes in enumeration order), each to the shard with the fewest
// candidates so far, the lower shard on a tie; so shard i starts with the
// i-th largest piece and the big pieces are leased first. Each shard's
// indices are strictly ascending, none is empty, and together the shards
// cover [0, len(cands)).
func partition(cands []arch.Config, shards int) [][]int {
	var groups [][]int
	byFP := make(map[uint64]int)
	for k := range cands {
		fp := eval.SegmentFingerprint(&cands[k])
		g, ok := byFP[fp]
		if !ok {
			g = len(groups)
			byFP[fp] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], k)
	}
	shards = min(shards, len(cands))
	cuts := make([]int, len(groups))
	for g := range cuts {
		cuts[g] = 1
	}
	for range shards - len(groups) {
		s := 0
		for g := range groups {
			if len(groups[g])*cuts[s] > len(groups[s])*cuts[g] {
				s = g
			}
		}
		cuts[s]++
	}
	var pieces [][]int
	for g, idx := range groups {
		for j := range cuts[g] {
			pieces = append(pieces, idx[j*len(idx)/cuts[g]:(j+1)*len(idx)/cuts[g]])
		}
	}
	slices.SortStableFunc(pieces, func(a, b []int) int { return len(b) - len(a) })
	parts := make([][]int, shards)
	for _, p := range pieces {
		s := 0
		for i := range parts {
			if len(parts[i]) < len(parts[s]) {
				s = i
			}
		}
		parts[s] = append(parts[s], p...)
	}
	for _, p := range parts {
		slices.Sort(p)
	}
	return parts
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.reapLocked(c.cfg.now())
	list := make([]SweepStatus, 0, c.sweeps.Len())
	for fs := range c.sweeps.All() {
		list = append(list, c.statusLocked(fs))
	}
	c.mu.Unlock()
	intake.WriteJSON(w, http.StatusOK, list)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := c.Status(r.PathValue("id"))
	if !ok {
		intake.WriteError(w, http.StatusNotFound, "no fleet sweep %q", r.PathValue("id"))
		return
	}
	intake.WriteJSON(w, http.StatusOK, st)
}

// statusLocked snapshots a sweep's status. Called with c.mu held.
func (c *Coordinator) statusLocked(fs *fleetSweep) SweepStatus {
	now := c.cfg.now()
	st := SweepStatus{
		ID:              fs.id,
		State:           "running",
		Shards:          len(fs.shards),
		Candidates:      len(fs.cands),
		Cells:           len(fs.cands) * len(fs.graphs),
		CheckpointCells: c.ses.SettledCells(fs.cands, fs.graphs, fs.opt),
		Incumbent:       fs.inc,
		Stats:           fs.stats,
	}
	if fs.done {
		st.State = "done"
	}
	fs.countShards(&st.ShardsPending, &st.ShardsLeased, &st.ShardsDone, func(i int, sh *shardState) {
		st.Leases = append(st.Leases, LeaseStatus{
			Shard:       i,
			LeaseID:     sh.leaseID,
			Worker:      sh.worker,
			ExpiresInMS: int(sh.expires.Sub(now).Milliseconds()),
		})
	})
	return st
}

// countShards adds fs's shards to the pending, leased and done counts by
// phase, calling onLeased on each leased shard in shard order. A sweep's
// status and the coordinator's health both count through it.
func (fs *fleetSweep) countShards(pending, leased, done *int, onLeased func(i int, sh *shardState)) {
	for i := range fs.shards {
		sh := &fs.shards[i]
		switch sh.phase {
		case shardPending:
			*pending++
		case shardLeased:
			*leased++
			onLeased(i, sh)
		case shardDone:
			*done++
		}
	}
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !intake.Decode(w, r, intake.BodyLimit, false, "lease request", &req) {
		return
	}
	if err := req.Validate(); err != nil {
		intake.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}

	c.mu.Lock()
	now := c.cfg.now()
	c.reapLocked(now)
	for fs := range c.sweeps.All() {
		if fs.done {
			continue
		}
		for i := range fs.shards {
			sh := &fs.shards[i]
			if sh.phase != shardPending {
				continue
			}
			lease, err := c.grantLocked(fs, i, req.Worker, now)
			if err != nil {
				c.mu.Unlock()
				intake.WriteError(w, http.StatusInternalServerError, "granting shard: %v", err)
				return
			}
			settled, cells := sh.settledAtLease, len(sh.cands)*len(fs.graphs)
			c.mu.Unlock()
			c.logf("fleet: sweep %s shard %d/%d leased to %s as %s (%d/%d shard cells settled)",
				lease.SweepID, lease.Shard, lease.Shards, req.Worker, lease.LeaseID,
				settled, cells)
			intake.WriteJSON(w, http.StatusOK, lease)
			return
		}
	}
	c.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// grantLocked leases shard i of fs to worker. Called with c.mu held.
func (c *Coordinator) grantLocked(fs *fleetSweep, i int, worker string, now time.Time) (*Lease, error) {
	sh := &fs.shards[i]
	sp := fs.spec
	sp.ID = fmt.Sprintf("%s.s%d", fs.id, i)

	shardCands := make([]arch.Config, len(sh.cands))
	for j, k := range sh.cands {
		shardCands[j] = fs.cands[k]
	}

	c.leaseSeq++
	ttl := c.cfg.leaseTTL()
	lease := &Lease{
		SweepID:    fs.id,
		LeaseID:    fmt.Sprintf("lease-%d", c.leaseSeq),
		Shard:      i,
		Shards:     len(fs.shards),
		Candidates: sh.cands,
		Spec:       sp,
		Incumbent:  fs.inc,
		TTLMS:      int(ttl.Milliseconds()),
	}
	// Cells only ever join the session, so the lease carries at least the
	// settledAtLease cells it is held to.
	settled := c.ses.SettledCells(shardCands, fs.graphs, fs.opt)
	if settled > 0 {
		var buf bytes.Buffer
		if err := c.ses.SaveCells(&buf, shardCands, fs.graphs, fs.opt); err != nil {
			return nil, err
		}
		lease.Checkpoint = buf.Bytes()
	}

	sh.phase = shardLeased
	sh.leaseID = lease.LeaseID
	sh.worker = worker
	sh.expires = now.Add(ttl)
	sh.settledAtLease = settled
	return lease, nil
}

// findLeaseLocked resolves a (sweep, lease) pair to its shard index, or -1
// when the lease is gone (expired, superseded or never granted). Called
// with c.mu held.
func (c *Coordinator) findLeaseLocked(fs *fleetSweep, leaseID string) int {
	for i := range fs.shards {
		sh := &fs.shards[i]
		if sh.phase == shardLeased && sh.leaseID == leaseID {
			return i
		}
	}
	return -1
}

// foldIncumbentLocked folds an achieved feasible objective into the sweep's
// fleet-wide incumbent (monotone min). Called with c.mu held.
func (fs *fleetSweep) foldIncumbentLocked(candidate string, obj float64) bool {
	if obj < fs.inc.best() {
		fs.inc = IncumbentState{Found: true, Candidate: candidate, Objective: obj}
		return true
	}
	return false
}

func (c *Coordinator) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	var up CheckpointUpload
	if !intake.Decode(w, r, checkpointBodyLimit, false, "checkpoint upload", &up) {
		return
	}
	if err := up.Validate(); err != nil {
		intake.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}

	c.mu.Lock()
	now := c.cfg.now()
	c.reapLocked(now)
	fs, ok := c.sweeps.Get(up.SweepID)
	if !ok {
		c.mu.Unlock()
		intake.WriteError(w, http.StatusNotFound, "no fleet sweep %q", up.SweepID)
		return
	}
	// Merge first, regardless of lease liveness: settled cells are valid
	// whoever computed them, and dropping a dying worker's last upload
	// would recompute work for no reason.
	if err := c.ses.LoadCheckpoint(bytes.NewReader(up.Checkpoint)); err != nil {
		c.mu.Unlock()
		intake.WriteError(w, http.StatusBadRequest, "merging checkpoint: %v", err)
		return
	}
	fs.stats.Uploads++
	// An achieved best folds even from a stale lease — it is still sound.
	if up.Best != nil && fs.foldIncumbentLocked(up.Best.Candidate, up.Best.Obj) {
		// Deferred so it logs after the lock is released, on every return.
		defer c.logf("fleet: sweep %s incumbent -> %.6g (%s)", fs.id, up.Best.Obj, up.Best.Candidate)
	}

	i := c.findLeaseLocked(fs, up.LeaseID)
	if i < 0 {
		c.mu.Unlock()
		c.merged(false)
		intake.WriteError(w, http.StatusGone, "lease %s is no longer live (checkpoint merged)", up.LeaseID)
		return
	}
	sh := &fs.shards[i]
	// An upload on a live lease is the worker's heartbeat; extend it.
	sh.expires = now.Add(c.cfg.leaseTTL())

	if up.Complete {
		sh.phase = shardDone
		sh.leaseID = ""
		if st := up.Stats; st != nil {
			fs.stats.SAIterations += st.SAIterations
			fs.stats.ResumedCells += st.ResumedCells
			fs.stats.PrunedCandidates += st.PrunedCandidates
			if rec := sh.settledAtLease - st.ResumedCells; rec > 0 {
				fs.stats.RecomputedSettledCells += rec
			}
		}
		fs.done = !slices.ContainsFunc(fs.shards, func(sh shardState) bool { return sh.phase != shardDone })
	}
	resp, done := CheckpointResponse{Incumbent: fs.inc}, fs.done
	c.mu.Unlock()

	if up.Complete {
		c.logf("fleet: sweep %s shard %d complete (worker %s); sweep done=%v", up.SweepID, i, up.Worker, done)
	}
	// A live lease means the sweep was not done before this upload, so done
	// here is the transition, reported once per sweep.
	c.merged(done)
	intake.WriteJSON(w, http.StatusOK, resp)
}

// merged reports a merged upload to OnMerge. Called without c.mu.
func (c *Coordinator) merged(sweepDone bool) {
	if c.cfg.OnMerge != nil {
		c.cfg.OnMerge(sweepDone)
	}
}

// Health snapshots the coordinator for the sweep service's /healthz block.
func (c *Coordinator) Health() Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.cfg.now())
	var h Health
	h.Sweeps = c.sweeps.Len()
	for fs := range c.sweeps.All() {
		if !fs.done {
			h.Active++
		}
		h.ExpiredLeases += fs.stats.ExpiredLeases
		fs.countShards(&h.ShardsPending, &h.ShardsLeased, &h.ShardsDone, func(_ int, sh *shardState) {
			h.Workers = append(h.Workers, sh.worker)
		})
	}
	slices.Sort(h.Workers)
	h.Workers = slices.Compact(h.Workers)
	return h
}

// Status returns one sweep's status snapshot, for tests and the service.
func (c *Coordinator) Status(id string) (SweepStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fs, ok := c.sweeps.Get(id)
	if !ok {
		return SweepStatus{}, false
	}
	c.reapLocked(c.cfg.now())
	return c.statusLocked(fs), true
}

// checkpointBodyLimit bounds a checkpoint upload; submit and lease messages
// are spec-sized (intake.BodyLimit). An upload carries its shard's settled
// cells at roughly 600 bytes per cell, and the limit leaves room for about
// 10^5 of them — several full Table I grids.
const checkpointBodyLimit = 64 << 20
