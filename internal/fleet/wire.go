// Wire messages of the fleet protocol: the JSON bodies workers and the
// coordinator exchange over the lease and checkpoint endpoints. A lease
// request is the only message a worker sends before its shard runs, and
// checkpoint uploads are the only ones it sends after: they carry its
// settled cells and best result, keep the lease alive and bring the
// incumbent back.
// Every message is a plain JSON struct with a Validate method, so the fuzz
// harness (FuzzFleetWire) can drive arbitrary bytes through
// exactly the decode path the handlers use. Objectives on the wire are
// always achieved values, finite and positive — "no incumbent yet" travels
// as IncumbentState.Found=false, never as +Inf, which JSON cannot carry.

package fleet

import (
	"encoding/json"
	"fmt"
	"math"

	"gemini/internal/dse"
)

// LeaseRequest is a worker's POST /lease body: an idle worker asking the
// coordinator for a shard to run.
type LeaseRequest struct {
	// Worker names the requesting worker process (for lease accounting and
	// the fleet health block); required.
	Worker string `json:"worker"`
}

// Validate checks the request shape.
func (r *LeaseRequest) Validate() error {
	if r.Worker == "" {
		return fmt.Errorf("fleet: lease request has no worker name")
	}
	return nil
}

// IncumbentState is the coordinator's view of a fleet sweep's best achieved
// feasible objective. It rides on every lease grant and checkpoint
// response, so a worker's cached fleet-wide best is refreshed by every
// control-plane round trip.
type IncumbentState struct {
	// Found reports that some shard has achieved a feasible result; when
	// false the other fields are zero and the state means "+Inf".
	Found bool `json:"found"`
	// Candidate names the architecture that achieved the incumbent.
	Candidate string `json:"candidate,omitempty"`
	// Objective is the achieved objective value (finite and > 0 when
	// Found).
	Objective float64 `json:"objective,omitempty"`
}

// Validate checks that a found incumbent carries an achievable objective.
func (s *IncumbentState) Validate() error {
	if s.Found {
		return checkObjective("incumbent state", s.Objective)
	}
	return nil
}

// checkObjective rejects an objective no candidate can achieve. Every
// achieved objective is MC^α·E^β·D^γ with positive MC, E and D and
// α, β, γ ≥ 0, so it is finite and > 0; folding anything else into an
// incumbent would prune candidates no real result dominates.
func checkObjective(what string, obj float64) error {
	if !(obj > 0) || math.IsInf(obj, 1) {
		return fmt.Errorf("fleet: %s objective %v is not finite and > 0", what, obj)
	}
	return nil
}

// best returns the state as a foldable objective: the achieved value when
// Found, +Inf otherwise.
func (s IncumbentState) best() float64 {
	if !s.Found {
		return math.Inf(1)
	}
	return s.Objective
}

// Lease is the coordinator's POST /lease grant: one shard of one fleet
// sweep — the sweep's spec plus the enumeration indices of the shard's
// candidates — together with everything the worker needs to start warm:
// the shard's settled cells and the current fleet-wide incumbent.
type Lease struct {
	// SweepID names the fleet sweep the shard belongs to.
	SweepID string `json:"sweep_id"`
	// LeaseID names this grant; uploads must echo it, and a grant that
	// expires is reissued to another worker under a new id.
	LeaseID string `json:"lease_id"`
	// Shard is the shard's index within the sweep, in [0, Shards).
	Shard int `json:"shard"`
	// Shards is the sweep's total shard count.
	Shards int `json:"shards"`
	// Candidates lists, strictly ascending, the indices into
	// Spec.Candidates()'s enumeration this shard runs. The coordinator cuts
	// them once, at submit.
	Candidates []int `json:"candidates"`
	// Spec is the sweep spec; the worker enumerates it and runs the
	// candidates Candidates selects.
	Spec dse.Spec `json:"spec"`
	// Incumbent seeds the worker's cached fleet-wide best.
	Incumbent IncumbentState `json:"incumbent"`
	// TTLMS is the lease's time-to-live in milliseconds; the worker must
	// upload within it or the shard is re-leased to another worker.
	TTLMS int `json:"ttl_ms"`
	// Checkpoint holds the shard's settled cells (dse.Session.SaveCells
	// bytes), omitted when none are; the worker loads it before running so
	// cells an expired predecessor already uploaded restore instead of
	// recompute.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// Validate checks the grant's internal consistency, including that the
// embedded spec is itself valid and the candidate index list is non-empty,
// non-negative and strictly ascending. Whether the indices fit the spec's
// enumeration is the worker's check: it needs the enumeration.
func (l *Lease) Validate() error {
	if l.SweepID == "" || l.LeaseID == "" {
		return fmt.Errorf("fleet: lease missing sweep or lease id")
	}
	if l.Shards < 1 || l.Shard < 0 || l.Shard >= l.Shards {
		return fmt.Errorf("fleet: lease shard %d/%d out of range", l.Shard, l.Shards)
	}
	if l.TTLMS <= 0 {
		return fmt.Errorf("fleet: lease ttl_ms = %d, want > 0", l.TTLMS)
	}
	if len(l.Candidates) == 0 {
		return fmt.Errorf("fleet: lease has no candidates")
	}
	for i, k := range l.Candidates {
		if k < 0 || (i > 0 && k <= l.Candidates[i-1]) {
			return fmt.Errorf("fleet: lease candidates[%d] = %d: want non-negative and strictly ascending", i, k)
		}
	}
	if err := l.Incumbent.Validate(); err != nil {
		return err
	}
	if err := l.Spec.Validate(); err != nil {
		return fmt.Errorf("fleet: lease spec: %w", err)
	}
	return nil
}

// CheckpointUpload is a worker's POST /checkpoint body: the checkpoint-
// merge envelope and the lease's heartbeat. Workers stream partial uploads
// (Complete=false) when a candidate settles and at a third of the lease TTL,
// so an expiring lease loses at most the in-flight cells and a live one
// never lapses, and send one final Complete=true upload carrying the shard's
// stats when the shard sweep finishes. Every upload, partial or final,
// carries the shard's best delivered result.
type CheckpointUpload struct {
	// SweepID and LeaseID name the lease the upload belongs to.
	SweepID string `json:"sweep_id"`
	// LeaseID is the grant the upload runs under; a stale id still merges
	// (settled cells are valid regardless of who computed them) but answers
	// 410 so the worker learns its lease lapsed.
	LeaseID string `json:"lease_id"`
	// Worker echoes the uploading worker's name.
	Worker string `json:"worker"`
	// Complete marks the shard finished; Stats is then read.
	Complete bool `json:"complete,omitempty"`
	// Stats is the shard sweep's scheduler record (Complete uploads only).
	// The coordinator folds its SAIterations, ResumedCells and
	// PrunedCandidates; ResumedCells audits the zero-recompute re-shard.
	Stats *dse.SweepStats `json:"stats,omitempty"`
	// Best is the shard's best feasible result delivered so far, absent
	// until there is one. The coordinator folds it into the fleet
	// incumbent synchronously at upload time — this is the incumbent's only
	// way into the coordinator, and the synchronous fold is what makes a
	// sequential one-worker fleet's pruning deterministic.
	Best *dse.IncumbentStep `json:"best,omitempty"`
	// Checkpoint holds the shard's settled cells (dse.Session.SaveCells
	// bytes); the coordinator merges them into its session.
	Checkpoint json.RawMessage `json:"checkpoint"`
}

// Validate checks the envelope shape and its nested records.
func (u *CheckpointUpload) Validate() error {
	if u.SweepID == "" || u.LeaseID == "" {
		return fmt.Errorf("fleet: checkpoint upload missing sweep or lease id")
	}
	if len(u.Checkpoint) == 0 {
		return fmt.Errorf("fleet: checkpoint upload has no checkpoint bytes")
	}
	if st := u.Stats; st != nil {
		for _, c := range [...]struct {
			name string
			v    int
		}{
			{"sa_iterations", st.SAIterations}, {"resumed_cells", st.ResumedCells},
			{"pruned_candidates", st.PrunedCandidates},
		} {
			if c.v < 0 {
				return fmt.Errorf("fleet: shard stats %s = %d, want >= 0", c.name, c.v)
			}
		}
	}
	if u.Best != nil {
		return checkObjective("shard best", u.Best.Obj)
	}
	return nil
}

// CheckpointResponse acknowledges an upload with the post-merge fleet
// state.
type CheckpointResponse struct {
	// Incumbent is the fleet-wide best after folding the upload.
	Incumbent IncumbentState `json:"incumbent"`
}

// Validate checks the response a worker accepts off the wire.
func (r *CheckpointResponse) Validate() error {
	return r.Incumbent.Validate()
}

// SubmitRequest is the POST /sweeps body: a client submitting a sweep for
// fleet execution.
type SubmitRequest struct {
	// Spec is the sweep spec; partitioning it is the coordinator's job.
	Spec dse.Spec `json:"spec"`
	// Shards is how many shard leases to cut the candidate grid into; it is
	// clamped to the candidate count.
	Shards int `json:"shards"`
}
