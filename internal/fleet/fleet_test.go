package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gemini/internal/dse"
)

// testSpecJSON is a small 4-candidate x 1-model grid that runs in well
// under a second per cell; prune stays off so the full grid settles and
// checkpoint identity can be asserted bit-for-bit.
func testSpecJSON(id string) string {
	return fmt.Sprintf(`{
		"id": %q,
		"space": {"tops": 72, "cuts": [1], "dram_per_tops": [2],
		          "noc_gbps": [32, 48, 64, 96], "d2d_ratios": [0.5],
		          "glb_kb": [1024], "macs": [1024]},
		"models": ["tinycnn"],
		"sa_iterations": 60
	}`, id)
}

func parseSpec(t *testing.T, raw string) dse.Spec {
	t.Helper()
	var spec dse.Spec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatalf("parsing test spec: %v", err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("validating test spec: %v", err)
	}
	return spec
}

// postJSON drives a coordinator endpoint and decodes the response into out
// when non-nil, returning the status code.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// singleProcessRun executes the unsharded spec in one fresh session and
// returns its checkpoint bytes and best feasible result.
func singleProcessRun(t *testing.T, spec dse.Spec) ([]byte, *dse.CandidateResult) {
	t.Helper()
	cands, err := spec.Candidates()
	if err != nil {
		t.Fatalf("candidates: %v", err)
	}
	graphs, err := spec.Graphs()
	if err != nil {
		t.Fatalf("graphs: %v", err)
	}
	ses := dse.NewSession()
	results, _, err := ses.RunContext(context.Background(), cands, graphs, spec.Options())
	if err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	var buf bytes.Buffer
	if err := ses.SaveCheckpoint(&buf); err != nil {
		t.Fatalf("single-process checkpoint: %v", err)
	}
	return buf.Bytes(), dse.Best(results)
}

// TestFleetEndToEnd drains a 2-shard sweep with one worker and checks the
// merged coordinator checkpoint is bit-identical to a single-process run of
// the same spec, with the same best result and zero recomputed cells.
func TestFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	spec := parseSpec(t, testSpecJSON("e2e"))
	soloCkpt, soloBest := singleProcessRun(t, spec)
	if soloBest == nil || !soloBest.Feasible {
		t.Fatalf("single-process run found no feasible best")
	}

	coord := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Logf: t.Logf})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	var st SweepStatus
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 2}, &st); code != http.StatusCreated {
		t.Fatalf("submit answered %d", code)
	}
	if st.Shards != 2 || st.ShardsPending != 2 {
		t.Fatalf("submit status = %+v, want 2 pending shards", st)
	}

	err := RunWorker(context.Background(), WorkerConfig{
		Coordinator:  srv.URL,
		Name:         "w1",
		ExitWhenIdle: true,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}

	got, ok := coord.Status("e2e")
	if !ok {
		t.Fatalf("sweep vanished")
	}
	if got.State != "done" || got.ShardsDone != 2 {
		t.Fatalf("after drain: %+v, want done with 2 shards done", got)
	}
	if !got.Incumbent.Found {
		t.Fatalf("no fleet incumbent after drain")
	}
	if got.Incumbent.Objective != soloBest.Obj || got.Incumbent.Candidate != soloBest.Cfg.Name {
		t.Fatalf("fleet best (%s, %v) != single-process best (%s, %v)",
			got.Incumbent.Candidate, got.Incumbent.Objective, soloBest.Cfg.Name, soloBest.Obj)
	}
	if got.Stats.RecomputedSettledCells != 0 {
		t.Fatalf("recomputed settled cells = %d, want 0", got.Stats.RecomputedSettledCells)
	}
	if got.Stats.SAIterations <= 0 {
		t.Fatalf("aggregated sa_iterations = %d, want > 0", got.Stats.SAIterations)
	}

	fleetCkpt, ok := coord.Checkpoint("e2e")
	if !ok {
		t.Fatalf("no fleet checkpoint")
	}
	if !bytes.Equal(fleetCkpt, soloCkpt) {
		t.Fatalf("merged fleet checkpoint differs from single-process checkpoint:\nfleet %d bytes, solo %d bytes",
			len(fleetCkpt), len(soloCkpt))
	}
}

// fakeClock is an injectable coordinator clock for deterministic lease
// expiry.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestWorkerDeathReshard kills a worker mid-sweep (it stops renewing after
// a partial upload) and checks the orphaned shard re-leases with the merged
// checkpoint: the successor resumes every settled cell (zero recompute),
// the expiry is counted, and the final merged checkpoint is bit-identical
// to a single-process run.
func TestWorkerDeathReshard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	spec := parseSpec(t, testSpecJSON("reshard"))
	soloCkpt, soloBest := singleProcessRun(t, spec)

	clock := &fakeClock{t: time.Unix(1_000_000, 0)}
	coord := NewCoordinator(CoordinatorConfig{
		LeaseTTL: 30 * time.Second,
		Logf:     t.Logf,
		Now:      clock.Now,
	})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	var st SweepStatus
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 2}, &st); code != http.StatusCreated {
		t.Fatalf("submit answered %d", code)
	}

	// Worker A takes shard 0, settles its first candidate, uploads the
	// partial checkpoint, and dies (never renews, never completes).
	var lease Lease
	if code := postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: "doomed"}, &lease); code != http.StatusOK {
		t.Fatalf("lease answered %d", code)
	}
	if lease.Shard != 0 || lease.Shards != 2 {
		t.Fatalf("first lease got shard %d/%d, want 0/2", lease.Shard, lease.Shards)
	}
	aCands, err := lease.Spec.Candidates()
	if err != nil {
		t.Fatalf("lease candidates: %v", err)
	}
	graphs, err := lease.Spec.Graphs()
	if err != nil {
		t.Fatalf("lease graphs: %v", err)
	}
	aSes := dse.NewSession()
	if _, _, err := aSes.RunContext(context.Background(), aCands[:1], graphs, lease.Spec.Options()); err != nil {
		t.Fatalf("doomed worker's partial run: %v", err)
	}
	var partial bytes.Buffer
	if err := aSes.SaveCheckpoint(&partial); err != nil {
		t.Fatalf("partial checkpoint: %v", err)
	}
	partialCells := aSes.CheckpointCells()
	if partialCells == 0 {
		t.Fatalf("partial run settled no cells")
	}
	var cresp CheckpointResponse
	if code := postJSON(t, srv.URL+"/checkpoint", CheckpointUpload{
		SweepID:    lease.SweepID,
		LeaseID:    lease.LeaseID,
		Worker:     "doomed",
		Checkpoint: partial.Bytes(),
	}, &cresp); code != http.StatusOK {
		t.Fatalf("partial upload answered %d", code)
	}

	// The lease lapses.
	clock.Advance(31 * time.Second)

	// Worker B drains the sweep: the reaped shard 0 re-leases to it first,
	// seeded with the dead worker's settled cells.
	if err := RunWorker(context.Background(), WorkerConfig{
		Coordinator:  srv.URL,
		Name:         "survivor",
		ExitWhenIdle: true,
		Logf:         t.Logf,
	}); err != nil {
		t.Fatalf("surviving worker: %v", err)
	}

	got, ok := coord.Status("reshard")
	if !ok {
		t.Fatalf("sweep vanished")
	}
	if got.State != "done" {
		t.Fatalf("sweep not done after drain: %+v", got)
	}
	if got.Stats.ExpiredLeases != 1 {
		t.Fatalf("expired leases = %d, want 1", got.Stats.ExpiredLeases)
	}
	if got.Stats.RecomputedSettledCells != 0 {
		t.Fatalf("recomputed settled cells = %d, want 0", got.Stats.RecomputedSettledCells)
	}
	if got.Stats.ResumedCells != partialCells {
		t.Fatalf("resumed cells = %d, want the dead worker's %d settled cells",
			got.Stats.ResumedCells, partialCells)
	}
	if soloBest != nil && got.Incumbent.Objective != soloBest.Obj {
		t.Fatalf("fleet best %v != single-process best %v", got.Incumbent.Objective, soloBest.Obj)
	}

	fleetCkpt, ok := coord.Checkpoint("reshard")
	if !ok {
		t.Fatalf("no fleet checkpoint")
	}
	if !bytes.Equal(fleetCkpt, soloCkpt) {
		t.Fatalf("merged checkpoint after re-shard differs from single-process checkpoint")
	}
}

// TestCoordinatorWire exercises the control-plane contracts that don't need
// real sweeps: submit validation, incumbent fan-out on every round trip,
// stale-lease handling and the merge-on-410 rule.
func TestCoordinatorWire(t *testing.T) {
	spec := parseSpec(t, testSpecJSON("wire"))
	clock := &fakeClock{t: time.Unix(2_000_000, 0)}
	coord := NewCoordinator(CoordinatorConfig{LeaseTTL: 10 * time.Second, Now: clock.Now})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	// A spec carrying its own shard slice is the coordinator's job to
	// assign, not the client's.
	sharded := spec
	sharded.Shard = &dse.ShardSpec{Index: 0, Count: 2}
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: sharded, Shards: 2}, nil); code != http.StatusBadRequest {
		t.Fatalf("sharded spec submit answered %d, want 400", code)
	}
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 0}, nil); code != http.StatusBadRequest {
		t.Fatalf("shards=0 submit answered %d, want 400", code)
	}

	// Shards clamp to the candidate count (4 here).
	var st SweepStatus
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 99}, &st); code != http.StatusCreated {
		t.Fatalf("submit answered %d", code)
	}
	if st.Shards != 4 {
		t.Fatalf("99 requested shards clamped to %d, want 4 (one per candidate)", st.Shards)
	}
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 2}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate id submit answered %d, want 409", code)
	}

	// Incumbent pushes fold monotonically and fan out on lease and renew.
	var inc IncumbentState
	if code := postJSON(t, srv.URL+"/incumbent", IncumbentUpdate{SweepID: "wire", Candidate: "a", Objective: 10}, &inc); code != http.StatusOK {
		t.Fatalf("incumbent push answered %d", code)
	}
	if !inc.Found || inc.Objective != 10 {
		t.Fatalf("incumbent after first push = %+v", inc)
	}
	if code := postJSON(t, srv.URL+"/incumbent", IncumbentUpdate{SweepID: "wire", Candidate: "b", Objective: 20}, &inc); code != http.StatusOK {
		t.Fatalf("incumbent push answered %d", code)
	}
	if inc.Objective != 10 {
		t.Fatalf("worse push moved the incumbent to %v", inc.Objective)
	}
	if code := postJSON(t, srv.URL+"/incumbent", IncumbentUpdate{SweepID: "none", Objective: 1}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown-sweep push answered %d, want 404", code)
	}

	var lease Lease
	if code := postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: "w"}, &lease); code != http.StatusOK {
		t.Fatalf("lease answered %d", code)
	}
	if err := lease.Validate(); err != nil {
		t.Fatalf("granted lease invalid: %v", err)
	}
	if !lease.Incumbent.Found || lease.Incumbent.Objective != 10 {
		t.Fatalf("lease incumbent = %+v, want the pushed best", lease.Incumbent)
	}
	var renew RenewResponse
	if code := postJSON(t, srv.URL+"/renew", RenewRequest{SweepID: "wire", LeaseID: lease.LeaseID, Worker: "w"}, &renew); code != http.StatusOK {
		t.Fatalf("renew answered %d", code)
	}
	if renew.Incumbent.Objective != 10 {
		t.Fatalf("renew incumbent = %+v", renew.Incumbent)
	}

	// Expire the lease; renewing it is now 410 and the shard is pending
	// again.
	clock.Advance(11 * time.Second)
	if code := postJSON(t, srv.URL+"/renew", RenewRequest{SweepID: "wire", LeaseID: lease.LeaseID, Worker: "w"}, nil); code != http.StatusGone {
		t.Fatalf("expired renew answered %d, want 410", code)
	}
	got, _ := coord.Status("wire")
	if got.Stats.ExpiredLeases != 1 || got.ShardsPending != 4 {
		t.Fatalf("after expiry: %+v, want 1 expired lease and all shards pending", got)
	}

	// A stale-lease upload still merges its cells (they are sound) but
	// answers 410 so the worker learns the shard moved on.
	ses := dse.NewSession()
	cands, _ := spec.Candidates()
	graphs, _ := spec.Graphs()
	opt := spec.Options()
	opt.SAIterations = 10
	if _, _, err := ses.RunContext(context.Background(), cands[:1], graphs, opt); err != nil {
		t.Fatalf("mini run: %v", err)
	}
	var buf bytes.Buffer
	if err := ses.SaveCheckpoint(&buf); err != nil {
		t.Fatalf("mini checkpoint: %v", err)
	}
	if code := postJSON(t, srv.URL+"/checkpoint", CheckpointUpload{
		SweepID: "wire", LeaseID: lease.LeaseID, Worker: "w", Checkpoint: buf.Bytes(),
	}, nil); code != http.StatusGone {
		t.Fatalf("stale upload answered %d, want 410", code)
	}
	got, _ = coord.Status("wire")
	if got.CheckpointCells == 0 {
		t.Fatalf("stale upload's cells were not merged")
	}
	if got.Stats.ExpiredLeases != 1 {
		t.Fatalf("stale upload double-counted expiry: %+v", got.Stats)
	}
}

// TestExchange checks the worker-side incumbent cache: monotone folding,
// +Inf initial state, and last-writer-wins outbox coalescing.
func TestExchange(t *testing.T) {
	ex := newExchange(nil, "s")
	if !math.IsInf(ex.Best(), 1) {
		t.Fatalf("fresh exchange best = %v, want +Inf", ex.Best())
	}
	ex.fold(5)
	ex.fold(7) // worse: ignored
	if ex.Best() != 5 {
		t.Fatalf("best = %v, want 5", ex.Best())
	}
	ex.Improved("a", 4)
	ex.Improved("b", 3)
	if ex.Best() != 3 {
		t.Fatalf("best = %v, want 3", ex.Best())
	}
	u := ex.take()
	if u == nil || u.Candidate != "b" || u.Objective != 3 {
		t.Fatalf("outbox = %+v, want the latest improvement", u)
	}
	if ex.take() != nil {
		t.Fatalf("outbox not drained")
	}
}
