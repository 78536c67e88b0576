package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gemini/internal/arch"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/intake"
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
	return checkpointBytes(t, ses), dse.Best(results)
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

	ses := dse.NewSession()
	coord := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Logf: t.Logf, Session: ses})
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

	fleetCkpt := checkpointBytes(t, ses)
	if !bytes.Equal(fleetCkpt, soloCkpt) {
		t.Fatalf("merged fleet checkpoint differs from single-process checkpoint:\nfleet %d bytes, solo %d bytes",
			len(fleetCkpt), len(soloCkpt))
	}
}

// checkpointBytes returns ses's SaveCheckpoint bytes.
func checkpointBytes(t *testing.T, ses *dse.Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ses.SaveCheckpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// cellKeys decodes the cell keys of checkpoint bytes (none when empty).
func cellKeys(t *testing.T, ckpt []byte) map[string]bool {
	t.Helper()
	keys := make(map[string]bool)
	if len(ckpt) == 0 {
		return keys
	}
	var cp struct {
		Cells map[string]json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(ckpt, &cp); err != nil {
		t.Fatalf("decoding checkpoint: %v", err)
	}
	for k := range cp.Cells {
		keys[k] = true
	}
	return keys
}

// TestLeaseAndUploadsCarryOnlyShardCells: the coordinator's session and the
// worker's both hold another shard's and another sweep's cells, yet every
// lease carries exactly its shard's settled cells and every upload only its
// shard's cells — the Complete upload all of them.
func TestLeaseAndUploadsCarryOnlyShardCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	spec := parseSpec(t, testSpecJSON("payload"))
	other := spec
	other.ID, other.Seed = "elsewhere", spec.Seed+7
	all, err := spec.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := spec.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	// run settles idx of sp's grid in a fresh session and returns its bytes.
	run := func(sp dse.Spec, idx []int) []byte {
		t.Helper()
		ses := dse.NewSession()
		for _, k := range idx {
			if _, _, err := ses.RunContext(context.Background(), all[k:k+1], graphs, sp.Options()); err != nil {
				t.Fatal(err)
			}
		}
		return checkpointBytes(t, ses)
	}
	parts := partition(all, 2)
	shardCells := [][]byte{run(spec, parts[0]), run(spec, parts[1])}
	firstCell := run(spec, parts[0][:1])
	otherSweep := run(other, []int{0, 1, 2, 3})

	coord := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Logf: t.Logf})
	var mu sync.Mutex
	leases := make(map[string]Lease)
	var uploads []CheckpointUpload
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		coord.ServeHTTP(rec, r)
		mu.Lock()
		switch {
		case r.URL.Path == "/checkpoint":
			var up CheckpointUpload
			if err := json.Unmarshal(body, &up); err == nil {
				uploads = append(uploads, up)
			}
		case r.URL.Path == "/lease" && rec.Code == http.StatusOK:
			var l Lease
			if err := json.Unmarshal(rec.Body.Bytes(), &l); err == nil {
				leases[l.LeaseID] = l
			}
		}
		mu.Unlock()
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer proxy.Close()

	if code := postJSON(t, proxy.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 2}, nil); code != http.StatusCreated {
		t.Fatalf("submit answered %d", code)
	}
	// Seed the coordinator through a stale-lease upload, which merges:
	// shard 0's first cell, all of shard 1 and the other sweep's grid.
	seed := dse.NewSession()
	for _, b := range [][]byte{firstCell, shardCells[1], otherSweep} {
		if err := seed.LoadCheckpoint(bytes.NewReader(b)); err != nil {
			t.Fatal(err)
		}
	}
	if code := postJSON(t, proxy.URL+"/checkpoint", CheckpointUpload{
		SweepID: "payload", LeaseID: "seed", Worker: "seeder", Checkpoint: checkpointBytes(t, seed),
	}, nil); code != http.StatusGone {
		t.Fatalf("seeding upload answered %d, want 410", code)
	}
	// The worker's session holds shard 1's and the other sweep's cells
	// before it leases anything.
	wses := dse.NewSession()
	for _, b := range [][]byte{shardCells[1], otherSweep} {
		if err := wses.LoadCheckpoint(bytes.NewReader(b)); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	uploads = nil
	mu.Unlock()
	if err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: proxy.URL, Name: "w", ExitWhenIdle: true, Logf: t.Logf, Session: wses,
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(leases) != 2 {
		t.Fatalf("worker took %d leases, want 2", len(leases))
	}
	settledAtLease := [][]byte{firstCell, shardCells[1]}
	for _, l := range leases {
		if got, want := cellKeys(t, l.Checkpoint), cellKeys(t, settledAtLease[l.Shard]); !maps.Equal(got, want) {
			t.Errorf("shard %d lease carries %d cells %v, want its %d settled cells %v", l.Shard, len(got), got, len(want), want)
		}
	}
	if len(uploads) < 2 {
		t.Fatalf("worker sent %d uploads, want at least one per shard", len(uploads))
	}
	for i, up := range uploads {
		l, ok := leases[up.LeaseID]
		if !ok {
			t.Fatalf("upload %d names unknown lease %s", i, up.LeaseID)
		}
		got, shard := cellKeys(t, up.Checkpoint), cellKeys(t, shardCells[l.Shard])
		for k := range got {
			if !shard[k] {
				t.Errorf("upload %d for shard %d carries foreign cell %s", i, l.Shard, k)
			}
		}
		if up.Complete && !maps.Equal(got, shard) {
			t.Errorf("shard %d's Complete upload carries %d cells, want its %d", l.Shard, len(got), len(shard))
		}
	}
	if st, _ := coord.Status("payload"); st.State != "done" || st.Stats.RecomputedSettledCells != 0 {
		t.Errorf("sweep after drain: %+v", st)
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

// TestWorkerDeathReshard kills a worker mid-sweep (it stops uploading after
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
	ses := dse.NewSession()
	coord := NewCoordinator(CoordinatorConfig{
		LeaseTTL: 30 * time.Second,
		Logf:     t.Logf,
		Session:  ses,
		now:      clock.Now,
	})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	var st SweepStatus
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 2}, &st); code != http.StatusCreated {
		t.Fatalf("submit answered %d", code)
	}

	// Worker A takes shard 0, settles its first candidate, uploads the
	// partial checkpoint, and dies (never uploads again, never completes).
	var lease Lease
	if code := postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: "doomed"}, &lease); code != http.StatusOK {
		t.Fatalf("lease answered %d", code)
	}
	if lease.Shard != 0 || lease.Shards != 2 {
		t.Fatalf("first lease got shard %d/%d, want 0/2", lease.Shard, lease.Shards)
	}
	aCands, err := leaseCandidates(&lease)
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
	partialCells := aSes.CheckpointCells()
	if partialCells == 0 {
		t.Fatalf("partial run settled no cells")
	}
	var cresp CheckpointResponse
	if code := postJSON(t, srv.URL+"/checkpoint", CheckpointUpload{
		SweepID:    lease.SweepID,
		LeaseID:    lease.LeaseID,
		Worker:     "doomed",
		Checkpoint: checkpointBytes(t, aSes),
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

	if fleetCkpt := checkpointBytes(t, ses); !bytes.Equal(fleetCkpt, soloCkpt) {
		t.Fatalf("merged checkpoint after re-shard differs from single-process checkpoint")
	}
}

// TestCoordinatorWire exercises the control-plane contracts that don't need
// real sweeps: submit validation, the incumbent folded from checkpoint
// uploads and fanned out on every round trip, stale-lease handling and the
// merge-on-410 rule.
func TestCoordinatorWire(t *testing.T) {
	spec := parseSpec(t, testSpecJSON("wire"))
	clock := &fakeClock{t: time.Unix(2_000_000, 0)}
	coord := NewCoordinator(CoordinatorConfig{LeaseTTL: 10 * time.Second, now: clock.Now})
	srv := httptest.NewServer(coord)
	defer srv.Close()

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

	var lease Lease
	if code := postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: "w"}, &lease); code != http.StatusOK {
		t.Fatalf("lease answered %d", code)
	}
	if err := lease.Validate(); err != nil {
		t.Fatalf("granted lease invalid: %v", err)
	}
	if len(lease.Candidates) != 1 || lease.Candidates[0] != 0 {
		t.Fatalf("first lease candidates = %v, want [0]", lease.Candidates)
	}
	if lease.Incumbent.Found {
		t.Fatalf("fresh sweep's lease carries an incumbent: %+v", lease.Incumbent)
	}

	// The best an upload carries folds monotonically into the incumbent and
	// comes back on the upload's own response.
	empty := checkpointBytes(t, dse.NewSession())
	upload := func(leaseID string, best dse.IncumbentStep) (int, CheckpointResponse) {
		var resp CheckpointResponse
		code := postJSON(t, srv.URL+"/checkpoint", CheckpointUpload{
			SweepID: "wire", LeaseID: leaseID, Worker: "w", Best: &best, Checkpoint: empty,
		}, &resp)
		return code, resp
	}
	if code, resp := upload(lease.LeaseID, dse.IncumbentStep{Candidate: "a", Obj: 10}); code != http.StatusOK ||
		!resp.Incumbent.Found || resp.Incumbent.Objective != 10 || resp.Incumbent.Candidate != "a" {
		t.Fatalf("first best upload: %d %+v", code, resp.Incumbent)
	}
	if code, resp := upload(lease.LeaseID, dse.IncumbentStep{Candidate: "b", Obj: 20}); code != http.StatusOK || resp.Incumbent.Objective != 10 {
		t.Fatalf("worse best moved the incumbent: %d %+v", code, resp.Incumbent)
	}

	// It fans out on every later lease and upload.
	var second Lease
	if code := postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: "w2"}, &second); code != http.StatusOK {
		t.Fatalf("second lease answered %d", code)
	}
	if len(second.Candidates) != 1 || second.Candidates[0] != 1 {
		t.Fatalf("second lease candidates = %v, want [1]", second.Candidates)
	}
	if !second.Incumbent.Found || second.Incumbent.Objective != 10 {
		t.Fatalf("lease incumbent = %+v, want the uploaded best", second.Incumbent)
	}
	if code, resp := upload(second.LeaseID, dse.IncumbentStep{Candidate: "d", Obj: 30}); code != http.StatusOK || resp.Incumbent.Objective != 10 {
		t.Fatalf("second lease's upload: %d %+v, want the uploaded best back", code, resp.Incumbent)
	}

	// Expire both leases; every shard is pending again.
	clock.Advance(11 * time.Second)
	got, _ := coord.Status("wire")
	if got.Stats.ExpiredLeases != 2 || got.ShardsPending != 4 {
		t.Fatalf("after expiry: %+v, want 2 expired leases and all shards pending", got)
	}

	// A stale-lease upload still merges its cells and folds its best (both
	// are sound) but answers 410 so the worker learns the shard moved on.
	ses := dse.NewSession()
	cands, _ := spec.Candidates()
	graphs, _ := spec.Graphs()
	if _, _, err := ses.RunContext(context.Background(), cands[:1], graphs, spec.Options()); err != nil {
		t.Fatalf("mini run: %v", err)
	}
	if code := postJSON(t, srv.URL+"/checkpoint", CheckpointUpload{
		SweepID: "wire", LeaseID: lease.LeaseID, Worker: "w",
		Best: &dse.IncumbentStep{Candidate: "c", Obj: 5}, Checkpoint: checkpointBytes(t, ses),
	}, nil); code != http.StatusGone {
		t.Fatalf("stale upload answered %d, want 410", code)
	}
	got, _ = coord.Status("wire")
	if got.CheckpointCells != len(graphs) {
		t.Fatalf("stale upload's %d cells were not merged: status counts %d", len(graphs), got.CheckpointCells)
	}
	if got.Incumbent.Objective != 5 || got.Incumbent.Candidate != "c" {
		t.Fatalf("stale upload's best was not folded: %+v", got.Incumbent)
	}
	if got.Stats.ExpiredLeases != 2 {
		t.Fatalf("stale upload double-counted expiry: %+v", got.Stats)
	}
}

// TestUploadHeartbeatDefersExpiry: an upload is a lease's heartbeat. On a
// fake clock, one at 0.9 TTL keeps its lease through another 0.9 TTL while
// a lease granted at the same time and never uploaded on lapses; without a
// further upload the first lapses too.
func TestUploadHeartbeatDefersExpiry(t *testing.T) {
	spec := parseSpec(t, testSpecJSON("beat"))
	clock := &fakeClock{t: time.Unix(3_000_000, 0)}
	coord := NewCoordinator(CoordinatorConfig{LeaseTTL: 10 * time.Second, now: clock.Now})
	srv := httptest.NewServer(coord)
	defer srv.Close()
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 2}, nil); code != http.StatusCreated {
		t.Fatalf("submit answered %d", code)
	}
	var beating, silent Lease
	for _, l := range []*Lease{&beating, &silent} {
		if code := postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: "w"}, l); code != http.StatusOK {
			t.Fatalf("lease answered %d", code)
		}
	}

	clock.Advance(9 * time.Second)
	if code := postJSON(t, srv.URL+"/checkpoint", CheckpointUpload{
		SweepID: "beat", LeaseID: beating.LeaseID, Worker: "w", Checkpoint: checkpointBytes(t, dse.NewSession()),
	}, nil); code != http.StatusOK {
		t.Fatalf("heartbeat upload at 0.9 TTL answered %d", code)
	}
	clock.Advance(9 * time.Second)
	got, _ := coord.Status("beat")
	if got.Stats.ExpiredLeases != 1 || len(got.Leases) != 1 || got.Leases[0].LeaseID != beating.LeaseID {
		t.Fatalf("1.8 TTL after the grants: %+v, want only the silent lease expired", got)
	}

	clock.Advance(2 * time.Second)
	if got, _ = coord.Status("beat"); got.Stats.ExpiredLeases != 2 || got.ShardsPending != 2 {
		t.Fatalf("1.1 TTL after the heartbeat: %+v, want both leases expired", got)
	}
}

// TestResubmitDoneSweepResumes: a finished sweep's id is free again. The
// re-submission supersedes the done record, starts with every cell of its
// grid settled in the coordinator's session, and the second drain restores
// every cell without annealing; a running id still answers 409.
func TestResubmitDoneSweepResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	spec := parseSpec(t, testSpecJSON("again"))
	coord := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Logf: t.Logf})
	srv := httptest.NewServer(coord)
	defer srv.Close()
	drain := func() SweepStatus {
		t.Helper()
		if err := RunWorker(context.Background(), WorkerConfig{Coordinator: srv.URL, Name: "w", ExitWhenIdle: true, Logf: t.Logf}); err != nil {
			t.Fatalf("worker: %v", err)
		}
		st, _ := coord.Status("again")
		if st.State != "done" {
			t.Fatalf("sweep not done after drain: %+v", st)
		}
		return st
	}

	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 2}, nil); code != http.StatusCreated {
		t.Fatalf("submit answered %d", code)
	}
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 2}, nil); code != http.StatusConflict {
		t.Fatalf("resubmitting a running id answered %d, want 409", code)
	}
	first := drain()

	var st SweepStatus
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 2}, &st); code != http.StatusCreated {
		t.Fatalf("resubmitting a done id answered %d, want 201", code)
	}
	if st.State != "running" || st.CheckpointCells != st.Cells {
		t.Fatalf("superseding record = %+v, want running with all %d cells settled", st, st.Cells)
	}
	second := drain()
	if second.Stats.ResumedCells != second.Cells || second.Stats.SAIterations != 0 || second.Stats.RecomputedSettledCells != 0 {
		t.Errorf("resubmission recomputed work: %+v", second.Stats)
	}
	if second.Incumbent.Objective != first.Incumbent.Objective {
		t.Errorf("resubmitted best %v, first %v", second.Incumbent.Objective, first.Incumbent.Objective)
	}
	if h := coord.Health(); h.Sweeps != 1 {
		t.Errorf("registry holds %d sweeps after a resubmission, want 1", h.Sweeps)
	}
}

// TestDoneSweepsEvicted: the registry keeps at most intake.RegistryCap
// sweeps once they are done — the oldest done ones go first, running ones
// never.
func TestDoneSweepsEvicted(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{})
	coord.sweeps.Put("live", &fleetSweep{id: "live"})
	for i := 0; i < intake.RegistryCap; i++ {
		id := fmt.Sprintf("done-%04d", i)
		coord.sweeps.Put(id, &fleetSweep{id: id, done: true})
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: parseSpec(t, testSpecJSON("fresh")), Shards: 1}, nil); code != http.StatusCreated {
		t.Fatalf("submit answered %d", code)
	}
	if n := coord.sweeps.Len(); n != intake.RegistryCap {
		t.Fatalf("registry holds %d records, want %d", n, intake.RegistryCap)
	}
	for id, want := range map[string]bool{"live": true, "fresh": true, "done-0000": false, "done-0001": false, "done-0002": true} {
		if _, ok := coord.sweeps.Get(id); ok != want {
			t.Errorf("sweep %s kept=%t, want %t", id, ok, want)
		}
	}
}

// TestExchange checks the worker-side incumbent cache: +Inf initial state
// and monotone folding.
func TestExchange(t *testing.T) {
	ex := newExchange()
	if !math.IsInf(ex.Best(), 1) {
		t.Fatalf("fresh exchange best = %v, want +Inf", ex.Best())
	}
	ex.fold(5)
	ex.fold(7) // worse: ignored
	ex.fold(math.NaN())
	if ex.Best() != 5 {
		t.Fatalf("best = %v, want 5", ex.Best())
	}
	ex.fold(3)
	if ex.Best() != 3 {
		t.Fatalf("best = %v, want 3", ex.Best())
	}
}

// TestPartition is the sharding rule's property test, on the reduced 72-,
// 128- and 512-TOPs grids, the full 72-TOPs grid and the test spec's
// one-group grid, at shard counts 1, 2, 3, 16, groups, groups+5 and n+5:
// the count is min(shards, n); every shard is non-empty and strictly
// ascending; the shards are pairwise disjoint and cover every enumeration
// index; two calls agree. With no more shards than groups no group is split
// and shard i starts with the i-th largest group. With more, every shard is
// a contiguous run of one group's indices, a group's pieces differ in size
// by at most one, and each extra piece went to a group whose pieces were
// then the largest.
func TestPartition(t *testing.T) {
	spec := parseSpec(t, testSpecJSON("part"))
	specCands, err := spec.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	grids := map[string][]arch.Config{
		"72 reduced":  dse.Space72().Reduced().Enumerate(),
		"128 reduced": dse.Space128().Reduced().Enumerate(),
		"512 reduced": dse.Space512().Reduced().Enumerate(),
		"72 full":     dse.Space72().Enumerate(),
		"test spec":   specCands,
	}
	for name, cands := range grids {
		n := len(cands)
		groupOf := make([]uint64, n)
		members := make(map[uint64][]int)
		for k := range cands {
			groupOf[k] = eval.SegmentFingerprint(&cands[k])
			members[groupOf[k]] = append(members[groupOf[k]], k)
		}
		var bySize []int
		for _, m := range members {
			bySize = append(bySize, len(m))
		}
		slices.Sort(bySize)
		slices.Reverse(bySize)
		groups := len(members)
		for _, shards := range []int{1, 2, 3, 16, groups, groups + 5, n + 5} {
			where := fmt.Sprintf("%s (%d candidates, %d groups): partition(%d shards)", name, n, groups, shards)
			parts := partition(cands, shards)
			if want := min(shards, n); len(parts) != want {
				t.Fatalf("%s cut %d shards, want %d", where, len(parts), want)
			}
			if again := partition(cands, shards); !slices.EqualFunc(parts, again, slices.Equal) {
				t.Fatalf("%s differs between two calls", where)
			}
			seen := make([]int, n)
			shardsOf := make(map[uint64][]int) // a group's shards
			for s, p := range parts {
				if len(p) == 0 {
					t.Fatalf("%s shard %d is empty", where, s)
				}
				largest := 0
				for i, k := range p {
					if i > 0 && k <= p[i-1] {
						t.Fatalf("%s shard %d not strictly ascending: %v", where, s, p)
					}
					if k < 0 || k >= n {
						t.Fatalf("%s shard %d index %d out of [0, %d)", where, s, k, n)
					}
					seen[k]++
					if g := shardsOf[groupOf[k]]; len(g) == 0 || g[len(g)-1] != s {
						shardsOf[groupOf[k]] = append(g, s)
					}
					largest = max(largest, len(members[groupOf[k]]))
				}
				if len(parts) <= groups && largest != bySize[s] {
					t.Errorf("%s shard %d's largest group holds %d candidates, want the %d-th largest's %d",
						where, s, largest, s+1, bySize[s])
				}
			}
			for k, c := range seen {
				if c != 1 {
					t.Fatalf("%s covers index %d %d times, want once", where, k, c)
				}
			}
			if len(parts) <= groups {
				for _, in := range shardsOf {
					if len(in) > 1 {
						t.Fatalf("%s splits a segment group across shards %v", where, in)
					}
				}
				continue
			}
			for fp, in := range shardsOf {
				var run []int // the group's pieces, in index order
				for _, s := range in {
					if groupOf[parts[s][0]] != groupOf[parts[s][len(parts[s])-1]] {
						t.Fatalf("%s shard %d mixes segment groups", where, s)
					}
				}
				slices.SortFunc(in, func(a, b int) int { return parts[a][0] - parts[b][0] })
				for _, s := range in {
					run = append(run, parts[s]...)
					if d := len(parts[s]) - len(parts[in[0]]); d < -1 || d > 1 {
						t.Fatalf("%s cuts a group into pieces of %d and %d", where, len(parts[in[0]]), len(parts[s]))
					}
				}
				if !slices.Equal(run, members[fp]) {
					t.Fatalf("%s: a group's pieces are not contiguous runs of its indices", where)
				}
			}
			// Each extra piece went to a group whose pieces were the largest:
			// before its last cut, group a's pieces were no smaller than any
			// group b's are now.
			for a, ina := range shardsOf {
				for b, inb := range shardsOf {
					if ca := len(ina); ca > 1 && len(members[a])*len(inb) < len(members[b])*(ca-1) {
						t.Fatalf("%s cut a %d-candidate group into %d pieces while a %d-candidate group got %d",
							where, len(members[a]), ca, len(members[b]), len(inb))
					}
				}
			}
		}
	}

	// The test spec's four NoC bandwidths on one array are one segment
	// group, cut into one-candidate runs.
	if parts := partition(specCands, 4); !slices.EqualFunc(parts, [][]int{{0}, {1}, {2}, {3}}, slices.Equal) {
		t.Fatalf("one-group grid of %d candidates asked for 4 shards cut into %v, want [[0] [1] [2] [3]]", len(specCands), parts)
	}
}

// segmentSpec is the reduced 72-TOPs grid x tinycnn at 10 SA iterations,
// prune off: 12 segment groups of 2 to 30 candidates.
func segmentSpec(t *testing.T, id string) (dse.Spec, []arch.Config) {
	t.Helper()
	spec := dse.Spec{ID: id, Space: dse.SpaceSpec{TOPS: 72, Reduced: true},
		Models: []string{"tinycnn"}, SAIterations: 10}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cands, err := spec.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	return spec, cands
}

// segmentGroups counts the segment groups of cands.
func segmentGroups(cands []arch.Config) int {
	groups := make(map[uint64]bool)
	for k := range cands {
		groups[eval.SegmentFingerprint(&cands[k])] = true
	}
	return len(groups)
}

// drainMisses runs spec once in one session, then submits it in shards
// shards to a coordinator that the given number of one-slot workers drain,
// and returns the eval-cache misses of the workers' sessions summed and of
// the one session.
func drainMisses(t *testing.T, spec dse.Spec, shards, workers int) (fleet, solo int64) {
	t.Helper()
	cands, err := spec.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := spec.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	one := dse.NewSession()
	if _, _, err := one.RunContext(context.Background(), cands, graphs, spec.Options()); err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute})
	srv := httptest.NewServer(coord)
	defer srv.Close()
	var st SweepStatus
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: shards}, &st); code != http.StatusCreated {
		t.Fatalf("submit answered %d", code)
	}
	if st.Shards != shards {
		t.Fatalf("submitted %d shards, got %d", shards, st.Shards)
	}
	sessions := make([]*dse.Session, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range sessions {
		sessions[i] = dse.NewSession()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = RunWorker(context.Background(), WorkerConfig{
				Coordinator: srv.URL, Name: fmt.Sprintf("w%d", i), Workers: 1, ExitWhenIdle: true, Session: sessions[i],
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got, _ := coord.Status(spec.ID); got.State != "done" || got.Stats.RecomputedSettledCells != 0 {
		t.Fatalf("sweep after drain: %+v", got)
	}
	for _, ses := range sessions {
		fleet += ses.CacheStats().Misses
	}
	return fleet, one.CacheStats().Misses
}

// TestFleetComputesEachSegmentOnce: asked for no more shards than the grid
// has segment groups, partition keeps each group on one shard, so no stripe
// segment is computed on two workers. Two one-slot workers drain the reduced
// 72-TOPs grid x tinycnn over one shard per group (12), and their sessions
// miss the eval cache, summed, exactly as often as one session's sweep of
// the same candidates does.
func TestFleetComputesEachSegmentOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	spec, cands := segmentSpec(t, "once")
	shards := segmentGroups(cands)
	if got, want := drainMisses(t, spec, shards, 2); got != want {
		t.Fatalf("%d shards over 2 workers missed the eval cache %d times, one session %d: a segment was computed twice",
			shards, got, want)
	}
}

// TestWorkerHoldsSplitGroups: asked for more shards than the grid has
// segment groups, partition cuts the largest groups into runs, each its own
// lease. One one-slot worker drains the reduced 72-TOPs grid x tinycnn over
// 16 shards (12 groups, the two largest cut in three), and misses the eval
// cache exactly as often as one session's sweep does: it holds each lease's
// groups until it has its next lease, and a group's runs are contiguous
// shards, so the lowest pending shard it is handed next is the group's next
// run and no run recomputes what the run before stored.
func TestWorkerHoldsSplitGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	spec, cands := segmentSpec(t, "split")
	shards := segmentGroups(cands) + 4
	if got, want := drainMisses(t, spec, shards, 1); got != want {
		t.Fatalf("%d shards on one worker missed the eval cache %d times, one session %d: a split group's run recomputed its segments",
			shards, got, want)
	}
}

// TestLeaseCandidatesRange: a worker refuses a lease whose index list
// reaches past the spec's enumeration, and resolves a valid one in order.
func TestLeaseCandidatesRange(t *testing.T) {
	spec := parseSpec(t, testSpecJSON("range"))
	all, err := spec.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	lease := Lease{SweepID: "s", LeaseID: "l", Shards: 1, TTLMS: 1, Spec: spec,
		Candidates: []int{1, len(all)}}
	if _, err := leaseCandidates(&lease); err == nil {
		t.Fatalf("index %d past %d candidates accepted", len(all), len(all))
	}
	lease.Candidates = []int{0, len(all) - 1}
	got, err := leaseCandidates(&lease)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != all[0].Name || got[1].Name != all[len(all)-1].Name {
		t.Fatalf("resolved %v, want the first and last candidates", got)
	}
}

// TestShardOptionsCapParallelism: a lease's spec cannot raise a worker's
// parallelism past GOMAXPROCS, however many workers it asks for, while a
// spec that asks for fewer, and a worker's own Workers setting, are kept.
// Only the options are resolved: no sweep runs.
func TestShardOptionsCapParallelism(t *testing.T) {
	spec := parseSpec(t, testSpecJSON("cap"))
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		spec, worker, want int
	}{
		{1 << 20, 0, procs},
		{1, 0, 1},
		{0, 0, 0}, // the sweep's own default, GOMAXPROCS
		{1 << 20, 3, 3},
		{1, 3, 3},
	} {
		spec.Workers = c.spec
		if err := spec.Validate(); err != nil {
			t.Fatalf("spec workers %d: %v", c.spec, err)
		}
		cfg := WorkerConfig{Workers: c.worker}
		if got := cfg.shardOptions(&spec).Workers; got != c.want {
			t.Errorf("spec workers %d, worker Workers %d: shard runs %d workers, want %d", c.spec, c.worker, got, c.want)
		}
	}
}

// TestWorkerUploadsCarryBest runs a worker against a fake coordinator that
// grants one whole-grid lease and records every request: each checkpoint
// upload after the first feasible candidate must carry the worker's best
// delivered result, that best must only improve and end at the
// single-process best, and the incumbent must never travel on any other
// endpoint. The fake answers every upload with an impossible incumbent
// (objective -1), which the worker must report and not fold.
func TestWorkerUploadsCarryBest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	spec := parseSpec(t, testSpecJSON("fake"))
	all, err := spec.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := spec.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	solo := dse.NewSession().Run(all, graphs, spec.Options())
	for _, r := range solo {
		if !r.Feasible {
			t.Fatalf("test grid needs every candidate feasible; %s is %s", r.Cfg.Name, r.Status())
		}
	}
	soloBest := dse.Best(solo)

	var mu sync.Mutex
	var paths, logs []string
	var uploads []CheckpointUpload
	leased := false
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		paths = append(paths, r.URL.Path)
		switch r.URL.Path {
		case "/lease":
			if leased {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			leased = true
			idx := make([]int, len(all))
			for i := range idx {
				idx[i] = i
			}
			intake.WriteJSON(w, http.StatusOK, Lease{SweepID: "fake", LeaseID: "l1", Shards: 1,
				Candidates: idx, Spec: spec, TTLMS: 60_000})
		case "/checkpoint":
			var up CheckpointUpload
			if err := json.NewDecoder(r.Body).Decode(&up); err != nil {
				t.Errorf("decoding upload: %v", err)
			}
			uploads = append(uploads, up)
			// An impossible incumbent: folding it would prune every
			// candidate the worker has not started yet.
			intake.WriteJSON(w, http.StatusOK, CheckpointResponse{Incumbent: IncumbentState{Found: true, Objective: -1}})
		default:
			http.NotFound(w, r)
		}
	}))
	defer fake.Close()

	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	if err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: fake.URL, Name: "wf", ExitWhenIdle: true, Logf: logf,
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, "ignoring invalid incumbent") }) {
		t.Errorf("worker did not report the impossible incumbent; logs: %q", logs)
	}
	for _, p := range paths {
		if p != "/lease" && p != "/checkpoint" {
			t.Errorf("worker hit %s; the incumbent travels only on checkpoint uploads", p)
		}
	}
	if len(uploads) < 2 {
		t.Fatalf("worker sent %d uploads, want partial ones plus the final", len(uploads))
	}
	prev := math.Inf(1)
	for i, up := range uploads {
		if up.Best == nil {
			t.Fatalf("upload %d of %d carries no best", i, len(uploads))
		}
		if up.Best.Obj > prev {
			t.Fatalf("upload %d best %v is worse than an earlier upload's %v", i, up.Best.Obj, prev)
		}
		prev = up.Best.Obj
	}
	last := uploads[len(uploads)-1]
	if !last.Complete {
		t.Fatalf("final upload not complete: %+v", last.Stats)
	}
	if last.Best.Obj != soloBest.Obj || last.Best.Candidate != soloBest.Cfg.Name {
		t.Fatalf("final best %+v, want single-process best %s (%v)", *last.Best, soloBest.Cfg.Name, soloBest.Obj)
	}
}

// TestWorkerHeartbeat runs a worker against a fake coordinator that leases
// one shard at a 60 ms TTL, so the worker's heartbeat ticks every 20 ms while
// the shard's first cell anneals for many ticks. Uploads with no best must
// keep the lease alive before any candidate settles, and a 410 answer to a
// heartbeat must cancel the shard, so its final upload is not Complete. The
// worker anneals on one slot: the heartbeat's upload and the fake
// coordinator's handler share this process, and on a two-core machine two
// annealing cells left them waiting a scheduler time slice per hop.
func TestWorkerHeartbeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	spec := parseSpec(t, testSpecJSON("beat"))
	spec.SAIterations = 20000
	run := func(answer int) []CheckpointUpload {
		var mu sync.Mutex
		var uploads []CheckpointUpload
		leased := false
		fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			switch r.URL.Path {
			case "/lease":
				if leased {
					w.WriteHeader(http.StatusNoContent)
					return
				}
				leased = true
				intake.WriteJSON(w, http.StatusOK, Lease{SweepID: "beat", LeaseID: "l1", Shards: 1,
					Candidates: []int{0, 1}, Spec: spec, TTLMS: 60})
			case "/checkpoint":
				var up CheckpointUpload
				if err := json.NewDecoder(r.Body).Decode(&up); err != nil {
					t.Errorf("decoding upload: %v", err)
				}
				uploads = append(uploads, up)
				if answer != http.StatusOK {
					intake.WriteError(w, answer, "lease l1 is no longer live")
					return
				}
				intake.WriteJSON(w, http.StatusOK, CheckpointResponse{})
			default:
				http.NotFound(w, r)
			}
		}))
		defer fake.Close()
		start := time.Now()
		if err := RunWorker(context.Background(), WorkerConfig{
			Coordinator: fake.URL, Name: "wb", Workers: 1, ExitWhenIdle: true, Logf: t.Logf,
		}); err != nil {
			t.Fatalf("worker: %v", err)
		}
		t.Logf("answering %d: %d uploads in %v", answer, len(uploads), time.Since(start))
		mu.Lock()
		defer mu.Unlock()
		return uploads
	}

	// Every candidate of the test grid is feasible, so an upload without a
	// best was sent before any candidate settled: a heartbeat.
	uploads := run(http.StatusOK)
	beats := 0
	for _, up := range uploads {
		if up.Best != nil {
			break
		}
		if up.Complete {
			t.Fatalf("complete upload carries no best")
		}
		beats++
	}
	if beats < 2 {
		t.Fatalf("%d heartbeat uploads before the first settled candidate, want >= 2", beats)
	}
	if last := uploads[len(uploads)-1]; !last.Complete || last.Stats == nil {
		t.Fatalf("final upload of a live lease not complete: %+v", last)
	}

	uploads = run(http.StatusGone)
	if first := uploads[0]; first.Best != nil || first.Complete {
		t.Fatalf("first upload is not a heartbeat: %+v", first)
	}
	if last := uploads[len(uploads)-1]; last.Complete || last.Stats != nil {
		t.Fatalf("shard whose heartbeat answered 410 still completed: %+v", last)
	}
}
