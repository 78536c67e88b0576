package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gemini/internal/dse"
	"gemini/internal/intake"
)

// postRaw posts raw bytes (valid or not) and returns the status code.
func postRaw(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestWireValidate drives every wire message's Validate through its error
// branches directly — the handler-path tests only see valid shapes.
func TestWireValidate(t *testing.T) {
	spec := parseSpec(t, testSpecJSON("wv"))
	lease := func(cands ...int) *Lease {
		return &Lease{SweepID: "s", LeaseID: "l", Shard: 0, Shards: 2, Candidates: cands, Spec: spec, TTLMS: 1000}
	}
	if err := lease(0, 2).Validate(); err != nil {
		t.Fatalf("valid lease rejected: %v", err)
	}

	badIncumbent := lease(0)
	badIncumbent.Incumbent = IncumbentState{Found: true, Objective: math.Inf(1)}
	badSpec := lease(0)
	badSpec.Spec = dse.Spec{}
	uploadBest := func(obj float64) *CheckpointUpload {
		return &CheckpointUpload{SweepID: "s", LeaseID: "l", Checkpoint: []byte("{}"),
			Best: &dse.IncumbentStep{Obj: obj}}
	}
	bad := []struct {
		name string
		v    validatable
	}{
		{"lease no ids", &Lease{Shards: 1, Candidates: []int{0}, TTLMS: 1}},
		{"lease shard range", &Lease{SweepID: "s", LeaseID: "l", Shard: 3, Shards: 2, Candidates: []int{0}, TTLMS: 1}},
		{"lease ttl", &Lease{SweepID: "s", LeaseID: "l", Shards: 1, Candidates: []int{0}, TTLMS: 0}},
		{"lease empty candidates", lease()},
		{"lease unsorted candidates", lease(2, 0)},
		{"lease duplicate candidates", lease(1, 1)},
		{"lease negative candidate", lease(-1, 0)},
		{"lease bad incumbent", badIncumbent},
		{"lease bad spec", badSpec},
		{"lease request", &LeaseRequest{}},
		{"incumbent state", &IncumbentState{Found: true, Objective: math.NaN()}},
		{"incumbent state negative", &IncumbentState{Found: true, Objective: -1}},
		{"incumbent state zero", &IncumbentState{Found: true}},
		{"shard best", uploadBest(math.Inf(1))},
		{"shard best negative", uploadBest(-1)},
		{"shard best zero", uploadBest(0)},
		{"upload ids", &CheckpointUpload{Checkpoint: []byte("{}")}},
		{"upload no bytes", &CheckpointUpload{SweepID: "s", LeaseID: "l"}},
		{"upload bad best", uploadBest(math.NaN())},
		{"checkpoint response", &CheckpointResponse{
			Incumbent: IncumbentState{Found: true, Objective: math.Inf(1)}}},
		{"checkpoint response negative", &CheckpointResponse{
			Incumbent: IncumbentState{Found: true, Objective: -1}}},
	}
	for _, tc := range bad {
		if err := tc.v.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.v)
		}
	}
	// A complete upload's stats are the shard's dse.SweepStats; only the
	// three counters the coordinator folds are checked.
	for _, tc := range []struct {
		stats dse.SweepStats
		want  string
	}{
		{dse.SweepStats{SAIterations: -1}, "fleet: shard stats sa_iterations = -1, want >= 0"},
		{dse.SweepStats{ResumedCells: -2}, "fleet: shard stats resumed_cells = -2, want >= 0"},
		{dse.SweepStats{PrunedCandidates: -3}, "fleet: shard stats pruned_candidates = -3, want >= 0"},
	} {
		up := &CheckpointUpload{SweepID: "s", LeaseID: "l", Checkpoint: []byte("{}"), Stats: &tc.stats}
		if err := up.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("upload stats %+v: Validate = %v, want %q", tc.stats, err, tc.want)
		}
	}
}

// TestCoordinatorSurface covers the read-only endpoints, submit rejections,
// id minting and the health snapshot — no real sweeps run here.
func TestCoordinatorSurface(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{}) // default TTL, clock, no logger
	srv := httptest.NewServer(coord)
	defer srv.Close()

	// Empty list.
	resp, err := http.Get(srv.URL + "/sweeps")
	if err != nil {
		t.Fatalf("GET /sweeps: %v", err)
	}
	var list []SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	resp.Body.Close()
	if len(list) != 0 {
		t.Fatalf("fresh coordinator lists %d sweeps", len(list))
	}

	// Submit rejections.
	if code := postRaw(t, srv.URL+"/sweeps", "{nope"); code != http.StatusBadRequest {
		t.Fatalf("bad submit JSON answered %d", code)
	}
	spec := parseSpec(t, testSpecJSON("ignored"))
	spec.ID = "bad id!"
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad sweep id answered %d", code)
	}
	invalid := spec
	invalid.ID = ""
	invalid.Models = nil
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: invalid, Shards: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid spec answered %d", code)
	}
	badModel := spec
	badModel.ID = ""
	badModel.Models = []string{"no-such-model"}
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: badModel, Shards: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown model answered %d", code)
	}

	// A submit with no id mints one.
	minted := parseSpec(t, testSpecJSON("ignored"))
	minted.ID = ""
	var st SweepStatus
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: minted, Shards: 2}, &st); code != http.StatusCreated {
		t.Fatalf("id-less submit answered %d", code)
	}
	if !strings.HasPrefix(st.ID, "fleet-") {
		t.Fatalf("minted id %q does not look generated", st.ID)
	}

	// List and status see it; unknown status is 404.
	resp, err = http.Get(srv.URL + "/sweeps")
	if err != nil {
		t.Fatalf("GET /sweeps: %v", err)
	}
	list = nil
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v, want the submitted sweep", list)
	}
	resp, err = http.Get(srv.URL + "/sweeps/" + st.ID)
	if err != nil {
		t.Fatalf("GET /sweeps/%s: %v", st.ID, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status answered %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/sweeps/none")
	if err != nil {
		t.Fatalf("GET /sweeps/none: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown status answered %d", resp.StatusCode)
	}

	// Health before and after a lease.
	h := coord.Health()
	if h.Sweeps != 1 || h.Active != 1 || h.ShardsPending != 2 {
		t.Fatalf("health = %+v", h)
	}
	if code := postRaw(t, srv.URL+"/lease", "{nope"); code != http.StatusBadRequest {
		t.Fatalf("bad lease JSON answered %d", code)
	}
	if code := postJSON(t, srv.URL+"/lease", LeaseRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("nameless lease request answered %d", code)
	}
	var lease Lease
	if code := postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: "wx"}, &lease); code != http.StatusOK {
		t.Fatalf("lease answered %d", code)
	}
	if code := postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: "wa"}, nil); code != http.StatusOK {
		t.Fatalf("second lease answered %d", code)
	}
	h = coord.Health()
	if h.ShardsLeased != 2 || len(h.Workers) != 2 || h.Workers[0] != "wa" || h.Workers[1] != "wx" {
		t.Fatalf("health after two leases = %+v, want workers in name order", h)
	}

	// The incumbent travels only on checkpoint uploads, so there is no
	// incumbent endpoint to push to.
	if code := postRaw(t, srv.URL+"/incumbent", `{"sweep_id":"s","objective":1}`); code != http.StatusNotFound && code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /incumbent answered %d, want 404 or 405", code)
	}

	// Checkpoint rejections: bad JSON, invalid envelope, unknown sweep,
	// lapsed lease, and on a live lease corrupt checkpoint bytes and an
	// impossible best, which must not become the incumbent every later
	// lease carries.
	if code := postRaw(t, srv.URL+"/checkpoint", "{nope"); code != http.StatusBadRequest {
		t.Fatalf("bad checkpoint JSON answered %d", code)
	}
	if code := postJSON(t, srv.URL+"/checkpoint", CheckpointUpload{SweepID: st.ID}, nil); code != http.StatusBadRequest {
		t.Fatalf("byte-less upload answered %d", code)
	}
	if code := postJSON(t, srv.URL+"/checkpoint", CheckpointUpload{
		SweepID: st.ID, Checkpoint: []byte(`{}`),
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("lease-less upload answered %d", code)
	}
	if code := postJSON(t, srv.URL+"/checkpoint", CheckpointUpload{
		SweepID: "none", LeaseID: "l", Checkpoint: []byte(`{}`),
	}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown-sweep upload answered %d", code)
	}
	if code := postJSON(t, srv.URL+"/checkpoint", CheckpointUpload{
		SweepID: st.ID, LeaseID: "wrong", Checkpoint: checkpointBytes(t, dse.NewSession()),
	}, nil); code != http.StatusGone {
		t.Fatalf("wrong-lease upload answered %d", code)
	}
	if code := postJSON(t, srv.URL+"/checkpoint", CheckpointUpload{
		SweepID: st.ID, LeaseID: lease.LeaseID, Checkpoint: []byte(`{"version":999}`),
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("corrupt upload answered %d", code)
	}
	if code := postJSON(t, srv.URL+"/checkpoint", CheckpointUpload{
		SweepID: st.ID, LeaseID: lease.LeaseID, Checkpoint: checkpointBytes(t, dse.NewSession()),
		Best: &dse.IncumbentStep{Candidate: "poison", Obj: -1},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("upload with best.objective = -1 answered %d, want 400", code)
	}
	if got, _ := coord.Status(st.ID); got.Incumbent.Found {
		t.Fatalf("an impossible best became the fleet incumbent: %+v", got.Incumbent)
	}
}

// TestBoundedDecode: every POST endpoint reads at most its body limit and
// answers 413 past it, and submit — the one client-facing message — rejects
// unknown fields by name, so a removed spec knob is a 400 here exactly as it
// is on POST /sweep.
func TestBoundedDecode(t *testing.T) {
	srv := httptest.NewServer(NewCoordinator(CoordinatorConfig{}))
	defer srv.Close()

	for path, limit := range map[string]int{
		"/sweeps": intake.BodyLimit, "/lease": intake.BodyLimit, "/checkpoint": checkpointBodyLimit,
	} {
		body := `{"worker":"` + strings.Repeat("w", limit) + `"}`
		if code := postRaw(t, srv.URL+path, body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body answered %d, want 413", path, len(body), code)
		}
	}

	for _, knob := range []string{
		`"order":"grid"`, `"bound":"cut"`, `"abandon_every":8`, `"shard":{"index":0,"count":2}`,
		`"retry":{"max":2}`, `"cell_timeout_ms":1000`,
	} {
		body := `{"shards":1,"spec":{"space":{"tops":72},"models":["tinycnn"],` + knob + `}}`
		resp, err := http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb intake.ErrorBody
		derr := json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		name := knob[:strings.Index(knob, ":")]
		if derr != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "unknown field "+name) {
			t.Errorf("submit with %s: code=%d msg=%q (%v), want 400 naming the unknown field", knob, resp.StatusCode, eb.Error, derr)
		}
	}
}

// TestSubmitGuards covers the grid cap.
func TestSubmitGuards(t *testing.T) {
	spec := parseSpec(t, testSpecJSON("guard"))
	srv := httptest.NewServer(NewCoordinator(CoordinatorConfig{MaxCells: 1}))
	defer srv.Close()
	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 1}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("over-cap submit answered %d, want 422", code)
	}
}

// TestSingleShardDrain drives one shard by hand through the Complete upload
// so the done transition, the stats fold and OnMerge are covered without a
// worker loop.
func TestSingleShardDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (tiny) sweep")
	}
	spec := parseSpec(t, testSpecJSON("drain"))
	var merges, dones atomic.Int32
	coord := NewCoordinator(CoordinatorConfig{
		Logf: t.Logf,
		OnMerge: func(sweepDone bool) {
			merges.Add(1)
			if sweepDone {
				dones.Add(1)
			}
		},
	})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	if code := postJSON(t, srv.URL+"/sweeps", SubmitRequest{Spec: spec, Shards: 1}, nil); code != http.StatusCreated {
		t.Fatalf("submit answered %d", code)
	}
	var lease Lease
	if code := postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: "manual"}, &lease); code != http.StatusOK {
		t.Fatalf("lease answered %d", code)
	}
	cands, err := lease.Spec.Candidates()
	if err != nil {
		t.Fatalf("candidates: %v", err)
	}
	graphs, err := lease.Spec.Graphs()
	if err != nil {
		t.Fatalf("graphs: %v", err)
	}
	opt := lease.Spec.Options()
	opt.SAIterations = 10
	ses := dse.NewSession()
	results, stats, err := ses.RunContext(context.Background(), cands, graphs, opt)
	if err != nil {
		t.Fatalf("manual shard run: %v", err)
	}
	var buf bytes.Buffer
	if err := ses.SaveCheckpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	up := CheckpointUpload{
		SweepID:    lease.SweepID,
		LeaseID:    lease.LeaseID,
		Worker:     "manual",
		Complete:   true,
		Stats:      &stats,
		Checkpoint: buf.Bytes(),
	}
	if best := dse.Best(results); best != nil && best.Feasible {
		up.Best = &dse.IncumbentStep{Candidate: best.Cfg.Name, Obj: best.Obj}
	}
	if code := postJSON(t, srv.URL+"/checkpoint", up, nil); code != http.StatusOK {
		t.Fatalf("complete upload answered %d", code)
	}
	if got, _ := coord.Status("drain"); got.State != "done" || dones.Load() != 1 {
		t.Fatalf("single-shard sweep not done after its complete upload: %s, %d done merges", got.State, dones.Load())
	}
	// A late upload on the spent lease still merges, but the sweep finished
	// once: OnMerge(true) fires exactly once.
	if code := postJSON(t, srv.URL+"/checkpoint", up, nil); code != http.StatusGone {
		t.Fatalf("upload on a spent lease answered %d, want 410", code)
	}
	if merges.Load() != 2 || dones.Load() != 1 {
		t.Fatalf("OnMerge fired %d times, %d with sweepDone; want 2 and 1", merges.Load(), dones.Load())
	}
	got, _ := coord.Status("drain")
	if got.State != "done" || got.Stats.SAIterations != stats.SAIterations {
		t.Fatalf("status after drain = %+v", got)
	}
}

// TestWorkerConfigAndErrors covers the worker-side defaults and failure
// paths that the happy-path tests never hit.
func TestWorkerConfigAndErrors(t *testing.T) {
	var cfg WorkerConfig
	if got := cfg.name(); !strings.HasPrefix(got, "worker-") {
		t.Fatalf("default worker name = %q", got)
	}
	cfg.Name = "n"
	if cfg.name() != "n" {
		t.Fatalf("explicit name ignored")
	}
	if cfg.poll() != 500*time.Millisecond {
		t.Fatalf("default poll = %v", cfg.poll())
	}
	cfg.Poll = time.Second
	if cfg.poll() != time.Second {
		t.Fatalf("explicit poll ignored")
	}

	if err := RunWorker(context.Background(), WorkerConfig{}); err == nil {
		t.Fatalf("worker without a coordinator URL did not fail")
	}

	// A coordinator that always errors: the worker retries through its poll
	// sleep until the context dies.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer bad.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	err := RunWorker(ctx, WorkerConfig{Coordinator: bad.URL, Name: "e", Poll: 10 * time.Millisecond, Logf: t.Logf})
	if err != context.DeadlineExceeded {
		t.Fatalf("erroring coordinator: worker returned %v, want context deadline", err)
	}

	// An already-dead context returns immediately.
	dead, kill := context.WithCancel(context.Background())
	kill()
	if err := RunWorker(dead, WorkerConfig{Coordinator: bad.URL}); err != context.Canceled {
		t.Fatalf("dead context: worker returned %v", err)
	}

	// sleepCtx wakes on cancellation.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go cancel2()
	if sleepCtx(ctx2, time.Minute) {
		<-ctx2.Done() // raced the cancel: the full sleep must not have elapsed
	}

	// client.post surfaces transport errors and non-2xx statuses.
	cl := &client{base: bad.URL, hc: bad.Client(), worker: "e"}
	if _, err := cl.lease(context.Background()); err == nil {
		t.Fatalf("lease against erroring server did not fail")
	}
	closed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	closed.Close()
	cl = &client{base: closed.URL, hc: http.DefaultClient, worker: "e"}
	if _, err := cl.post(context.Background(), "/lease", LeaseRequest{Worker: "e"}, nil); err == nil {
		t.Fatalf("post against closed server did not fail")
	}
}

// TestRunWorkerIdlePoll covers the non-ExitWhenIdle 204 path: the worker
// sleeps its poll interval and asks again until canceled.
func TestRunWorkerIdlePoll(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	polls := make(chan struct{}, 16)
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/lease" {
			select {
			case polls <- struct{}{}:
			default:
			}
		}
		coord.ServeHTTP(w, r)
	}))
	defer counting.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerConfig{Coordinator: counting.URL, Name: "idle", Poll: 5 * time.Millisecond})
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-polls:
		case <-time.After(5 * time.Second):
			t.Fatalf("worker stopped polling after %d polls", i)
		}
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("idle worker returned %v", err)
	}
}

var _ = fmt.Sprintf // keep fmt imported if assertions above change
