package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gemini/internal/dse"
)

// tinySpec builds a cheap sweep spec with candidates = len(nocs) (one MAC
// count, cut 1x1, so the NoC list is the only multi-valued dimension).
func tinySpec(id string, nocs ...float64) dse.Spec {
	if len(nocs) == 0 {
		nocs = []float64{32}
	}
	return dse.Spec{
		ID: id,
		Space: dse.SpaceSpec{
			TOPS: 72, Cuts: []int{1}, DRAMPerTOPS: []float64{2},
			NoCBWs: nocs, D2DRatios: []float64{0.5},
			GLBsKB: []int{1024}, MACs: []int{1024},
		},
		Models:       []string{"tinycnn"},
		SAIterations: 30,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(func() { hs.Close(); s.Close() })
	return s, hs
}

func postSpec(t *testing.T, url string, spec dse.Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readEvents drains an NDJSON stream.
func readEvents(t *testing.T, resp *http.Response) []Event {
	t.Helper()
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return events
}

func runSweep(t *testing.T, url string, spec dse.Spec) []Event {
	t.Helper()
	resp := postSpec(t, url, spec)
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		t.Fatalf("POST /sweep: status %d: %s", resp.StatusCode, eb.Error)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	return readEvents(t, resp)
}

func getStatus(t *testing.T, url, id string) (SweepStatus, int) {
	t.Helper()
	resp, err := http.Get(url + "/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SweepStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// TestSweepRoundTrip pins the tentpole's happy path: POST a spec, stream
// start / one result per candidate / done, then read the finished status.
func TestSweepRoundTrip(t *testing.T) {
	_, hs := newTestServer(t, Config{DataDir: t.TempDir()})
	spec := tinySpec("round-trip", 32, 64)

	events := runSweep(t, hs.URL, spec)
	if len(events) != 4 { // start + 2 results + done
		t.Fatalf("got %d events, want 4: %+v", len(events), events)
	}
	start := events[0]
	if start.Type != "start" || start.SweepID != "round-trip" || start.Candidates != 2 || start.Cells != 2 {
		t.Errorf("bad start event: %+v", start)
	}
	if len(start.Models) != 1 || start.Models[0] != "tinycnn" {
		t.Errorf("start models = %v", start.Models)
	}
	for _, ev := range events[1:3] {
		if ev.Type != "result" || ev.Result == nil {
			t.Fatalf("bad result event: %+v", ev)
		}
		if ev.Result.Status != "ok" || ev.Result.Objective <= 0 {
			t.Errorf("candidate %s: status=%s obj=%g", ev.Result.Arch, ev.Result.Status, ev.Result.Objective)
		}
	}
	done := events[3]
	if done.Type != "done" || done.Best == nil || done.Stats == nil {
		t.Fatalf("bad done event: %+v", done)
	}
	if done.Stats.Candidates != 2 || done.Stats.Cells != 2 || done.Stats.Canceled {
		t.Errorf("done stats: %+v", done.Stats)
	}
	// The winner must be the lower-objective streamed result.
	best := events[1].Result
	if events[2].Result.Objective < best.Objective {
		best = events[2].Result
	}
	if done.Best.Arch != best.Arch {
		t.Errorf("done best = %s, want %s", done.Best.Arch, best.Arch)
	}

	// A fresh sweep with different mapping options on the same (shared)
	// session must not report the first sweep's cells as its own
	// checkpoint: checkpoint_cells is scoped to the sweep's grid+options.
	fresh := tinySpec("fresh-after", 32)
	fresh.Seed = 99
	freshEvents := runSweep(t, hs.URL, fresh)
	if freshEvents[0].CheckpointCells != 0 {
		t.Errorf("fresh sweep start reports checkpoint_cells=%d, want 0", freshEvents[0].CheckpointCells)
	}

	st, code := getStatus(t, hs.URL, "round-trip")
	if code != http.StatusOK {
		t.Fatalf("GET /sweeps/round-trip: %d", code)
	}
	if st.State != StateDone || st.DoneCandidates != 2 || st.Best == nil || st.Stats == nil {
		t.Errorf("status: %+v", st)
	}
	if st.FinishedAt == nil || st.FinishedAt.Before(st.StartedAt) {
		t.Errorf("finished_at not set sanely: %+v", st)
	}
}

// TestStreamOrder pins the NDJSON framing contract: start first, done last,
// result seq strictly 1..N in stream order — one per candidate, including
// candidates that share a display name (the 7-tuple omits cut orientation,
// so the 1x2 and 2x1 cuts of this grid print alike).
func TestStreamOrder(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	spec := tinySpec("ordered", 32, 64)
	spec.Space.Cuts = []int{1, 2}
	events := runSweep(t, hs.URL, spec)
	if events[0].Type != "start" {
		t.Fatalf("first event %q, want start", events[0].Type)
	}
	if events[len(events)-1].Type != "done" {
		t.Fatalf("last event %q, want done", events[len(events)-1].Type)
	}
	seq := 0
	names := make(map[string]bool)
	for _, ev := range events[1 : len(events)-1] {
		seq++
		if ev.Type != "result" || ev.Seq != seq {
			t.Fatalf("event %d: type=%s seq=%d, want result seq=%d", seq, ev.Type, ev.Seq, seq)
		}
		names[ev.Result.Arch] = true
	}
	if seq != 8 || events[0].Candidates != 8 {
		t.Errorf("streamed %d results for %d candidates, want 8", seq, events[0].Candidates)
	}
	if len(names) != 6 {
		t.Errorf("grid has %d distinct names, want 6 (two same-named pairs)", len(names))
	}
	if st, _ := getStatus(t, hs.URL, "ordered"); st.DoneCandidates != 8 {
		t.Errorf("status done_candidates = %d, want 8", st.DoneCandidates)
	}
}

// TestResumeAfterRestart pins the acceptance criterion: a brand-new server
// process (fresh sessions) pointed at the same data dir resumes a finished
// sweep from its checkpoint and recomputes zero completed cells.
func TestResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("restart-me", 32, 64)

	_, hsA := newTestServer(t, Config{DataDir: dir})
	first := runSweep(t, hsA.URL, spec)
	firstDone := first[len(first)-1]
	if firstDone.Type != "done" || firstDone.Stats.ResumedCells != 0 {
		t.Fatalf("first run: %+v", firstDone)
	}
	hsA.Close()

	_, hsB := newTestServer(t, Config{DataDir: dir})
	second := runSweep(t, hsB.URL, spec)
	if second[0].CheckpointCells == 0 {
		t.Error("restarted server loaded no checkpoint cells")
	}
	done := second[len(second)-1]
	if done.Type != "done" {
		t.Fatalf("second run ended with %q", done.Type)
	}
	if done.Stats.ResumedCells != done.Stats.Cells {
		t.Errorf("resumed %d of %d cells; a restarted sweep must recompute zero completed cells",
			done.Stats.ResumedCells, done.Stats.Cells)
	}
	// Identical outcome either way.
	if firstDone.Best.Arch != done.Best.Arch || firstDone.Best.Objective != done.Best.Objective {
		t.Errorf("resumed best %+v != original %+v", done.Best, firstDone.Best)
	}
}

// TestRepostWithoutDataDirResumes: with no DataDir the only checkpoint is the
// session's own cells, and every sweep runs on the one session — so a spec
// re-POSTed under its id restores every cell whatever ran in between. (A
// session pool could hand the re-POST a session that never saw the cells.)
func TestRepostWithoutDataDirResumes(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	spec := tinySpec("in-memory", 32, 64)
	runSweep(t, hs.URL, spec)
	runSweep(t, hs.URL, tinySpec("in-between", 16))
	again := runSweep(t, hs.URL, spec)
	done := again[len(again)-1]
	if done.Type != "done" || done.Stats.ResumedCells != done.Stats.Cells {
		t.Fatalf("re-POST resumed %d of %d cells (%s event); want all of them",
			done.Stats.ResumedCells, done.Stats.Cells, done.Type)
	}
	if again[0].CheckpointCells != done.Stats.Cells {
		t.Errorf("start event reports %d settled cells, want %d", again[0].CheckpointCells, done.Stats.Cells)
	}
}

// TestResumeAfterMidSweepCancel kills a sweep partway (DELETE), restarts
// the server, and re-POSTs: cells settled before the kill must be restored,
// not recomputed, and the sweep must complete.
func TestResumeAfterMidSweepCancel(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("killed", 8, 16, 32, 64)
	spec.Workers = 1
	spec.SAIterations = 400
	spec.Restarts = 4

	_, hsA := newTestServer(t, Config{DataDir: dir})
	resp := postSpec(t, hsA.URL, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	// Read events until the first candidate settles, then cancel.
	sc := bufio.NewScanner(resp.Body)
	var seen int
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "result" {
			seen++
			req, _ := http.NewRequest(http.MethodDelete, hsA.URL+"/sweeps/killed", nil)
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			dresp.Body.Close()
			if dresp.StatusCode != http.StatusAccepted {
				t.Fatalf("DELETE: %d", dresp.StatusCode)
			}
			break
		}
	}
	if seen == 0 {
		t.Fatal("no result before cancel")
	}
	// Drain the rest of the stream: it must end in a typed error event.
	var last Event
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	if last.Type != "error" || !strings.Contains(last.Error, "canceled") {
		t.Fatalf("canceled sweep ended with %+v", last)
	}
	st, _ := getStatus(t, hsA.URL, "killed")
	if st.State != StateCanceled {
		t.Errorf("state = %s, want canceled", st.State)
	}
	hsA.Close()

	_, hsB := newTestServer(t, Config{DataDir: dir})
	events := runSweep(t, hsB.URL, spec)
	if events[0].CheckpointCells == 0 {
		t.Error("no checkpoint cells survived the kill")
	}
	done := events[len(events)-1]
	if done.Type != "done" {
		t.Fatalf("resumed sweep ended with %q: %+v", done.Type, done)
	}
	if done.Stats.ResumedCells == 0 {
		t.Error("resumed sweep recomputed every cell")
	}
	if done.Stats.ResumedCells < seen {
		t.Errorf("resumed %d cells, want >= the %d that settled before the kill", done.Stats.ResumedCells, seen)
	}
}

// TestConcurrentSweeps runs two sweeps at once on one shared session; under
// -race this is the concurrency acceptance test.
func TestConcurrentSweeps(t *testing.T) {
	_, hs := newTestServer(t, Config{DataDir: t.TempDir()})
	specs := []dse.Spec{tinySpec("conc-a", 8, 32), tinySpec("conc-b", 16, 64)}
	// Overlap the grids so the sweeps race on the same shared cache keys.
	specs[1].Models = []string{"tinycnn"}
	// One worker slot each, so the queue dispatches both at once and the
	// sweeps genuinely overlap (a defaulted request asks for the whole
	// pool and would serialize them).
	specs[0].Workers = 1
	specs[1].Workers = 1

	// No t.Fatal from goroutines: collect raw streams, parse on the main
	// goroutine.
	type outcome struct {
		status int
		lines  []string
		err    error
	}
	var wg sync.WaitGroup
	outs := make([]outcome, len(specs))
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := json.Marshal(specs[i])
			if err != nil {
				outs[i].err = err
				return
			}
			resp, err := http.Post(hs.URL+"/sweep", "application/json", bytes.NewReader(body))
			if err != nil {
				outs[i].err = err
				return
			}
			defer resp.Body.Close()
			outs[i].status = resp.StatusCode
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				outs[i].lines = append(outs[i].lines, sc.Text())
			}
			outs[i].err = sc.Err()
		}(i)
	}
	wg.Wait()
	results := make([][]Event, len(specs))
	for i, o := range outs {
		if o.err != nil || o.status != http.StatusOK {
			t.Fatalf("sweep %d: status %d, err %v", i, o.status, o.err)
		}
		for _, line := range o.lines {
			var ev Event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("sweep %d: bad line %q: %v", i, line, err)
			}
			results[i] = append(results[i], ev)
		}
	}
	for i, events := range results {
		if len(events) == 0 {
			t.Fatalf("sweep %d: no events", i)
		}
		done := events[len(events)-1]
		if done.Type != "done" || done.Stats == nil || done.Stats.Canceled {
			t.Errorf("sweep %d ended badly: %+v", i, done)
		}
	}
	// Both sweeps must be visible, finished, on the status API.
	for _, id := range []string{"conc-a", "conc-b"} {
		st, code := getStatus(t, hs.URL, id)
		if code != http.StatusOK || st.State != StateDone {
			t.Errorf("%s: code=%d state=%s", id, code, st.State)
		}
	}
}

func TestSweepValidationErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxCells: 1})
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb.Error
	}
	cases := []struct {
		name, body, want string
	}{
		{"garbage", "{", "decoding"},
		{"unknown field", `{"space":{"tops":72},"models":["tinycnn"],"bogus":1}`, "unknown field"},
		{"removed order", `{"space":{"tops":72},"models":["tinycnn"],"order":"grid"}`, `unknown field "order"`},
		{"removed bound", `{"space":{"tops":72},"models":["tinycnn"],"bound":"cut"}`, `unknown field "bound"`},
		{"removed abandon_every", `{"space":{"tops":72},"models":["tinycnn"],"abandon_every":8}`, `unknown field "abandon_every"`},
		{"removed shard", `{"space":{"tops":72},"models":["tinycnn"],"shard":{"index":0,"count":2}}`, `unknown field "shard"`},
		{"bad space", `{"space":{"tops":3},"models":["tinycnn"]}`, "tops"},
		{"unknown model", `{"space":{"tops":72},"models":["nope"]}`, "unknown model"},
		{"bad id", `{"id":"../etc/passwd","space":{"tops":72},"models":["tinycnn"]}`, "sweep id"},
		{"too many cells", `{"space":{"tops":72,"reduced":true},"models":["tinycnn","tinytransformer"]}`, "cells"},
	}
	for _, c := range cases {
		code, msg := post(c.body)
		if code != http.StatusBadRequest || !strings.Contains(msg, c.want) {
			t.Errorf("%s: code=%d msg=%q, want 400 containing %q", c.name, code, msg, c.want)
		}
	}
}

// TestRemovedScheduleFieldsRejected: the restart-schedule spec fields that
// no longer exist are unknown fields — a POST carrying one answers 400 and
// registers nothing, neither a status record nor a file in the data dir.
func TestRemovedScheduleFieldsRejected(t *testing.T) {
	assertRemovedFieldsRejected(t, map[string]string{
		"racing":      "true",
		"racing_keep": "0.5",
		"patience":    "2",
	})
}

// TestRemovedCellFaultFieldsRejected: cell retry and the per-cell deadline
// are gone, so "retry" and "cell_timeout_ms" are unknown fields like any
// other removed knob.
func TestRemovedCellFaultFieldsRejected(t *testing.T) {
	assertRemovedFieldsRejected(t, map[string]string{
		"retry":           `{"max":2,"base_delay_ms":5}`,
		"cell_timeout_ms": "1000",
	})
}

// assertRemovedFieldsRejected POSTs one otherwise valid spec per field and
// asserts a 400 naming the field, with no status record and no data-dir
// file left behind.
func assertRemovedFieldsRejected(t *testing.T, fields map[string]string) {
	t.Helper()
	dir := t.TempDir()
	_, hs := newTestServer(t, Config{DataDir: dir})
	for field, value := range fields {
		id := "removed-" + strings.ReplaceAll(field, "_", "-")
		body := `{"id":"` + id + `","space":{"tops":72},"models":["tinycnn"],"` + field + `":` + value + `}`
		resp, err := http.Post(hs.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		derr := json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if derr != nil {
			t.Fatal(derr)
		}
		want := `unknown field "` + field + `"`
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, want) {
			t.Errorf("%s: code=%d msg=%q, want 400 containing %q", field, resp.StatusCode, eb.Error, want)
		}
		if _, code := getStatus(t, hs.URL, id); code != http.StatusNotFound {
			t.Errorf("%s: rejected sweep has a status record (code %d)", field, code)
		}
		if matches, _ := filepath.Glob(filepath.Join(dir, id+"*")); len(matches) != 0 {
			t.Errorf("%s: rejected sweep left files behind: %v", field, matches)
		}
	}
}

// assertRejection checks a queue admission rejection's whole envelope:
// status code, Retry-After header, and the JSON body mirroring it.
func assertRejection(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("status %d, want %d", resp.StatusCode, want)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Errorf("%d rejection has no Retry-After header", want)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("%d rejection body is not the JSON envelope: %v", want, err)
	}
	if eb.Error == "" {
		t.Errorf("%d rejection envelope has no error text", want)
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs != eb.RetryAfterSeconds {
		t.Errorf("Retry-After header %q does not mirror retry_after_seconds %d", ra, eb.RetryAfterSeconds)
	}
}

// TestDuplicateAndCapacity pins the 409 (same id already queued or running)
// rejection and the queue's admission envelopes: a tenant over its waiting
// quota gets 429 and a server over its global backlog bound gets 503, both
// carrying a Retry-After header mirrored in the JSON body — and a rejected
// sweep leaves no checkpoint or status file behind in the data dir.
func TestDuplicateAndCapacity(t *testing.T) {
	dir := t.TempDir()
	_, hs := newTestServer(t, Config{
		DataDir:         dir,
		WorkerSlots:     1,
		QueueDepth:      1,
		MaxQueuedSweeps: 2,
	})
	slow := tinySpec("slow", 8, 16, 32, 64)
	slow.SAIterations = 3000
	slow.Restarts = 6
	slow.Workers = 1

	resp := postSpec(t, hs.URL, slow)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	defer resp.Body.Close()
	// Wait for the start event so the sweep is registered and dispatched.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no start event")
	}

	dup := postSpec(t, hs.URL, slow)
	dup.Body.Close()
	if dup.StatusCode != http.StatusConflict {
		t.Errorf("duplicate running id: %d, want 409", dup.StatusCode)
	}

	// Fill the default tenant's one waiting slot: this sweep queues behind
	// slow and its stream opens with a queued event.
	parked := postSpec(t, hs.URL, tinySpec("parked"))
	defer parked.Body.Close()
	if parked.StatusCode != http.StatusOK {
		t.Fatalf("parked POST: %d", parked.StatusCode)
	}
	psc := bufio.NewScanner(parked.Body)
	if !psc.Scan() {
		t.Fatal("no queued event on the parked sweep")
	}
	var queued Event
	if err := json.Unmarshal(psc.Bytes(), &queued); err != nil {
		t.Fatal(err)
	}
	if queued.Type != "queued" || queued.Tenant != "default" || queued.Position != 1 {
		t.Errorf("parked sweep's first event = %+v, want queued at position 1", queued)
	}

	// One waiting sweep is the default tenant's whole quota: 429.
	assertRejection(t, postSpec(t, hs.URL, tinySpec("rejected")), http.StatusTooManyRequests)

	// Another tenant still fits (global bound 2 not yet reached)...
	other := tinySpec("other-tenant")
	other.Tenant = "acme"
	otherResp := postSpec(t, hs.URL, other)
	defer otherResp.Body.Close()
	if otherResp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant POST: %d", otherResp.StatusCode)
	}
	osc := bufio.NewScanner(otherResp.Body)
	if !osc.Scan() {
		t.Fatal("no queued event on the other tenant's sweep")
	}
	// ...and now the backlog is at the server-wide bound: 503 for everyone.
	flood := tinySpec("flood")
	flood.Tenant = "flood"
	assertRejection(t, postSpec(t, hs.URL, flood), http.StatusServiceUnavailable)

	// Rejected sweeps must leave no server-side trace: no status record on
	// the API, no checkpoint or status file on disk.
	for _, id := range []string{"rejected", "flood"} {
		if _, code := getStatus(t, hs.URL, id); code != http.StatusNotFound {
			t.Errorf("rejected sweep %q has a status record (code %d)", id, code)
		}
		matches, _ := filepath.Glob(filepath.Join(dir, id+"*"))
		if len(matches) != 0 {
			t.Errorf("rejected sweep %q left files behind: %v", id, matches)
		}
	}

	// Unblock the queue: cancel slow and drain every held stream.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/sweeps/slow", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	for sc.Scan() {
	}
	for psc.Scan() {
	}
	for osc.Scan() {
	}

	// With the slots free and the old sweep finished, the same id may rerun.
	waitFor(t, func() bool {
		st, _ := getStatus(t, hs.URL, "slow")
		return st.State != StateRunning && st.State != StateQueued
	})
	quick := tinySpec("slow")
	events := runSweep(t, hs.URL, quick)
	if events[len(events)-1].Type != "done" {
		t.Errorf("rerun under a retired id failed: %+v", events[len(events)-1])
	}
}

// TestRejectedPostKeepsHistory: with the finished-sweep history at its
// bound, a POST the queue rejects evicts no record — eviction waits for
// admission — so GET /sweeps is identical before and after the 503.
func TestRejectedPostKeepsHistory(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2026, 9, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < retiredSweeps; i++ {
		id := fmt.Sprintf("old-%04d", i)
		at := t0.Add(time.Duration(i) * time.Second).Format(time.RFC3339)
		writeLegacyStatus(t, dir, id, fmt.Sprintf(`{"id":%q,"state":"done","started_at":%q}`, id, at))
	}
	_, hs := newTestServer(t, Config{DataDir: dir, WorkerSlots: 1, QueueDepth: 1, MaxQueuedSweeps: 1})
	slow := tinySpec("slow", 8, 16, 32, 64)
	slow.SAIterations = 3000
	slow.Restarts = 6
	slow.Workers = 1
	// hold POSTs spec and waits for its first event: slow takes the one
	// slot, parked the one queue place.
	hold := func(spec dse.Spec) *bufio.Scanner {
		resp := postSpec(t, hs.URL, spec)
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d", spec.ID, resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		if !sc.Scan() {
			t.Fatalf("no first event on %s", spec.ID)
		}
		return sc
	}
	running := hold(slow)
	parked := hold(tinySpec("parked"))

	before := sweepIDs(listSweeps(t, hs.URL))
	flood := tinySpec("flood")
	flood.Tenant = "flood"
	assertRejection(t, postSpec(t, hs.URL, flood), http.StatusServiceUnavailable)
	if after := sweepIDs(listSweeps(t, hs.URL)); !slices.Equal(after, before) {
		t.Errorf("a rejected POST changed the history: %d records before, %d after", len(before), len(after))
	}

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/sweeps/slow", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	for running.Scan() {
	}
	for parked.Scan() {
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestHealthz(t *testing.T) {
	_, hs := newTestServer(t, Config{DataDir: t.TempDir()})
	runSweep(t, hs.URL, tinySpec("healthy", 32, 64))

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
	if len(h.Sessions) != 1 {
		t.Fatalf("%d sessions, want 1", len(h.Sessions))
	}
	// A tiny sweep never fills a shard; the counter is reported, not omitted.
	if !strings.Contains(string(raw), `"cache_flushes": 0`) {
		t.Errorf("session does not report cache_flushes 0: %s", raw)
	}
	if cells := h.Sessions[0].CheckpointCells; cells != 2 {
		t.Errorf("session holds %d cells, want 2", cells)
	}
	if h.Sweeps.Done != 1 || h.Sweeps.Running != 0 {
		t.Errorf("sweep counts: %+v", h.Sweeps)
	}
}

// TestRacingSweepStream pins a multi-restart sweep's wire contract (the name
// is kept from the racing scheduler it first covered): the NDJSON stream
// carries one result per candidate and a done event with stats, and the
// finished status exposes a strictly improving incumbent trajectory that
// ends at best.
func TestRacingSweepStream(t *testing.T) {
	_, hs := newTestServer(t, Config{DataDir: t.TempDir()})
	spec := tinySpec("raced", 8, 16, 32, 64)
	spec.Restarts = 4

	events := runSweep(t, hs.URL, spec)
	done := events[len(events)-1]
	if done.Type != "done" || done.Stats == nil {
		t.Fatalf("sweep ended with %+v", done)
	}
	results := 0
	for _, ev := range events {
		if ev.Type == "result" {
			results++
		}
	}
	if results != 4 {
		t.Errorf("streamed %d results, want one per candidate (4)", results)
	}

	st, code := getStatus(t, hs.URL, "raced")
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("GET /sweeps/raced: %d %+v", code, st)
	}
	if len(st.Trajectory) == 0 {
		t.Fatal("status exposes no incumbent trajectory")
	}
	for i := 1; i < len(st.Trajectory); i++ {
		if st.Trajectory[i].Objective >= st.Trajectory[i-1].Objective {
			t.Errorf("trajectory not strictly improving: %+v", st.Trajectory)
		}
	}
	last := st.Trajectory[len(st.Trajectory)-1]
	if st.Best == nil || last.Candidate != st.Best.Arch || last.Objective != st.Best.Objective {
		t.Errorf("trajectory tail %+v does not land on best %+v", last, st.Best)
	}
}

// TestRacingLiveProgress pins the mid-flight view (the name is kept from the
// racing scheduler it first covered): while a sweep still runs, /healthz
// carries its live incumbent and trajectory, and once it finishes GET
// /sweeps/{id} exposes a trajectory ending at best.
func TestRacingLiveProgress(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	spec := tinySpec("traj", 8, 16, 32, 64)
	spec.Restarts = 2
	spec.SAIterations = 2000
	spec.Workers = 1

	resp := postSpec(t, hs.URL, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	defer resp.Body.Close()
	// Read the stream until the first feasible result: noteResult runs before
	// the event is written, so the server-side view already carries it.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sawResult := false
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Type == "result" && ev.Result.Status == "ok" {
			sawResult = true
			break
		}
	}
	if !sawResult {
		t.Fatal("stream ended without a feasible result")
	}

	// Three candidates are still to anneal; check the health endpoint's live
	// view while the sweep runs (skip without failing if the machine outran
	// the sweep).
	if st, _ := getStatus(t, hs.URL, "traj"); st.State == StateRunning {
		hr, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h Health
		derr := json.NewDecoder(hr.Body).Decode(&h)
		hr.Body.Close()
		if derr != nil {
			t.Fatal(derr)
		}
		for _, run := range h.Running {
			if run.ID == "traj" && (run.Incumbent == nil || len(run.Trajectory) == 0) {
				t.Errorf("healthz running view lacks the live incumbent or trajectory: %+v", run)
			}
		}
	}
	for sc.Scan() { // drain to completion
	}

	st, code := getStatus(t, hs.URL, "traj")
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("GET /sweeps/traj: %d %+v", code, st)
	}
	if len(st.Trajectory) == 0 {
		t.Fatal("status exposes no incumbent trajectory")
	}
	last := st.Trajectory[len(st.Trajectory)-1]
	if st.Best == nil || last.Candidate != st.Best.Arch || last.Objective != st.Best.Objective {
		t.Errorf("trajectory tail %+v does not land on best %+v", last, st.Best)
	}
}

func TestListAndUnknownSweep(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	runSweep(t, hs.URL, tinySpec("listed"))

	resp, err := http.Get(hs.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Sweeps []SweepStatus `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Sweeps) != 1 || body.Sweeps[0].ID != "listed" {
		t.Errorf("list: %+v", body.Sweeps)
	}
	if _, code := getStatus(t, hs.URL, "nope"); code != http.StatusNotFound {
		t.Errorf("unknown sweep: %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/sweeps/nope", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown: %d, want 404", dresp.StatusCode)
	}
}

// TestServerAssignsID covers id generation and the X-Sweep-Id header.
func TestServerAssignsID(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	spec := tinySpec("")
	resp := postSpec(t, hs.URL, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Sweep-Id")
	events := readEvents(t, resp)
	if id == "" || !strings.HasPrefix(id, "sweep-") {
		t.Errorf("X-Sweep-Id = %q", id)
	}
	if events[0].SweepID != id {
		t.Errorf("stream sweep_id %q != header %q", events[0].SweepID, id)
	}
	if _, code := getStatus(t, hs.URL, id); code != http.StatusOK {
		t.Errorf("GET by assigned id: %d", code)
	}
}

// TestShutdownCancelsSweeps pins Close semantics: running sweeps end as
// canceled with their streams closed by a typed error event.
func TestShutdownCancelsSweeps(t *testing.T) {
	s, hs := newTestServer(t, Config{DataDir: t.TempDir()})
	slow := tinySpec("shutdown", 8, 16, 32, 64)
	slow.SAIterations = 3000
	slow.Restarts = 6
	slow.Workers = 1

	resp := postSpec(t, hs.URL, slow)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() { // start event: sweep is registered
		t.Fatal("no start event")
	}
	s.Close()
	var last Event
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	if last.Type != "error" {
		t.Fatalf("shutdown stream ended with %+v", last)
	}
	// New work is refused while closing.
	refused := postSpec(t, hs.URL, tinySpec("late"))
	refused.Body.Close()
	if refused.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST after Close: %d, want 503", refused.StatusCode)
	}
	if s.base.Err() == nil {
		t.Error("base context not canceled")
	}
}

// TestSweepHistorySurvivesRestart pins the status-persistence satellite:
// GET /sweeps on a restarted server must list the predecessor's finished
// sweeps with their final state, best candidate and stats.
func TestSweepHistorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, hsA := newTestServer(t, Config{DataDir: dir})
	runSweep(t, hsA.URL, tinySpec("history-1", 32, 64))
	runSweep(t, hsA.URL, tinySpec("history-2", 32, 64))
	wantSt, code := getStatus(t, hsA.URL, "history-1")
	if code != http.StatusOK || wantSt.State != StateDone {
		t.Fatalf("first server status: %d %+v", code, wantSt)
	}
	hsA.Close()

	_, hsB := newTestServer(t, Config{DataDir: dir})
	st, code := getStatus(t, hsB.URL, "history-1")
	if code != http.StatusOK {
		t.Fatalf("restarted server lost sweep history-1 (status %d)", code)
	}
	if st.State != StateDone || st.Best == nil || st.Stats == nil {
		t.Fatalf("restored record incomplete: %+v", st)
	}
	if st.Best.Arch != wantSt.Best.Arch || st.Best.Objective != wantSt.Best.Objective {
		t.Errorf("restored best %+v != original %+v", st.Best, wantSt.Best)
	}
	// The list endpoint sees both, in start order.
	resp, err := http.Get(hsB.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Sweeps []SweepStatus `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 2 || list.Sweeps[0].ID != "history-1" || list.Sweeps[1].ID != "history-2" {
		t.Fatalf("restored history wrong: %+v", list.Sweeps)
	}

	// Re-POSTing a restored id supersedes the record (resume), as before.
	ev := runSweep(t, hsB.URL, tinySpec("history-1", 32, 64))
	if done := ev[len(ev)-1]; done.Type != "done" || done.Stats.ResumedCells != done.Stats.Cells {
		t.Errorf("resume over restored history record failed: %+v", ev[len(ev)-1])
	}
}

// TestParentCommitStatusRecordLoads: a status record written before the
// dispatch-order knob and the racing schedule were removed carries
// stats.order, rung history and skipped_restarts; it must still load.
func TestParentCommitStatusRecordLoads(t *testing.T) {
	dir := t.TempDir()
	rec := `{"id":"pr11-record","state":"done","candidates":2,"cells":2,"done_candidates":2,
		"rungs":[{"rung":0,"budget":1,"candidates":2,"survivors":1}],
		"stats":{"order":"bound","candidates":2,"cells":2,"resumed_cells":1,"pruned_candidates":0,"abandoned_restarts":0,"skipped_restarts":0,
			"racing":true,"rungs":[{"rung":0,"budget":1,"candidates":2,"survivors":1}]},
		"started_at":"2026-09-01T00:00:00Z","finished_at":"2026-09-01T00:00:01Z"}`
	if err := os.WriteFile(filepath.Join(dir, "pr11-record.status.json"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{DataDir: dir})
	st, code := getStatus(t, hs.URL, "pr11-record")
	if code != http.StatusOK || st.State != StateDone || st.Stats == nil || st.Stats.Cells != 2 || st.Stats.ResumedCells != 1 {
		t.Fatalf("parent-commit status record not restored: %d %+v", code, st)
	}
}

// TestDamagedStatusRecordSkipped: a corrupt status file must not break
// startup or hide the healthy records.
func TestDamagedStatusRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	_, hsA := newTestServer(t, Config{DataDir: dir})
	runSweep(t, hsA.URL, tinySpec("ok-sweep", 32, 64))
	hsA.Close()
	if err := os.WriteFile(filepath.Join(dir, "broken.status.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, hsB := newTestServer(t, Config{DataDir: dir})
	if _, code := getStatus(t, hsB.URL, "ok-sweep"); code != http.StatusOK {
		t.Errorf("healthy record lost next to a damaged one (status %d)", code)
	}
	if _, code := getStatus(t, hsB.URL, "broken"); code != http.StatusNotFound {
		t.Errorf("damaged record should be absent, got status %d", code)
	}
}

// listSweeps reads GET /sweeps.
func listSweeps(t *testing.T, url string) []SweepStatus {
	t.Helper()
	resp, err := http.Get(url + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Sweeps []SweepStatus `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return list.Sweeps
}

// sweepIDs lists the ids of sts in order.
func sweepIDs(sts []SweepStatus) []string {
	ids := make([]string, len(sts))
	for i, st := range sts {
		ids[i] = st.ID
	}
	return ids
}

// writeLegacyStatus writes rec as the <file>.status.json an older server
// kept per sweep.
func writeLegacyStatus(t *testing.T, dir, file, rec string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, file+".status.json"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStatusRecordIDMustBeSweepName: a record whose id is not a sweep name —
// a path out of DataDir, say — is damaged, whether it is a history-log line
// or a legacy status file, so only the good records are listed after a
// restart.
func TestStatusRecordIDMustBeSweepName(t *testing.T) {
	dir := t.TempDir()
	rec := func(id string, sec int) string {
		return fmt.Sprintf(`{"id":%q,"state":"done","started_at":"2026-09-01T00:00:0%dZ"}`, id, sec)
	}
	writeLegacyStatus(t, dir, "good", rec("good", 1))
	writeLegacyStatus(t, dir, "evil", rec("../evil", 2))
	log := rec("../evil-line", 3) + "\n" + rec("good-line", 4) + "\n"
	if err := os.WriteFile(filepath.Join(dir, historyName), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{DataDir: dir})
	if got := sweepIDs(listSweeps(t, hs.URL)); !slices.Equal(got, []string{"good", "good-line"}) {
		t.Fatalf("restored history %v, want only the good records", got)
	}
}

// TestStatusHistoryTrimmedOnceAtStartup: a DataDir holding more legacy
// status records than the history bound starts as the newest readable ones —
// the unreadable record and the oldest go — in a log of at most the bound,
// with every legacy file folded in and removed. From there each sweep appends
// one line, and what a restart would restore from the log is exactly what
// the server lists. Record names run against start order, so "oldest"
// cannot be read off the names.
func TestStatusHistoryTrimmedOnceAtStartup(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2026, 9, 1, 0, 0, 0, 0, time.UTC)
	const extra = 5
	old := func(i int) string { return fmt.Sprintf("old-%04d", retiredSweeps+extra-1-i) } // the i-th oldest
	var want []string
	for i := 0; i < retiredSweeps+extra; i++ {
		at := t0.Add(time.Duration(i) * time.Second).Format(time.RFC3339)
		writeLegacyStatus(t, dir, old(i), fmt.Sprintf(`{"id":%q,"state":"done","started_at":%q,"finished_at":%q}`, old(i), at, at))
		if i >= extra {
			want = append(want, old(i))
		}
	}
	writeLegacyStatus(t, dir, "broken", "{not json")
	logged := func() (lines int, restored []string) {
		raw, err := os.ReadFile(filepath.Join(dir, historyName))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(raw, []byte("\n")), sweepIDs(historyRecords(bytes.NewReader(raw)))
	}

	_, hs := newTestServer(t, Config{DataDir: dir})
	if legacy, _ := filepath.Glob(filepath.Join(dir, "*.status.json")); len(legacy) != 0 {
		t.Errorf("startup left %d legacy status files", len(legacy))
	}
	if lines, restored := logged(); lines > retiredSweeps || !slices.Equal(restored, want) {
		t.Fatalf("startup log holds %d lines restoring %d records; want the %d newest readable ones in start order", lines, len(restored), retiredSweeps)
	}
	if got := sweepIDs(listSweeps(t, hs.URL)); !slices.Equal(got, want) {
		t.Fatalf("restored history is not the %d newest records in start order", retiredSweeps)
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("fresh-%d", i)
		runSweep(t, hs.URL, tinySpec(id, 32))
		listed := sweepIDs(listSweeps(t, hs.URL))
		lines, restored := logged()
		if len(listed) != retiredSweeps || listed[len(listed)-1] != id || slices.Contains(listed, old(extra+i)) {
			t.Fatalf("after %s: %d listed (cap %d), own record last: %v", id, len(listed), retiredSweeps, listed[len(listed)-1] == id)
		}
		if lines != retiredSweeps+i+1 || !slices.Equal(restored, listed) {
			t.Fatalf("after %s: log holds %d lines restoring %d records, want %d lines restoring the %d listed", id, lines, len(restored), retiredSweeps+i+1, len(listed))
		}
	}
}
