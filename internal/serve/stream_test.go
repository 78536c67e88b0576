// Golden tests for the NDJSON event schema, and re-attach fidelity for
// GET /sweeps/{id}/stream. The golden files under testdata/ pin the exact
// wire shape: a renamed or dropped JSON field breaks them loudly.
// Regenerate deliberately with: go test ./internal/serve -run Golden -update
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gemini/internal/dse"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// canonicalLines renders events one JSON object per line with wall-clock
// fields scrubbed, the comparable form of an NDJSON stream.
func canonicalLines(t *testing.T, events []Event) string {
	t.Helper()
	var b strings.Builder
	for _, ev := range events {
		ev.ElapsedMS = 0
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares got against the named golden file, rewriting it
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("stream diverges from %s (regenerate with -update if the change is intended)\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestStatsWireIsSweepStats: a finished sweep's stats — in its done event,
// in GET /sweeps/{id}, and in its history-log line read back after a
// restart — each decode to the dse.SweepStats an in-process
// Session.RunContext returns for the same fixed-seed, single-worker spec.
func TestStatsWireIsSweepStats(t *testing.T) {
	spec := tinySpec("stats-wire", 8, 32, 64)
	spec.Workers = 1
	spec.Restarts = 2
	cands, err := spec.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := spec.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := dse.NewSession().RunContext(context.Background(), cands, graphs, spec.Options())
	if err != nil || want.SAIterations == 0 || len(want.Trajectory) == 0 {
		t.Fatalf("in-process sweep: %+v, %v; want iterations and a trajectory", want, err)
	}
	check := func(label string, raw []byte) {
		t.Helper()
		var wire struct{ Stats json.RawMessage }
		if err := json.Unmarshal(raw, &wire); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var got dse.SweepStats
		if err := json.Unmarshal(wire.Stats, &got); err != nil {
			t.Fatalf("%s stats %s: %v", label, wire.Stats, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s stats = %+v, want %+v", label, got, want)
		}
	}
	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, %v", url, resp.StatusCode, err)
		}
		return body
	}
	lastLine := func(b []byte) []byte {
		b = bytes.TrimSpace(b)
		return b[bytes.LastIndexByte(b, '\n')+1:]
	}

	dir := t.TempDir()
	_, hsA := newTestServer(t, Config{DataDir: dir})
	resp := postSpec(t, hsA.URL, spec)
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if done := lastLine(stream); !bytes.HasPrefix(done, []byte(`{"type":"done"`)) {
		t.Fatalf("stream ended with %s", done)
	}
	check("done event", lastLine(stream))
	check("GET /sweeps/{id}", get(hsA.URL+"/sweeps/"+spec.ID))
	hsA.Close()

	history, err := os.ReadFile(filepath.Join(dir, historyName))
	if err != nil {
		t.Fatal(err)
	}
	check("history-log line", lastLine(history))
	_, hsB := newTestServer(t, Config{DataDir: dir})
	check("GET /sweeps/{id} after a restart", get(hsB.URL+"/sweeps/"+spec.ID))
}

// TestStreamGoldenAndReattach runs a fixed-seed sweep single-worker (fully
// deterministic event order), pins the whole NDJSON stream against a golden
// file, and asserts GET /sweeps/{id}/stream replays it byte-for-byte.
func TestStreamGoldenAndReattach(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	spec := tinySpec("golden", 8, 32, 64)
	spec.Workers = 1
	spec.Seed = 7
	spec.Restarts = 4
	spec.SAIterations = 50

	events := runSweep(t, hs.URL, spec)
	live := canonicalLines(t, events)
	checkGolden(t, "stream.golden", live)

	// Re-attach: the replay endpoint must reproduce the POST stream exactly
	// — same events, same order, same encoding.
	resp, err := http.Get(hs.URL + "/sweeps/golden/stream")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("replay Content-Type = %q", ct)
	}
	replayed := readEvents(t, resp)
	if replay := canonicalLines(t, replayed); replay != live {
		t.Errorf("re-attached stream diverges from the live one:\n got:\n%s\nwant:\n%s", replay, live)
	}

	// A second re-attach mid-history must also terminate (closed log).
	resp2, err := http.Get(hs.URL + "/sweeps/golden/stream")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp2.Body)
	n := 0
	for sc.Scan() {
		n++
	}
	resp2.Body.Close()
	if n != len(events) {
		t.Errorf("second replay returned %d lines, want %d", n, len(events))
	}

	// Unknown sweeps 404 like the status endpoint.
	resp3, err := http.Get(hs.URL + "/sweeps/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep stream: %d, want 404", resp3.StatusCode)
	}
}

// TestEventSchemaGolden pins the canonical encoding of every event type —
// including the queue lifecycle events (queued, preempted, resumed) — so
// wire-schema drift is a deliberate golden-file update, never an accident.
func TestEventSchemaGolden(t *testing.T) {
	events := []Event{
		{Type: "queued", SweepID: "s1", Tenant: "acme", Priority: "batch", Position: 3},
		{Type: "start", SweepID: "s1", Candidates: 2, Cells: 2, Models: []string{"tinycnn"}, CheckpointCells: 1},
		{Type: "result", SweepID: "s1", Seq: 1, Result: &CandidateSummary{
			Arch: "x4g1024n32d0.5", Chiplets: 4, Cores: 16, Status: "ok",
			Objective: 1.25, MCUSD: 100.5, EnergyJ: 0.25, DelayS: 0.5, EDP: 0.125,
		}},
		{Type: "preempted", SweepID: "s1", Tenant: "acme", Priority: "batch", CheckpointCells: 2},
		{Type: "resumed", SweepID: "s1", Tenant: "acme", Priority: "batch", CheckpointCells: 2},
		{Type: "done", SweepID: "s1", Best: &CandidateSummary{Arch: "x4g1024n32d0.5", Status: "ok"}, Stats: &StatsSummary{SweepStats: dse.SweepStats{
			Candidates: 2, Cells: 2, ResumedCells: 2,
		}}},
		{Type: "error", SweepID: "s1", Error: "sweep canceled: context canceled"},
	}
	var b bytes.Buffer
	for _, ev := range events {
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	checkGolden(t, "events.golden", b.String())
}

// smallBuffers gives a TCP connection 4 KB kernel send and receive buffers,
// so a reader that stops reading backs its writer up after a few dozen KB.
func smallBuffers(t *testing.T, c net.Conn) {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		t.Errorf("%T is not a TCP connection", c)
		return
	}
	if err := tc.SetReadBuffer(4096); err != nil {
		t.Error(err)
	}
	if err := tc.SetWriteBuffer(4096); err != nil {
		t.Error(err)
	}
}

// smallBufferListener applies smallBuffers to every connection it accepts.
type smallBufferListener struct {
	net.Listener
	t *testing.T
}

func (l smallBufferListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		smallBuffers(l.t, c)
	}
	return c, err
}

// TestStalledClientStallsNothing: a client that POSTs a 160-candidate sweep
// and never reads the response body holds up neither that sweep nor another
// tenant's. The sweep's ~150 KB of NDJSON cannot drain through the small
// socket buffers on both ends of this test's connections, yet the sweep
// reaches done, and a second tenant's 1-cell sweep, queued behind the
// stalled sweep's two worker slots, completes within seconds. A first sweep
// over the same grid warms the session's partitions, so the stalled sweep
// computes in well under a second even under -race.
func TestStalledClientStallsNothing(t *testing.T) {
	s := New(Config{WorkerSlots: 2})
	hs := httptest.NewUnstartedServer(s)
	hs.Listener = smallBufferListener{Listener: hs.Listener, t: t}
	hs.Start()
	t.Cleanup(func() { hs.Close(); s.Close() })

	spec := tinySpec("stalled", 8, 16, 32, 64)
	spec.Space.Cuts = []int{1, 2}
	spec.Space.GLBsKB = []int{256, 512, 1024, 2048}
	spec.Space.D2DRatios = []float64{0.25, 0.5}
	spec.Space.MACs = []int{512, 1024}
	spec.ID, spec.Seed = "warm", 1
	if done := runSweep(t, hs.URL, spec); done[len(done)-1].Type != "done" || done[0].Candidates != 160 {
		t.Fatalf("warm-up sweep: start %+v, end %+v", done[0], done[len(done)-1])
	}

	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err == nil {
			smallBuffers(t, c)
		}
		return c, err
	}}
	defer tr.CloseIdleConnections()
	spec.ID, spec.Seed = "stalled", 2
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := (&http.Client{Transport: tr}).Post(hs.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// Closing the unread body drops the connection, which ends the handler.
	defer stalled.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	other := tinySpec("other-tenant", 32)
	other.Tenant = "other"
	body, err = json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Errorf("the other tenant's sweep: %v", err)
	} else if events := readEvents(t, resp); len(events) == 0 || events[len(events)-1].Type != "done" {
		t.Errorf("the other tenant's sweep did not finish within 5 s: %+v", events)
	}

	// A sweep still running when its unread POST misses the write deadline
	// is canceled, so this holds only while the sweep beats that deadline.
	deadline := time.Now().Add(streamWriteTimeout)
	for {
		st, _ := getStatus(t, hs.URL, "stalled")
		switch {
		case st.State == StateDone:
			return
		case st.State == StateCanceled:
			t.Fatalf("the unread sweep was canceled with %d of %d candidates: it outlasted the %v write deadline", st.DoneCandidates, st.Candidates, streamWriteTimeout)
		case time.Now().After(deadline):
			t.Fatalf("the unread sweep is still %s with %d of %d candidates after %v", st.State, st.DoneCandidates, st.Candidates, streamWriteTimeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// deadlineWriter is a ResponseRecorder that counts the events written
// under each write deadline.
type deadlineWriter struct {
	*httptest.ResponseRecorder

	mu                 sync.Mutex
	deadlines          int
	sinceDeadline, max int
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.sinceDeadline += bytes.Count(p, []byte("\n"))
	w.max = max(w.max, w.sinceDeadline)
	w.mu.Unlock()
	return w.ResponseRecorder.Write(p)
}

func (w *deadlineWriter) SetWriteDeadline(time.Time) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.deadlines++
	w.sinceDeadline = 0
	return nil
}

// TestPostFollowerLosesNothing: the sweep's log is held for its POST
// follower from the start, so a follower that attaches three rings behind
// (a re-POSTed sweep's settled cells arrive in such a burst, on the sweep's
// own goroutine) still gets every result in order, then done. The hold moves up with the follower, so once it has caught up
// the ring trims again, and it ends with the follower. Each write deadline
// covers at most streamChunk events, so a slow reader that keeps reading
// is never cut off by one large batch.
func TestPostFollowerLosesNothing(t *testing.T) {
	const n = 3 * maxLogEvents
	sw := &sweep{cancel: func() {}, log: newEventLog(true), st: SweepStatus{ID: "long"}}
	for i := 1; i <= n; i++ {
		sw.log.append(Event{Type: "result", SweepID: "long", Seq: i})
	}
	w := &deadlineWriter{ResponseRecorder: httptest.NewRecorder()}
	followed := make(chan struct{})
	go func() {
		defer close(followed)
		follow(context.Background(), w, sw, true)
	}()
	held := func() int {
		sw.log.mu.Lock()
		defer sw.log.mu.Unlock()
		return sw.log.held
	}
	for deadline := time.Now().Add(10 * time.Second); held() != n; time.Sleep(time.Millisecond) {
		select {
		case <-followed:
			t.Fatalf("the POST follower ended early: %+v", recordedEvents(t, w.ResponseRecorder))
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("the POST follower is held at %d of %d events after 10 s", held(), n)
		}
	}
	sw.log.append(Event{Type: "result", SweepID: "long", Seq: n + 1})
	if base := sw.log.base; base == 0 {
		t.Error("the log kept every event after its POST follower caught up")
	}
	sw.log.append(Event{Type: "done", SweepID: "long"})
	<-followed

	events := recordedEvents(t, w.ResponseRecorder)
	if len(events) != n+2 || events[n+1].Type != "done" {
		t.Fatalf("the POST follower got %d events ending %+v, want %d results then done", len(events), events[len(events)-1], n+1)
	}
	for i, ev := range events[:n+1] {
		if ev.Type != "result" || ev.Seq != i+1 {
			t.Fatalf("event %d is %s #%d, want result #%d", i, ev.Type, ev.Seq, i+1)
		}
	}
	if w.max > streamChunk || w.deadlines < (n+2)/streamChunk {
		t.Errorf("%d deadlines, up to %d events under one; want at most %d", w.deadlines, w.max, streamChunk)
	}
	if h := held(); h != math.MaxInt {
		t.Errorf("the log is still held at %d after its POST follower ended", h)
	}

	// A log its POST follower leaves behind trims back to the ring.
	left := newEventLog(true)
	for i := 1; i <= n; i++ {
		left.append(Event{Type: "result", SweepID: "long", Seq: i})
	}
	left.append(Event{Type: "done", SweepID: "long"})
	left.release()
	if len(left.events) >= maxLogEvents {
		t.Errorf("a released log keeps %d events, want fewer than %d", len(left.events), maxLogEvents)
	}
}

// TestStreamFellBehindEndsWithOneError: a follower attaching to a log that
// has dropped its oldest events gets exactly one error event, pointing at
// GET /sweeps/{id}, and its stream ends.
func TestStreamFellBehindEndsWithOneError(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	sw := &sweep{cancel: func() {}, log: newEventLog(false), st: SweepStatus{ID: "long", State: StateDone}}
	for i := 1; i <= maxLogEvents; i++ {
		sw.log.append(Event{Type: "result", SweepID: "long", Seq: i})
	}
	sw.log.append(Event{Type: "done", SweepID: "long"})
	s.mu.Lock()
	s.sweeps.Put("long", sw)
	s.mu.Unlock()

	resp, err := http.Get(hs.URL + "/sweeps/long/stream")
	if err != nil {
		t.Fatal(err)
	}
	events := readEvents(t, resp)
	if len(events) != 1 {
		t.Fatalf("a follower behind the log got %d events, want 1", len(events))
	}
	if ev := events[0]; ev.Type != "error" || !strings.Contains(ev.Error, "GET /sweeps/long") {
		t.Errorf("a follower behind the log got %+v, want an error event naming GET /sweeps/long", ev)
	}
}
