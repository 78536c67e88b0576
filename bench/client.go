package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"syscall"
	"time"

	"gemini/internal/dse"
	"gemini/internal/serve"
)

// workerSlots pins every server's pool (and GOMAXPROCS) so results are not
// shaped by the host's core count.
const workerSlots = 2

// testServer is one in-process gemini-serve behind a real loopback listener.
type testServer struct {
	srv *serve.Server
	ts  *httptest.Server
	hc  *http.Client
}

func newTestServer(dataDir string) *testServer {
	srv := serve.New(serve.Config{WorkerSlots: workerSlots, DataDir: dataDir})
	ts := httptest.NewServer(srv)
	// At most two connections: the harness never runs more than two clients.
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return &testServer{srv: srv, ts: ts, hc: hc}
}

func (s *testServer) close() {
	s.srv.Close()
	s.hc.CloseIdleConnections()
	s.ts.Close()
}

// sweepRun is what the client saw of one POST /sweep: the event milestones,
// the stream's size, and the terminal event.
type sweepRun struct {
	id    string
	seed  int64
	cells int // the grid the spec asks for, computed by the harness

	post, queued, start, firstResult, lastResult, done time.Time

	events, bytes, results, errorCells int
	minResultObj                       float64 // lowest objective on an ok result event, 0 if none
	final                              serve.Event
	err                                error
}

func (r *sweepRun) latencyMS() float64 {
	return float64(r.done.Sub(r.post)) / float64(time.Millisecond)
}

// ok reports the sweep ended with a done event and no errored cell.
func (r *sweepRun) ok() bool { return r.err == nil && r.final.Type == "done" && r.errorCells == 0 }

// postSweep submits spec and reads the NDJSON stream to its terminal event.
// The loop is closed: the caller sends its next request only after this
// returns. With tracing on, the milestones become child spans of parent.
func postSweep(ctx context.Context, s *testServer, spec dse.Spec, cells int, tr *tracer, parent int) sweepRun {
	run := sweepRun{id: spec.ID, seed: spec.Seed, cells: cells}
	body, err := json.Marshal(spec)
	if err != nil {
		run.err = err
		return run
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/sweep", bytes.NewReader(body))
	if err != nil {
		run.err = err
		return run
	}
	run.post = time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		run.err = err
		return run
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		run.err = fmt.Errorf("POST /sweep answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return run
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			var ev serve.Event
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				run.err = fmt.Errorf("bad stream line %q: %w", line, jerr)
				return run
			}
			run.events++
			run.bytes += len(line)
			switch ev.Type {
			case "queued":
				run.queued = now
			case "start":
				run.start = now
			case "result":
				if run.results == 0 {
					run.firstResult = now
				}
				run.lastResult = now
				run.results++
				if ev.Result != nil && ev.Result.Status == "error" {
					run.errorCells++
				}
				if ev.Result != nil && ev.Result.Status == "ok" && (run.minResultObj == 0 || ev.Result.Objective < run.minResultObj) {
					run.minResultObj = ev.Result.Objective
				}
			case "done", "error":
				run.done = now
				run.final = ev
				if ev.Type == "error" {
					run.err = fmt.Errorf("sweep %s ended with error event: %s", spec.ID, ev.Error)
				}
				run.trace(tr, parent)
				return run
			}
		}
		if err != nil {
			run.err = fmt.Errorf("stream of sweep %s ended without a terminal event: %w", spec.ID, err)
			return run
		}
	}
}

// trace records the client-side spans of one finished sweep:
// POST -> queued -> start -> results -> done.
func (r *sweepRun) trace(tr *tracer, parent int) {
	if tr == nil {
		return
	}
	id := tr.add(parent, "client.sweep", r.post, r.done)
	at := r.post
	if !r.queued.IsZero() {
		tr.add(id, "client.submit_to_queued", at, r.queued)
		at = r.queued
		tr.add(id, "client.queue_wait", at, r.start)
	} else {
		tr.add(id, "client.submit_to_start", at, r.start)
	}
	at = r.start
	if r.results > 0 {
		tr.add(id, "client.start_to_first_result", at, r.firstResult)
		tr.add(id, "client.results", r.firstResult, r.lastResult)
		at = r.lastResult
	}
	tr.add(id, "client.tail_to_done", at, r.done)
}

// getJSON fetches path from the server into out.
func getJSON(s *testServer, path string, out any) error {
	resp, err := s.hc.Get(s.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s answered %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// cacheCounts is the evaluation-cache accounting of a server's sessions (or
// a fleet's worker sessions), summed.
type cacheCounts struct {
	hits, misses, flushes int64
	entries               int
}

func (a cacheCounts) sub(b cacheCounts) cacheCounts {
	return cacheCounts{hits: a.hits - b.hits, misses: a.misses - b.misses, flushes: a.flushes - b.flushes, entries: a.entries}
}

func (a cacheCounts) hitRate() float64 {
	if t := a.hits + a.misses; t > 0 {
		return float64(a.hits) / float64(t)
	}
	return 0
}

// cacheShardEntries is eval's per-shard flush size. /healthz does not carry
// the flush counter, so for a server it is derived: every miss inserts one
// entry, so misses minus resident entries is what flushes dropped.
const cacheShardEntries = 1 << 14

func serverCache(s *testServer) (cacheCounts, error) {
	var h serve.Health
	if err := getJSON(s, "/healthz", &h); err != nil {
		return cacheCounts{}, err
	}
	var c cacheCounts
	for _, ses := range h.Sessions {
		c.hits += ses.CacheHits
		c.misses += ses.CacheMisses
		c.entries += ses.CacheEntries
	}
	c.flushes = (c.misses - int64(c.entries)) / cacheShardEntries
	return c, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
