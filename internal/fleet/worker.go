package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"gemini/internal/arch"
	"gemini/internal/dse"
)

// WorkerConfig configures a fleet worker process.
type WorkerConfig struct {
	// Coordinator is the base URL of the coordinator API, including any
	// mount prefix — e.g. "http://host:8080/fleet" against the sweep
	// service, or an httptest server URL against a bare Coordinator.
	Coordinator string
	// Name identifies the worker in leases and logs (default
	// "worker-<pid>").
	Name string
	// Poll is the idle re-poll interval when no shard is pending (default
	// 500ms).
	Poll time.Duration
	// Workers overrides the shard spec's parallelism when > 0; 0 runs each
	// shard at the spec's own Workers setting, at most GOMAXPROCS.
	Workers int
	// ExitWhenIdle returns from RunWorker the first time the coordinator
	// answers 204 (no shard pending) instead of polling. Benchmarks and
	// tests drain a fixed workload with it; long-lived workers leave it off.
	ExitWhenIdle bool
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
	// Logf receives worker logs (default: discard).
	Logf func(format string, args ...any)
	// Session, when set, carries the worker's dse session across RunWorker
	// calls so the evaluation cache stays warm; default is a fresh session
	// reused across this RunWorker's shards.
	Session *dse.Session
}

func (c *WorkerConfig) name() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("worker-%d", os.Getpid())
}

// shardOptions resolves a leased shard's spec into the options the worker
// runs it at. Workers, when set, is the parallelism; otherwise the spec's is,
// capped at GOMAXPROCS: whoever submitted the spec sized it for no process
// in particular, and a shard runs that many of its cells at once.
func (c *WorkerConfig) shardOptions(spec *dse.Spec) dse.Options {
	opt := spec.Options()
	switch procs := runtime.GOMAXPROCS(0); {
	case c.Workers > 0:
		opt.Workers = c.Workers
	case opt.Workers > procs:
		opt.Workers = procs
	}
	return opt
}

func (c *WorkerConfig) poll() time.Duration {
	if c.Poll > 0 {
		return c.Poll
	}
	return 500 * time.Millisecond
}

// RunWorker runs the fleet worker loop against cfg.Coordinator: lease a
// shard, run it as a normal bound-ordered sweep with the fleet incumbent
// threaded into pruning, stream checkpoints up, repeat. It
// returns when ctx is canceled, or — with ExitWhenIdle — when the
// coordinator has no shard to grant.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Coordinator == "" {
		return errors.New("fleet: worker has no coordinator URL")
	}
	cl := &client{
		base:   cfg.Coordinator,
		hc:     cfg.Client,
		worker: cfg.name(),
	}
	if cl.hc == nil {
		cl.hc = &http.Client{Timeout: 30 * time.Second}
	}
	w := &worker{cfg: cfg, cl: cl, ses: cfg.Session}
	if w.ses == nil {
		w.ses = dse.NewSession()
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := cl.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("fleet worker %s: lease: %v", cfg.name(), err)
			if !sleepCtx(ctx, cfg.poll()) {
				return ctx.Err()
			}
			continue
		}
		if lease == nil {
			if cfg.ExitWhenIdle {
				return nil
			}
			if !sleepCtx(ctx, cfg.poll()) {
				return ctx.Err()
			}
			continue
		}
		w.runShard(ctx, lease)
	}
}

// worker bundles the loop state RunWorker threads through shards.
type worker struct {
	cfg WorkerConfig
	cl  *client
	ses *dse.Session
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// runShard executes one leased shard: restore the lease's settled cells, run
// the shard's candidates with the cached fleet best wired into pruning, and
// upload checkpoints as it goes, finishing with a Complete upload carrying
// stats. Uploads are the lease's heartbeat: one goes out when a candidate
// settles and at a third of the TTL while none does. Every upload carries
// the shard's settled cells — never the rest of the worker's session — and
// its best delivered result. Failures are logged; the worker then asks for
// its next lease.
func (w *worker) runShard(ctx context.Context, lease *Lease) {
	cands, err := leaseCandidates(lease)
	if err != nil {
		w.logf("fleet worker %s: rejecting lease %s: %v", w.cfg.name(), lease.LeaseID, err)
		return
	}
	graphs, err := lease.Spec.Graphs()
	if err != nil {
		w.logf("fleet worker %s: lease %s graphs: %v", w.cfg.name(), lease.LeaseID, err)
		return
	}
	if len(lease.Checkpoint) > 0 {
		if err := w.ses.LoadCheckpoint(bytes.NewReader(lease.Checkpoint)); err != nil {
			w.logf("fleet worker %s: loading lease %s checkpoint: %v", w.cfg.name(), lease.LeaseID, err)
			return
		}
	}
	w.logf("fleet worker %s: running sweep %s shard %d/%d: %d candidates, lease %s",
		w.cfg.name(), lease.SweepID, lease.Shard, lease.Shards, len(cands), lease.LeaseID)

	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	ex := newExchange()
	ex.fold(lease.Incumbent.best())

	opt := w.cfg.shardOptions(&lease.Spec)
	opt.Incumbent = ex.Best

	// Each settled candidate pokes the heartbeat loop. OnResult calls are
	// serialized, so best has a single writer.
	var best atomic.Pointer[dse.IncumbentStep]
	settled := make(chan struct{}, 1)
	opt.OnResult = func(res dse.CandidateResult) {
		if b := best.Load(); res.Feasible && (b == nil || res.Obj < b.Obj) {
			best.Store(&dse.IncumbentStep{Candidate: res.Cfg.Name, Obj: res.Obj})
		}
		select {
		case settled <- struct{}{}:
		default:
		}
	}

	// upload posts the shard's settled cells and best — the one channel the
	// fleet incumbent travels up on — and folds the incumbent the answer
	// brings back. A 410 or 404 means the lease lapsed (the shard is someone
	// else's now): cancel the sweep — finished cells are already uploaded, so
	// walking away loses almost nothing. Non-nil stats mark the final,
	// Complete upload.
	upload := func(ctx context.Context, stats *dse.SweepStats) {
		var buf bytes.Buffer
		if err := w.ses.SaveCells(&buf, cands, graphs, opt); err != nil {
			w.logf("fleet worker %s: saving lease %s cells: %v", w.cfg.name(), lease.LeaseID, err)
			return
		}
		var resp CheckpointResponse
		code, err := w.cl.post(ctx, "/checkpoint", &CheckpointUpload{
			SweepID:    lease.SweepID,
			LeaseID:    lease.LeaseID,
			Worker:     w.cfg.name(),
			Complete:   stats != nil,
			Stats:      stats,
			Best:       best.Load(),
			Checkpoint: buf.Bytes(),
		}, &resp)
		switch {
		case err != nil:
			// Transient: the next heartbeat retries before the lease can
			// lapse.
			w.logf("fleet worker %s: upload for lease %s failed: %v", w.cfg.name(), lease.LeaseID, err)
		case code == http.StatusOK:
			if err := resp.Validate(); err != nil {
				w.logf("fleet worker %s: lease %s: ignoring invalid incumbent: %v", w.cfg.name(), lease.LeaseID, err)
				return
			}
			ex.fold(resp.Incumbent.best())
		case code == http.StatusGone, code == http.StatusNotFound:
			w.logf("fleet worker %s: lease %s lapsed; abandoning shard", w.cfg.name(), lease.LeaseID)
			cancel()
		default:
			w.logf("fleet worker %s: upload for lease %s answered %d", w.cfg.name(), lease.LeaseID, code)
		}
	}

	// The heartbeat loop, the shard's one background goroutine: every
	// upload extends the lease, so one at least every third of the TTL keeps
	// a live worker's lease from lapsing however long its cells run.
	tick := max(time.Duration(lease.TTLMS)*time.Millisecond/3, 20*time.Millisecond)
	beatCtx, stopBeat := context.WithCancel(shardCtx)
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-beatCtx.Done():
				return
			case <-settled:
			case <-t.C:
			}
			upload(shardCtx, nil)
			t.Reset(tick)
		}
	}()

	_, stats, runErr := w.ses.RunContext(shardCtx, cands, graphs, opt)
	stopBeat()
	<-beatDone
	if runErr != nil {
		w.logf("fleet worker %s: lease %s sweep: %v", w.cfg.name(), lease.LeaseID, runErr)
	}

	// Final upload. Complete only when every cell settled: a canceled shard
	// must stay leased-or-reissued, not be marked done with holes. The
	// upload itself is still worth sending on cancellation — settled cells
	// merge soundly whoever finishes the shard.
	var final *dse.SweepStats
	if runErr == nil && !stats.Canceled {
		final = &stats
	}
	// Detach from shardCtx: the final upload must go out even when the
	// shard was canceled (worker shutdown or lease lapse).
	upCtx, upCancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer upCancel()
	upload(upCtx, final)
}

// leaseCandidates validates a lease and resolves its enumeration indices
// against the spec's candidate enumeration.
func leaseCandidates(lease *Lease) ([]arch.Config, error) {
	if err := lease.Validate(); err != nil {
		return nil, err
	}
	all, err := lease.Spec.Candidates()
	if err != nil {
		return nil, err
	}
	cands := make([]arch.Config, len(lease.Candidates))
	for i, k := range lease.Candidates {
		if k >= len(all) {
			return nil, fmt.Errorf("fleet: lease candidate index %d past the spec's %d candidates", k, len(all))
		}
		cands[i] = all[k]
	}
	return cands, nil
}

// exchange is the worker's cached fleet-wide best: the coordinator's
// incumbent as of the last control-plane round trip (lease or checkpoint
// response). Its Best is the sweep's Options.Incumbent, read
// from the scheduler's hot gates, so it must stay a bare atomic load.
type exchange struct {
	bits atomic.Uint64
}

func newExchange() *exchange {
	e := &exchange{}
	e.bits.Store(math.Float64bits(math.Inf(1)))
	return e
}

// Best returns the cached fleet-wide best objective (+Inf when none).
func (e *exchange) Best() float64 {
	return math.Float64frombits(e.bits.Load())
}

// fold lowers the cached best to v if v is better (monotone min).
func (e *exchange) fold(v float64) {
	if math.IsNaN(v) {
		return
	}
	for {
		old := e.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// client is the worker's thin JSON-over-HTTP coordinator client.
type client struct {
	base   string
	hc     *http.Client
	worker string
}

// post sends in as JSON to base+path and decodes a 2xx response into out
// (when non-nil). It returns the HTTP status code; non-2xx responses are
// not errors — callers branch on the code (e.g. 410 lease lapse).
func (c *client) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	} else {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	}
	return resp.StatusCode, nil
}

// lease asks the coordinator for a shard; (nil, nil) means none pending.
func (c *client) lease(ctx context.Context) (*Lease, error) {
	var l Lease
	code, err := c.post(ctx, "/lease", &LeaseRequest{Worker: c.worker}, &l)
	if err != nil {
		return nil, err
	}
	switch code {
	case http.StatusOK:
		return &l, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("fleet: lease request answered %d", code)
	}
}

// sleepCtx sleeps for d unless ctx ends first; it reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
