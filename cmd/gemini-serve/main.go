// Command gemini-serve runs the DSE sweep service: a long-lived HTTP server
// over one dse.Session. Clients POST JSON sweep specs to
// /sweep and read per-candidate results back as an NDJSON stream; settled
// cells are checkpointed to one file under -data, so re-POSTing a spec
// after a client or server restart resumes instead of recomputing.
//
// Sweeps admit through a multi-tenant queue: interactive sweeps dispatch
// ahead of batch ones (preempting them onto checkpoints when the slot pool
// is full), tenants share slots by deficit round-robin weight (-tenants),
// and per-tenant (-queue-depth, 429) and server-wide (-max-queued, 503)
// quotas bound the backlog.
//
// Usage:
//
//	gemini-serve -addr :8080 -data /var/lib/gemini \
//	    -slots 8 -tenants ci=1,dev=3 -batch-share 0.5 -queue-depth 8
//
// Endpoints and the NDJSON schema are documented in docs/http-api.md; try:
//
//	curl -N -X POST localhost:8080/sweep -d '{
//	  "space": {"tops": 72, "reduced": true},
//	  "models": ["tinycnn"], "sa_iterations": 100, "prune": true
//	}'
//
// SIGINT/SIGTERM shut the server down cleanly: running sweeps are canceled
// (their checkpoints survive, each stream ends with a typed error event)
// and in-flight responses drain before the process exits.
//
// The same binary is also the fleet worker: `gemini-serve -worker URL`
// skips the server entirely and runs the distributed-sweep worker loop
// against a coordinator at URL (another gemini-serve, whose coordinator
// lives under /fleet/). Fleet sweeps are submitted with
// POST /fleet/sweeps {"spec": {...}, "shards": N}; the coordinator shards
// the candidate grid across workers, fans the best incumbent back out so
// every shard prunes against it, and merges the shard cells workers upload
// into the server's session — persisted in the same one checkpoint under
// -data — so fleet and local sweeps resume each other under any id.
// -lease-ttl tunes how fast a dead worker's shard is re-leased.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gemini/internal/fleet"
	"gemini/internal/serve"
)

// parseTenantWeights parses the -tenants flag value "name=weight,name=weight"
// into the fair-share weight table. Empty input means every tenant weighs 1.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad tenant entry %q (want name=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad tenant weight %q for %q (want integer >= 1)", val, name)
		}
		weights[name] = w
	}
	return weights, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gemini-serve: ")

	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "checkpoint directory: one server checkpoint, every *.ckpt merged at startup, plus one sweep-history log (empty = no persistence)")
	maxCells := flag.Int("max-cells", 0, "per-sweep (candidate, model) cell cap (0 = default)")
	slots := flag.Int("slots", 0, "worker-slot pool shared by running sweeps (0 = GOMAXPROCS)")
	tenants := flag.String("tenants", "", "fair-share tenant weights as name=weight,... (unlisted tenants weigh 1)")
	batchShare := flag.Float64("batch-share", 0, "max fraction of the slot pool batch sweeps may hold while interactive work is present (0 = default 0.5)")
	queueDepth := flag.Int("queue-depth", 0, "per-tenant waiting-sweep quota before 429 (0 = default 8)")
	maxQueued := flag.Int("max-queued", 0, "server-wide waiting-sweep cap before 503 (0 = default 64)")
	quiet := flag.Bool("quiet", false, "suppress per-sweep scheduling logs")
	leaseTTL := flag.Duration("lease-ttl", 0, "fleet shard lease time-to-live before a dead worker's shard is re-leased (0 = default 10s)")
	workerURL := flag.String("worker", "", "run as a fleet worker against the gemini-serve base URL (e.g. http://host:8080); no server is started")
	workerName := flag.String("worker-name", "", "fleet worker name in leases and logs (default worker-<pid>)")
	workerPoll := flag.Duration("worker-poll", 0, "fleet worker idle re-poll interval (0 = default 500ms)")
	flag.Parse()

	if *workerURL != "" {
		runWorker(*workerURL, *workerName, *workerPoll, *quiet)
		return
	}

	weights, err := parseTenantWeights(*tenants)
	if err != nil {
		log.Fatalf("-tenants: %v", err)
	}

	cfg := serve.Config{
		MaxCells:        *maxCells,
		DataDir:         *data,
		WorkerSlots:     *slots,
		TenantWeights:   weights,
		BatchShare:      *batchShare,
		QueueDepth:      *queueDepth,
		MaxQueuedSweeps: *maxQueued,
		FleetLeaseTTL:   *leaseTTL,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	srv := serve.New(cfg)

	hs := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s (slots=%d, tenants=%q, data=%q)", *addr, *slots, *tenants, *data)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case got := <-sig:
		log.Printf("received %v, shutting down", got)
	}

	// Cancel running sweeps first so their handlers finish their streams,
	// then drain connections.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
	log.Printf("shutdown complete")
}

// runWorker runs the fleet worker loop against a gemini-serve base URL
// until SIGINT/SIGTERM. The coordinator is mounted under /fleet/ on the
// server, so the flag takes the plain server address.
func runWorker(url, name string, poll time.Duration, quiet bool) {
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	log.SetPrefix("gemini-serve[" + name + "]: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := fleet.WorkerConfig{
		Coordinator: strings.TrimSuffix(url, "/") + "/fleet",
		Name:        name,
		Poll:        poll,
	}
	if !quiet {
		cfg.Logf = log.Printf
	}
	log.Printf("fleet worker %s polling %s", cfg.Name, cfg.Coordinator)
	if err := fleet.RunWorker(ctx, cfg); err != nil && !errors.Is(err, context.Canceled) {
		log.Fatalf("worker: %v", err)
	}
	log.Printf("worker shutdown complete")
}
