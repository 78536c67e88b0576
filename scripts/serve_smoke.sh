#!/usr/bin/env bash
# Smoke-test the HTTP sweep service end to end, the way CI exercises it:
# build gemini-serve, start it with checkpoint persistence, run one reduced
# sweep via curl and assert a non-empty typed NDJSON stream, re-run the
# sweep and assert it resumes (zero recomputed cells), then SIGTERM the
# server and require a clean shutdown. Finally restart it on the same data
# dir, which must hold exactly the checkpoint and the history log, and
# require the sweep's history to have survived the process restart.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SERVE_SMOKE_PORT:-18291}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/gemini-serve" ./cmd/gemini-serve

start_server() {
    "$WORK/gemini-serve" -addr "127.0.0.1:$PORT" -data "$WORK/data" >>"$WORK/server.log" 2>&1 &
    SERVER_PID=$!
}
start_server

fail() {
    echo "serve_smoke: $1" >&2
    echo "--- server log ---" >&2
    cat "$WORK/server.log" >&2 || true
    kill "$SERVER_PID" 2>/dev/null || true
    exit 1
}

wait_healthy() {
    rm -f "$WORK/health.json"
    for _ in $(seq 1 50); do
        if curl -fsS "http://127.0.0.1:$PORT/healthz" >"$WORK/health.json" 2>/dev/null; then
            break
        fi
        sleep 0.2
    done
    [ -s "$WORK/health.json" ] || fail "server never became healthy"
    grep -q '"status": "ok"' "$WORK/health.json" || fail "healthz not ok"
}

stop_server() {
    kill -TERM "$SERVER_PID"
    SHUTDOWN_OK=0
    for _ in $(seq 1 50); do
        if ! kill -0 "$SERVER_PID" 2>/dev/null; then
            SHUTDOWN_OK=1
            break
        fi
        sleep 0.2
    done
    [ "$SHUTDOWN_OK" -eq 1 ] || fail "server did not exit on SIGTERM"
    wait "$SERVER_PID" || fail "server exited non-zero"
}

wait_healthy

SPEC='{
  "id": "ci-smoke",
  "space": {"tops": 72, "cuts": [1], "dram_per_tops": [2], "noc_gbps": [32, 64],
            "d2d_ratios": [0.5], "glb_kb": [1024], "macs": [1024]},
  "models": ["tinycnn"],
  "sa_iterations": 100,
  "prune": true
}'

echo "serve_smoke: first sweep (cold)"
curl -fsS -N -X POST "http://127.0.0.1:$PORT/sweep" -d "$SPEC" >"$WORK/stream1.ndjson" \
    || fail "POST /sweep failed"
[ -s "$WORK/stream1.ndjson" ] || fail "empty stream"
grep -q '"type":"start"' "$WORK/stream1.ndjson" || fail "no start event"
grep -q '"type":"result"' "$WORK/stream1.ndjson" || fail "no result events"
grep -q '"type":"done"' "$WORK/stream1.ndjson" || fail "no done event"
RESULTS=$(grep -c '"type":"result"' "$WORK/stream1.ndjson")
[ "$RESULTS" -eq 2 ] || fail "expected 2 result events, got $RESULTS"

echo "serve_smoke: second sweep (must resume from the checkpoint)"
curl -fsS -N -X POST "http://127.0.0.1:$PORT/sweep" -d "$SPEC" >"$WORK/stream2.ndjson" \
    || fail "resume POST failed"
grep -q '"type":"done"' "$WORK/stream2.ndjson" || fail "resumed sweep did not finish"
grep -q '"resumed_cells":2' "$WORK/stream2.ndjson" || fail "resumed sweep recomputed cells: $(tail -1 "$WORK/stream2.ndjson")"

curl -fsS "http://127.0.0.1:$PORT/sweeps/ci-smoke" | grep -q '"state": "done"' \
    || fail "sweep status is not done"

echo "serve_smoke: clean shutdown"
stop_server
grep -q "shutdown complete" "$WORK/server.log" || fail "no clean-shutdown log line"

FILES="$(cd "$WORK/data" && ls -A | tr '\n' ' ')"
[ "$FILES" = "_history.ndjson _session.ckpt " ] \
    || fail "data dir holds '$FILES', want exactly _history.ndjson and _session.ckpt"

echo "serve_smoke: restart on the same data dir (history must survive)"
start_server
wait_healthy
curl -fsS "http://127.0.0.1:$PORT/sweeps/ci-smoke" | grep -q '"state": "done"' \
    || fail "restarted server lost the sweep's history"
stop_server

echo "serve_smoke: OK (streamed $RESULTS candidates, resumed 2/2 cells, clean shutdown, history survived a restart)"
