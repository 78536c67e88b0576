#!/usr/bin/env bash
# Smoke-test the distributed sweep fleet end to end, the way CI exercises
# it: build gemini-serve, start a coordinator with a short lease TTL and
# two loopback worker processes, submit a sharded fleet sweep, SIGKILL one
# worker mid-sweep, and assert the sweep still finishes with the orphaned
# shard re-leased (expired_leases == 1: only the killed worker's lease may
# lapse, so the survivor's upload heartbeat held its own through cells
# longer than the TTL), zero settled cells recomputed,
# a best bit-identical to the same spec swept single-process through
# POST /sweep, and the fleet's cells in the server's one checkpoint file.
# The reference /sweep runs on a second, data-less server: on the
# coordinator's own server its settled cells would restore every fleet
# shard and leave nothing to kill.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${FLEET_SMOKE_PORT:-18292}"
REF_PORT=$((PORT + 1))
WORK="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/gemini-serve" ./cmd/gemini-serve

"$WORK/gemini-serve" -addr "127.0.0.1:$PORT" -data "$WORK/data" -lease-ttl 2s \
    >"$WORK/server.log" 2>&1 &
SERVER_PID=$!
PIDS+=("$SERVER_PID")
disown "$SERVER_PID"
"$WORK/gemini-serve" -addr "127.0.0.1:$REF_PORT" >"$WORK/ref.log" 2>&1 &
PIDS+=("$!")
disown "$!"

fail() {
    echo "fleet_smoke: $1" >&2
    for log in server ref w1 w2; do
        echo "--- $log log ---" >&2
        cat "$WORK/$log.log" >&2 2>/dev/null || true
    done
    exit 1
}

for port in "$PORT" "$REF_PORT"; do
    for _ in $(seq 1 50); do
        if curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
            break
        fi
        sleep 0.2
    done
    curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null || fail "server on :$port never became healthy"
done

# Four same-strength candidates so every shard costs real SA work (nothing
# prunes to zero and collapses the kill window).
SPACE='{"tops": 72, "cuts": [1], "dram_per_tops": [2], "noc_gbps": [32, 48, 64, 96],
        "d2d_ratios": [0.5], "glb_kb": [1024], "macs": [1024]}'
SPEC_BODY='"space": '"$SPACE"', "models": ["tinycnn"], "sa_iterations": 30000, "prune": true'

echo "fleet_smoke: reference single-process sweep"
curl -fsS -N -X POST "http://127.0.0.1:$REF_PORT/sweep" \
    -d '{"id": "fleet-smoke-ref", '"$SPEC_BODY"'}' >"$WORK/ref.ndjson" \
    || fail "reference POST /sweep failed"
grep -q '"type":"done"' "$WORK/ref.ndjson" || fail "reference sweep did not finish"
curl -fsS "http://127.0.0.1:$REF_PORT/sweeps/fleet-smoke-ref" >"$WORK/ref.json"
REF_BEST="$(tr -d ' \n\t' <"$WORK/ref.json" | grep -o '"best":{[^}]*}')"
REF_OBJ="$(echo "$REF_BEST" | sed -E 's/.*"objective":([^,}]+).*/\1/')"
REF_ARCH="$(echo "$REF_BEST" | sed -E 's/.*"arch":"([^"]*)".*/\1/')"
[ -n "$REF_OBJ" ] || fail "could not extract the reference best objective"

echo "fleet_smoke: starting two workers"
"$WORK/gemini-serve" -worker "http://127.0.0.1:$PORT" -worker-name w1 \
    -worker-poll 100ms >"$WORK/w1.log" 2>&1 &
PIDS+=("$!")
disown "$!"
"$WORK/gemini-serve" -worker "http://127.0.0.1:$PORT" -worker-name w2 \
    -worker-poll 100ms >"$WORK/w2.log" 2>&1 &
W2_PID=$!
PIDS+=("$W2_PID")
disown "$W2_PID"

echo "fleet_smoke: submitting the sharded fleet sweep"
curl -fsS -X POST "http://127.0.0.1:$PORT/fleet/sweeps" \
    -d '{"spec": {"id": "fleet-smoke", '"$SPEC_BODY"'}, "shards": 4}' >/dev/null \
    || fail "POST /fleet/sweeps failed"

# Wait until w2 holds a live lease, then SIGKILL it mid-shard. Its lease
# can only lapse (TTL 2s) — the coordinator must re-lease the orphaned
# shard to w1.
KILLED=0
for _ in $(seq 1 300); do
    curl -fsS "http://127.0.0.1:$PORT/fleet/sweeps/fleet-smoke" >"$WORK/status.json" || true
    if grep -q '"worker": "w2"' "$WORK/status.json"; then
        kill -KILL "$W2_PID"
        KILLED=1
        echo "fleet_smoke: SIGKILLed w2 while it held a lease"
        break
    fi
    grep -q '"state": "done"' "$WORK/status.json" && break
    sleep 0.1
done
[ "$KILLED" -eq 1 ] || fail "sweep finished before w2 ever held a lease — grow sa_iterations"

DONE=0
for _ in $(seq 1 240); do
    curl -fsS "http://127.0.0.1:$PORT/fleet/sweeps/fleet-smoke" >"$WORK/status.json" || true
    if grep -q '"state": "done"' "$WORK/status.json"; then
        DONE=1
        break
    fi
    sleep 0.5
done
[ "$DONE" -eq 1 ] || fail "fleet sweep never finished after the worker kill"

COMPACT="$(tr -d ' \n\t' <"$WORK/status.json")"
EXPIRED="$(echo "$COMPACT" | sed -E 's/.*"expired_leases":([0-9]+).*/\1/')"
[ "$EXPIRED" -eq 1 ] || fail "want exactly the killed worker's lease expired, got expired_leases=$EXPIRED"
echo "$COMPACT" | grep -q '"recomputed_settled_cells":0' \
    || fail "re-shard recomputed settled cells: $COMPACT"

FLEET_INC="$(echo "$COMPACT" | grep -o '"incumbent":{[^}]*}')"
FLEET_OBJ="$(echo "$FLEET_INC" | sed -E 's/.*"objective":([^,}]+).*/\1/')"
FLEET_CAND="$(echo "$FLEET_INC" | sed -E 's/.*"candidate":"([^"]*)".*/\1/')"
[ "$FLEET_OBJ" = "$REF_OBJ" ] \
    || fail "fleet best $FLEET_OBJ != single-process best $REF_OBJ"
[ "$FLEET_CAND" = "$REF_ARCH" ] \
    || fail "fleet best candidate '$FLEET_CAND' != single-process '$REF_ARCH'"

# A done fleet sweep is flushed before its last upload is answered, into
# the server's one checkpoint file — no per-sweep <id>.ckpt.
CKPTS="$(cd "$WORK/data" && ls -- *.ckpt 2>/dev/null || true)"
[ "$CKPTS" = "_session.ckpt" ] || fail "data dir holds checkpoints '$CKPTS', want only _session.ckpt"

echo "fleet_smoke: OK (w2 killed mid-sweep, its lease expired and re-leased, 0 settled cells recomputed, best identical: $FLEET_OBJ @ $FLEET_CAND, one checkpoint file)"
