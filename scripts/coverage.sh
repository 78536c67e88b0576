#!/usr/bin/env bash
# CI coverage ratchet for the scheduler-facing packages: internal/serve
# (queue, preemption, streams), internal/dse (spec decode, sessions,
# dispatch), internal/fleet (shard leases, checkpoint merge and the
# incumbent those uploads carry) and internal/intake (the decode, spec
# intake, error envelope and registry serve and fleet share: its own
# registry tests plus the serve and fleet tests that drive it); and for the
# mapping engine's evaluation path: internal/sa (the annealer) and
# internal/eval (the pipeline, its cache and the group deltas). The floor is
# a ratchet — raise it when coverage genuinely improves, never lower it to
# make a PR pass. Measured 89.7% when the gate was introduced (fleet joined
# at 91.3%), 94.1% on two runs when the floor was raised from 85.0 to 92.0,
# and 95.2% when sa and eval joined; the floor keeps headroom for
# timing-dependent paths (preemption races and lease-expiry races hit
# different branches run to run).
set -eu

FLOOR="${COVERAGE_FLOOR:-92.0}"
PROFILE="${COVERAGE_PROFILE:-coverage.out}"

go test -count=1 -coverprofile="$PROFILE" \
    -coverpkg=./internal/serve,./internal/dse,./internal/fleet,./internal/intake,./internal/sa,./internal/eval \
    ./internal/serve ./internal/dse ./internal/fleet ./internal/intake ./internal/sa ./internal/eval

total=$(go tool cover -func="$PROFILE" | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')
if [ -z "$total" ]; then
    echo "coverage.sh: FAIL — could not read total coverage from $PROFILE"
    exit 1
fi

echo "coverage.sh: total ${total}% (floor ${FLOOR}%)"
if awk -v t="$total" -v f="$FLOOR" 'BEGIN { exit !(t < f) }'; then
    echo "coverage.sh: FAIL — coverage ${total}% fell below the ${FLOOR}% floor"
    exit 1
fi
echo "coverage.sh: ok"
