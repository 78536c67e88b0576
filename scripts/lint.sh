#!/usr/bin/env bash
# CI lint gate: `go vet` and `gofmt -l` must produce no output at all (an
# output assertion, not just an exit-code check: vet prints some findings
# without failing, and gofmt -l lists unformatted files with status 0).
# Run from the repo root; exits non-zero on any finding.
set -u

vet_out=$(go vet ./... 2>&1)
vet_rc=$?
if [ "$vet_rc" -ne 0 ] || [ -n "$vet_out" ]; then
    printf '%s\n' "$vet_out"
    echo "lint.sh: FAIL — go vet produced output (asserted empty)"
    exit 1
fi
fmt_out=$(gofmt -l . 2>&1)
fmt_rc=$?
if [ "$fmt_rc" -ne 0 ] || [ -n "$fmt_out" ]; then
    printf '%s\n' "$fmt_out"
    echo "lint.sh: FAIL — gofmt -l listed files (asserted empty)"
    exit 1
fi
echo "lint.sh: clean"
