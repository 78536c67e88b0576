#!/usr/bin/env bash
# CI name gate: every alternative of every -run, -bench and -fuzz regex in
# the workflow must name at least one test, benchmark or fuzz target of its
# package. A renamed test otherwise drops out of a chaos job or the
# bench-assertion step without failing anything. For each alternative it
# runs `go test -list '<alt>' <pkg>`; the match-nothing pattern '^$' is
# skipped. Run from the repo root; exits non-zero on any dead alternative.
set -uf # -f: the regexes are split on whitespace, never globbed

WORKFLOW="${1:-.github/workflows/ci.yml}"
dead=0
checked=0

while IFS= read -r line; do
    regexes=()
    pkgs=()
    flag=""
    for tok in ${line#*go test}; do
        tok=${tok//\'/}
        tok=${tok//\"/}
        if [ -n "$flag" ]; then
            regexes+=("$tok")
            flag=""
            continue
        fi
        case "$tok" in
            -run|-bench|-fuzz) flag=$tok ;;
            -run=*|-bench=*|-fuzz=*) regexes+=("${tok#*=}") ;;
            .|./*) pkgs+=("$tok") ;;
        esac
    done
    for re in ${regexes[@]+"${regexes[@]}"}; do
        IFS='|' read -ra alts <<<"$re"
        for alt in "${alts[@]}"; do
            [ "$alt" = '^$' ] && continue
            for pkg in ${pkgs[@]+"${pkgs[@]}"}; do
                checked=$((checked + 1))
                if ! out=$(go test -list "$alt" "$pkg" 2>&1); then
                    printf '%s\n' "$out"
                    echo "ci_names.sh: FAIL — go test -list '$alt' $pkg did not run"
                    dead=$((dead + 1))
                elif ! grep -qv '^\(ok\|?\) ' <<<"$out"; then
                    echo "ci_names.sh: FAIL — '$alt' names nothing in $pkg"
                    dead=$((dead + 1))
                fi
            done
        done
    done
done < <(grep -E '(^|[^[:alnum:]])go test .*-(run|bench|fuzz)[ =]' "$WORKFLOW")

if [ "$checked" -eq 0 ]; then
    echo "ci_names.sh: FAIL — found no -run/-bench/-fuzz alternatives in $WORKFLOW"
    exit 1
fi
if [ "$dead" -ne 0 ]; then
    echo "ci_names.sh: FAIL — $dead of $checked alternatives name nothing"
    exit 1
fi
echo "ci_names.sh: all $checked alternatives name a test"
