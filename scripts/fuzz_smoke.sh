#!/bin/sh
# fuzz_smoke.sh runs every native fuzz target concurrently under one shared
# wall-clock budget (FUZZ_SMOKE_BUDGET, default 10s), instead of the old
# serial 10s-per-target loop. Each target keeps its corpus under its own
# name, so concurrent targets never collide, even two in one package; total
# wall time is one budget plus build overhead rather than targets x budget.
#
# Per-target output is captured to $TMPDIR logs and replayed only on
# failure, so an interleaved success run stays readable.
set -u

BUDGET="${FUZZ_SMOKE_BUDGET:-10s}"
GO="${GO:-go}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# target-name package pairs, one per line
TARGETS='FuzzApproximate ./internal/core
FuzzQASMParse ./internal/qasm
FuzzKrausChannel ./internal/density
FuzzFromSpec ./internal/gen
FuzzJobRequest ./internal/serve
FuzzResultPayloadDecode ./internal/serve
FuzzDecodeStatus ./internal/serve
FuzzValidJSON ./internal/serve
FuzzWeightTable ./internal/cnum'

i=0
pids=""
names=""
while read -r name pkg; do
    [ -n "$name" ] || continue
    i=$((i + 1))
    log="$TMP/$i.log"
    (
        "$GO" test -run '^$' -fuzz "^${name}\$" -fuzztime "$BUDGET" "$pkg" \
            >"$log" 2>&1
    ) &
    pids="$pids $!"
    names="$names ${name}:${pkg}:${log}"
done <<EOF
$TARGETS
EOF

fail=0
set -- $pids
for entry in $names; do
    pid=$1
    shift
    name="${entry%%:*}"
    rest="${entry#*:}"
    pkg="${rest%%:*}"
    log="${rest#*:}"
    if wait "$pid"; then
        echo "fuzz-smoke: $name ($pkg) ok"
    else
        echo "fuzz-smoke: $name ($pkg) FAILED:"
        cat "$log"
        fail=1
    fi
done

exit "$fail"
