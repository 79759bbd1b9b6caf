#!/bin/sh
# End-to-end smoke test for the cluster tier: build cmd/simd and
# cmd/simd-router, boot two backends plus the router, run a QASM job through
# the router, verify hash affinity by resubmitting (the repeat must be a
# cache hit on the same backend), check /v1/cluster/stats reflects the
# routing, kill -9 a fresh job's owner and recover the job on the survivor
# by resubmission, and shut the rest down gracefully on SIGTERM. CI runs this via
# `make cluster-smoke`; it needs only a Go toolchain and curl.
set -eu

B0_ADDR="127.0.0.1:${SIMD_CLUSTER_PORT0:-18561}"
B1_ADDR="127.0.0.1:${SIMD_CLUSTER_PORT1:-18562}"
RT_ADDR="127.0.0.1:${SIMD_CLUSTER_ROUTER_PORT:-18560}"
BASE="http://$RT_ADDR"
TMP="$(mktemp -d)"
LOG0="$TMP/b0.log"
LOG1="$TMP/b1.log"
LOGR="$TMP/router.log"

fail() {
	echo "cluster-smoke: FAIL: $*" >&2
	for f in "$LOGR" "$LOG0" "$LOG1"; do
		echo "--- $f ---" >&2
		cat "$f" >&2 2>/dev/null || true
	done
	exit 1
}

# retry_until DEADLINE_SECONDS CMD...: bounded wall-clock retry loop (see
# scripts/simd_smoke.sh for rationale).
retry_until() {
	rt_deadline=$(($(date +%s) + $1))
	shift
	rt_delay=0.05
	until "$@"; do
		[ "$(date +%s)" -lt "$rt_deadline" ] || return 1
		sleep "$rt_delay"
		rt_delay=$(awk -v d="$rt_delay" 'BEGIN { d *= 2; if (d > 1) d = 1; print d }')
	done
}
WAIT="${SIMD_SMOKE_TIMEOUT:-60}"

go build -o "$TMP/simd" ./cmd/simd || fail "build simd"
go build -o "$TMP/simd-router" ./cmd/simd-router || fail "build simd-router"

"$TMP/simd" -addr "$B0_ADDR" -workers 1 -grace 5s >"$LOG0" 2>&1 &
B0_PID=$!
"$TMP/simd" -addr "$B1_ADDR" -workers 1 -grace 5s >"$LOG1" 2>&1 &
B1_PID=$!
"$TMP/simd-router" -addr "$RT_ADDR" \
	-backends "http://$B0_ADDR,http://$B1_ADDR" \
	-probe-interval 250ms -grace 5s >"$LOGR" 2>&1 &
RT_PID=$!
trap 'kill "$RT_PID" "$B0_PID" "$B1_PID" 2>/dev/null || true' EXIT INT TERM

# The router is healthy once it sees at least one healthy backend.
healthy() { curl -sf "$BASE/healthz" >/dev/null 2>&1; }
retry_until "$WAIT" healthy || fail "router never became healthy on $RT_ADDR within ${WAIT}s"

BODY='{"name":"ghz4","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n","shots":64}'

# Submit through the router; the routed id must carry a backend prefix and
# the routing headers must name the owner.
HDRS="$TMP/headers"
RESP="$(curl -sf -D "$HDRS" -X POST -d "$BODY" "$BASE/v1/jobs")" || fail "submit"
JOB="$(printf '%s' "$RESP" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$JOB" ] || fail "no job id in: $RESP"
case "$JOB" in
b0.* | b1.*) ;;
*) fail "routed id $JOB lacks a backend prefix" ;;
esac
OWNER="$(sed -n 's/^[Xx]-[Cc]luster-[Bb]ackend: *\([a-z0-9]*\).*/\1/p' "$HDRS" | head -1)"
[ -n "$OWNER" ] || fail "no X-Cluster-Backend header in: $(cat "$HDRS")"
case "$JOB" in
"$OWNER".*) ;;
*) fail "id $JOB does not match routed backend $OWNER" ;;
esac

# Poll the routed id to completion.
job_done() {
	ST="$(curl -sf "$BASE/v1/jobs/$JOB")" || fail "poll"
	case "$ST" in
	*'"status":"done"'*) return 0 ;;
	*'"status":"queued"'* | *'"status":"running"'*) return 1 ;;
	*) fail "job ended badly: $ST" ;;
	esac
}
retry_until "$WAIT" job_done || fail "job never finished within ${WAIT}s: $ST"

# The result routes by prefix through the router.
RES="$(curl -sf "$BASE/v1/jobs/$JOB/result")" || fail "result fetch"
case "$RES" in
*'"num_qubits":4'*) ;;
*) fail "unexpected result payload: $RES" ;;
esac

# Hash affinity: the identical submission must route to the same backend and
# be answered from its cache.
RESP2="$(curl -sf -D "$HDRS" -X POST -d "$BODY" "$BASE/v1/jobs")" || fail "resubmit"
OWNER2="$(sed -n 's/^[Xx]-[Cc]luster-[Bb]ackend: *\([a-z0-9]*\).*/\1/p' "$HDRS" | head -1)"
[ "$OWNER2" = "$OWNER" ] || fail "repeat submission routed to $OWNER2, first went to $OWNER"
case "$RESP2" in
*'"cached":true'*) ;;
*) fail "repeat submission missed the cache: $RESP2" ;;
esac

# The SSE events endpoint proxies through the router.
EVENTS="$(curl -sf -N --max-time 10 "$BASE/v1/jobs/$JOB/events")" || fail "events stream"
case "$EVENTS" in
*'event: gate'*) ;;
*) fail "no gate events in proxied stream: $EVENTS" ;;
esac

# Cluster stats: both backends up, submissions routed, exactly the owner
# carries the cache hit.
STATS="$(curl -sf "$BASE/v1/cluster/stats")" || fail "cluster stats"
case "$STATS" in
*'"up":2'*) ;;
*) fail "cluster stats do not report 2 backends up: $STATS" ;;
esac
case "$STATS" in
*'"routed":2'*) ;;
*) fail "cluster stats do not report 2 routed submissions: $STATS" ;;
esac
case "$STATS" in
*'"cache_hits":1'*) ;;
*) fail "cluster stats do not aggregate the cache hit: $STATS" ;;
esac

# Recovery contract: a fresh job's owner is killed outright. Its routed id
# must answer 503 backend_down with Retry-After once the prober notices, and
# resubmitting the same body must fail over to the survivor and finish there.
BODY3='{"name":"ghz4-failover","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n","shots":32,"seed":7}'
RESP3="$(curl -sf -D "$HDRS" -X POST -d "$BODY3" "$BASE/v1/jobs")" || fail "fresh submit"
LOST="$(printf '%s' "$RESP3" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
VICTIM="$(sed -n 's/^[Xx]-[Cc]luster-[Bb]ackend: *\([a-z0-9]*\).*/\1/p' "$HDRS" | head -1)"
case "$VICTIM" in
b0) VICTIM_PID=$B0_PID SURVIVOR=b1 SURVIVOR_PID=$B1_PID ;;
b1) VICTIM_PID=$B1_PID SURVIVOR=b0 SURVIVOR_PID=$B0_PID ;;
*) fail "fresh submission routed to unknown backend '$VICTIM': $RESP3" ;;
esac
kill -9 "$VICTIM_PID"
wait "$VICTIM_PID" 2>/dev/null || true
owner_down() {
	CODE="$(curl -s -D "$HDRS" -o "$TMP/lost" -w '%{http_code}' "$BASE/v1/jobs/$LOST")"
	[ "$CODE" = 503 ] && grep -q '"code":"backend_down"' "$TMP/lost" &&
		grep -qi '^Retry-After: *[0-9]' "$HDRS"
}
retry_until "$WAIT" owner_down || fail "lost job $LOST never answered 503 backend_down with Retry-After (last HTTP $CODE: $(cat "$TMP/lost"))"
RESP4="$(curl -sf -D "$HDRS" -X POST -d "$BODY3" "$BASE/v1/jobs")" || fail "resubmit after owner death"
JOB="$(printf '%s' "$RESP4" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
case "$JOB" in
"$SURVIVOR".*) ;;
*) fail "resubmission $JOB not served by survivor $SURVIVOR: $RESP4" ;;
esac
grep -qi '^X-Cluster-Route: *failover' "$HDRS" || fail "resubmission not marked failover: $(cat "$HDRS")"
retry_until "$WAIT" job_done || fail "resubmitted job never finished within ${WAIT}s: $ST"

# Graceful drain: the router and the surviving backend exit on SIGTERM.
kill "$RT_PID" "$SURVIVOR_PID"
all_gone() {
	! kill -0 "$RT_PID" 2>/dev/null &&
		! kill -0 "$SURVIVOR_PID" 2>/dev/null
}
retry_until "$WAIT" all_gone || fail "cluster did not shut down on SIGTERM within ${WAIT}s"
trap - EXIT INT TERM

echo "cluster-smoke: OK (routed to $OWNER, hash-affinity cache hit verified, stats aggregated, $VICTIM killed and its job recovered on $SURVIVOR, graceful drain)"
