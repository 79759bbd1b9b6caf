#!/bin/sh
# End-to-end smoke test for cmd/simd: build the daemon, boot it, submit a
# small QASM job, poll to completion, verify the content-addressed cache
# answers a repeat submission, stream the SSE events endpoint, run the typed
# client round-trip (examples/stream: submit → stream events → result), and
# shut down cleanly. CI runs this via `make simd-smoke`; it needs only a Go
# toolchain and curl.
set -eu

ADDR="127.0.0.1:${SIMD_PORT:-18555}"
BASE="http://$ADDR"
BIN="$(mktemp -d)/simd"
LOG="$(mktemp)"

fail() {
	echo "simd-smoke: FAIL: $*" >&2
	echo "--- simd log ---" >&2
	cat "$LOG" >&2
	exit 1
}

# retry_until DEADLINE_SECONDS CMD...: a bounded retry loop driven by wall
# clock, not a fixed sleep count, so the smoke test tolerates loaded CI
# runners. The probe runs immediately, then with exponentially growing
# sleeps (50 ms up to 1 s) until it succeeds or the deadline passes; the
# caller handles failure. The overall budget is SIMD_SMOKE_TIMEOUT seconds
# per wait (default 60).
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

go build -o "$BIN" ./cmd/simd || fail "build"

"$BIN" -addr "$ADDR" -workers 2 -grace 5s >"$LOG" 2>&1 &
SIMD_PID=$!
trap 'kill "$SIMD_PID" 2>/dev/null || true' EXIT INT TERM

# Wait for the health endpoint.
healthy() { curl -sf "$BASE/healthz" >/dev/null 2>&1; }
retry_until "$WAIT" healthy || fail "server never became healthy on $ADDR within ${WAIT}s"

BODY='{"name":"ghz4","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n","strategy":"fidelity","strategy_params":{"final_fidelity":0.8,"round_fidelity":0.9},"shots":64}'

# Strategy parameters travel only in strategy_params: a body with a
# top-level parameter field is an unknown-field 400.
FLAT='{"qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n","strategy":"memory","threshold":16}'
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST -d "$FLAT" "$BASE/v1/jobs")"
[ "$CODE" = 400 ] || fail "flat strategy field answered HTTP $CODE, want 400"

# Submit and extract the job id.
RESP="$(curl -sf -X POST -d "$BODY" "$BASE/v1/jobs")" || fail "submit"
JOB="$(printf '%s' "$RESP" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$JOB" ] || fail "no job id in: $RESP"

# Poll until the job leaves queued/running (a terminal non-done status
# fails immediately rather than burning the deadline).
job_done() {
	ST="$(curl -sf "$BASE/v1/jobs/$JOB")" || fail "poll"
	case "$ST" in
	*'"status":"done"'*) return 0 ;;
	*'"status":"queued"'* | *'"status":"running"'*) return 1 ;;
	*) fail "job ended badly: $ST" ;;
	esac
}
retry_until "$WAIT" job_done || fail "job never finished within ${WAIT}s: $ST"

# The finished job must expose a result with the right shape.
RES="$(curl -sf "$BASE/v1/jobs/$JOB/result")" || fail "result fetch"
case "$RES" in
*'"num_qubits":4'*) ;;
*) fail "unexpected result payload: $RES" ;;
esac

# An identical submission must be answered from the result cache.
RESP2="$(curl -sf -X POST -d "$BODY" "$BASE/v1/jobs")" || fail "resubmit"
case "$RESP2" in
*'"cached":true'*'"status":"done"'* | *'"status":"done"'*'"cached":true'*) ;;
*) fail "repeat submission missed the cache: $RESP2" ;;
esac

STATS="$(curl -sf "$BASE/v1/stats")" || fail "stats"
case "$STATS" in
*'"hits":1'*) ;;
*) fail "cache hit not visible in stats: $STATS" ;;
esac

# The SSE endpoint must replay the finished job's events and close with a
# terminal status frame.
EVENTS="$(curl -sf -N --max-time 10 "$BASE/v1/jobs/$JOB/events")" || fail "events stream"
case "$EVENTS" in
*'event: gate'*) ;;
*) fail "no gate events in stream: $EVENTS" ;;
esac
case "$EVENTS" in
*'event: status'*'"status":"done"'*) ;;
*) fail "no terminal status event in stream: $EVENTS" ;;
esac

# Typed client round-trip: examples/stream submits an approximated circuit,
# consumes its live event stream, and cross-checks the result payload.
STREAM_OUT="$(go run ./examples/stream -addr "$BASE")" || fail "typed client round-trip (examples/stream)"
case "$STREAM_OUT" in
*'terminal status: done'*) ;;
*) fail "typed client stream missed the terminal event: $STREAM_OUT" ;;
esac
case "$STREAM_OUT" in
*'round after gate'*) ;;
*) fail "typed client stream carried no approximation rounds: $STREAM_OUT" ;;
esac

# The reorder strategy must be routable end-to-end: the entangled-pairs
# workload under the scored ordering has to peak below the identity order.
PAIRS='OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[8];\nh q[0];\nh q[1];\nh q[2];\nh q[3];\ncx q[0],q[4];\ncx q[1],q[5];\ncx q[2],q[6];\ncx q[3],q[7];\n'
peak_for_order() {
	RB='{"name":"pairs-'$1'","qasm":"'$PAIRS'","strategy":"reorder","strategy_params":{"order":"'$1'"}}'
	RESP="$(curl -sf -X POST -d "$RB" "$BASE/v1/jobs")" || fail "reorder submit ($1)"
	JOB="$(printf '%s' "$RESP" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
	[ -n "$JOB" ] || fail "no job id in: $RESP"
	retry_until "$WAIT" job_done || fail "reorder job ($1) never finished: $ST"
	curl -sf "$BASE/v1/jobs/$JOB/result" | sed -n 's/.*"max_dd_size":\([0-9]*\).*/\1/p'
}
IDENT_PEAK="$(peak_for_order identity)"
SCORED_PEAK="$(peak_for_order scored)"
[ -n "$IDENT_PEAK" ] && [ -n "$SCORED_PEAK" ] || fail "reorder results missing max_dd_size (identity='$IDENT_PEAK' scored='$SCORED_PEAK')"
[ "$SCORED_PEAK" -lt "$IDENT_PEAK" ] || fail "scored ordering did not shrink the DD over HTTP (identity $IDENT_PEAK, scored $SCORED_PEAK)"

# A noisy submission (noise + noise_params, no explicit backend) must run on
# the density backend: the result carries the backend, purity, and channel
# counters, and the event stream carries channel frames.
NOISY='{"name":"noisy-ghz4","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n","noise":"depolarizing","noise_params":{"p":0.05},"shots":64}'
RESP="$(curl -sf -X POST -d "$NOISY" "$BASE/v1/jobs")" || fail "noisy submit"
JOB="$(printf '%s' "$RESP" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$JOB" ] || fail "no job id in: $RESP"
retry_until "$WAIT" job_done || fail "noisy job never finished within ${WAIT}s: $ST"
RES="$(curl -sf "$BASE/v1/jobs/$JOB/result")" || fail "noisy result fetch"
case "$RES" in
*'"backend":"density"'*) ;;
*) fail "noisy job did not run on the density backend: $RES" ;;
esac
case "$RES" in
*'"noise":"depolarizing"'*'"purity":0.'*) ;;
*) fail "noisy result missing noise echo or mixed-state purity: $RES" ;;
esac
case "$RES" in
*'"channel_applications":'*) ;;
*) fail "noisy result missing channel_applications: $RES" ;;
esac
EVENTS="$(curl -sf -N --max-time 10 "$BASE/v1/jobs/$JOB/events")" || fail "noisy events stream"
case "$EVENTS" in
*'event: channel'*'"kind":"depolarizing"'*) ;;
*) fail "no channel events in noisy stream: $EVENTS" ;;
esac

# Graceful shutdown on SIGTERM.
kill "$SIMD_PID"
server_gone() { ! kill -0 "$SIMD_PID" 2>/dev/null; }
retry_until "$WAIT" server_gone || fail "server did not shut down on SIGTERM within ${WAIT}s"
trap - EXIT INT TERM

echo "simd-smoke: OK (job simulated, cache hit verified, SSE + typed client round-trip passed, reorder peak $IDENT_PEAK -> $SCORED_PEAK, noisy density job verified)"
