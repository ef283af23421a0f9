#!/bin/sh
# metrics_smoke.sh — end-to-end telemetry smoke against a live sweep.
#
# Starts `ssbbench -all -parallel -metrics-addr 127.0.0.1:0 -heartbeat 1s`,
# discovers the ephemeral port from the "telemetry serving on" stderr line,
# and then, mid-run:
#   1. waits for /readyz to flip starting -> ready,
#   2. scrapes /metrics twice and asserts the progress counters are present
#      and monotone non-decreasing,
#   3. checks the JSON /status snapshot names the tool,
#   4. sends SIGTERM and asserts /healthz flips to draining (503) while
#      /metrics keeps serving, the heartbeat emitted its final line, and the
#      process drains with the interrupted exit code.
#
# Requires curl. Exit 0 on success, 1 with a diagnostic on any failure.
set -u

GO=${GO:-go}
WORK=$(mktemp -d)
STDERR="$WORK/stderr.log"
PID=

cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

die() {
    echo "metrics-smoke: FAIL: $*" >&2
    echo "--- ssbbench stderr ---" >&2
    cat "$STDERR" >&2 2>/dev/null
    exit 1
}

$GO build -o "$WORK/ssbbench" ./cmd/ssbbench || die "build"

# A full -all sweep runs long enough to scrape mid-flight; heartbeats every
# second so the final=true line is observable on interrupt.
"$WORK/ssbbench" -all -parallel 2 -workers 2 \
    -metrics-addr 127.0.0.1:0 -heartbeat 1s \
    >"$WORK/stdout.log" 2>"$STDERR" &
PID=$!

# The mount logs "ssbbench: telemetry serving on 127.0.0.1:PORT" before the
# sweep starts; poll for it to learn the ephemeral port.
ADDR=
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/^ssbbench: telemetry serving on //p' "$STDERR" 2>/dev/null | head -1)
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || die "ssbbench exited before serving telemetry"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] && : || die "no 'telemetry serving on' line within 10s"
echo "metrics-smoke: scraping $ADDR"

# 1. readiness: starting -> ready once the run is underway.
i=0
while [ $i -lt 100 ]; do
    if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then break; fi
    kill -0 "$PID" 2>/dev/null || die "ssbbench exited before becoming ready"
    sleep 0.1
    i=$((i + 1))
done
curl -fsS "http://$ADDR/readyz" >/dev/null || die "/readyz never returned 200"

# 2. two scrapes; the live series must be present and progress monotone.
# The second scrape polls until the search and simulator series have moved
# off zero, so the check is robust to how the sweep orders its figures.
curl -fsS "http://$ADDR/metrics" >"$WORK/scrape1" || die "first /metrics scrape"
val() {
    awk -v s="$1" '$1 == s { print $2 }' "$2"
}
i=0
while [ $i -lt 240 ]; do
    sleep 0.5
    curl -fsS "http://$ADDR/metrics" >"$WORK/scrape2" || die "mid-run /metrics scrape"
    instr=$(val hef_uarch_instructions_total "$WORK/scrape2")
    jobs=$(val hef_sched_jobs_submitted_total "$WORK/scrape2")
    if awk -v a="${instr:-0}" -v b="${jobs:-0}" 'BEGIN { exit !(a > 0 && b > 0) }'; then
        break
    fi
    kill -0 "$PID" 2>/dev/null || die "ssbbench exited before the progress series moved"
    i=$((i + 1))
done

for series in \
    hef_sched_queue_depth \
    hef_sched_jobs_submitted_total \
    hef_memo_hit_rate \
    hef_search_frontier_size \
    hef_search_candidates_evaluated_total \
    hef_uarch_minstr_per_sec \
    hef_uarch_skeleton_hits_total \
    hef_uarch_idle_skipped_cycles_total \
    hef_uarch_replay_periods_total \
    hef_sweep_tasks \
    hef_uptime_seconds; do
    grep -q "^$series " "$WORK/scrape2" || die "scrape missing series $series"
done

mono() {
    a=$(val "$1" "$WORK/scrape1")
    b=$(val "$1" "$WORK/scrape2")
    [ -n "$a" ] && [ -n "$b" ] || die "series $1 absent from a scrape"
    awk -v a="$a" -v b="$b" 'BEGIN { exit !(b >= a) }' \
        || die "series $1 went backwards: $a -> $b"
    awk -v b="$b" 'BEGIN { exit !(b > 0) }' \
        || die "series $1 still zero mid-run"
}
mono hef_uarch_instructions_total
mono hef_sched_jobs_submitted_total
mono hef_uptime_seconds

# 3. the JSON snapshot names the tool and its health state.
curl -fsS "http://$ADDR/status" | grep -q '"tool": *"ssbbench"' \
    || die "/status missing tool name"

# 4. SIGTERM: health flips to draining (503) while /metrics keeps serving,
# then the tool drains with the interrupted exit code.
kill -TERM "$PID"
drained=
i=0
while [ $i -lt 100 ]; do
    code=$(curl -s -o "$WORK/health" -w '%{http_code}' "http://$ADDR/healthz" 2>/dev/null)
    if [ "$code" = "503" ] && grep -q draining "$WORK/health"; then
        drained=1
        break
    fi
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.1
    i=$((i + 1))
done
if [ -n "$drained" ]; then
    curl -fsS "http://$ADDR/metrics" >/dev/null || die "/metrics stopped serving while draining"
fi
wait "$PID"
rc=$?
PID=
# A fast machine may finish the sweep before the signal lands (exit 0);
# otherwise the drain must exit with the interrupted code.
[ "$rc" = 0 ] || [ "$rc" = 1 ] || die "unexpected exit code $rc"
if [ "$rc" = 1 ]; then
    grep -q "interrupted" "$STDERR" || die "exit 1 without an interrupted diagnostic"
    [ -n "$drained" ] || die "interrupted exit but /healthz never reported draining"
fi
grep -q '"final":\|final=true' "$STDERR" || die "no final heartbeat line"
echo "metrics-smoke: ssbbench OK (exit=$rc, drained=${drained:-finished-first})"

# 5. The search-layer series: ssbbench simulates query stages directly and
# never enters the pruning search, so its search counters legitimately sit
# at zero. A hefopt batch across every operator drives hef.Search for real;
# its frontier/evaluated series must move while it runs.
$GO build -o "$WORK/hefopt" ./cmd/hefopt || die "build hefopt"
: >"$STDERR"
"$WORK/hefopt" -op murmur,crc64,probe,filter,agg,bloom -workers 2 \
    -metrics-addr 127.0.0.1:0 \
    >"$WORK/hefopt.log" 2>"$STDERR" &
PID=$!
ADDR=
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/^hefopt: telemetry serving on //p' "$STDERR" 2>/dev/null | head -1)
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || die "hefopt exited before serving telemetry"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] || die "hefopt: no 'telemetry serving on' line within 10s"
moved=
i=0
while [ $i -lt 600 ]; do
    curl -fsS "http://$ADDR/metrics" >"$WORK/scrape3" 2>/dev/null
    evals=$(val hef_search_candidates_evaluated_total "$WORK/scrape3")
    if awk -v e="${evals:-0}" 'BEGIN { exit !(e > 0) }'; then
        moved=1
        break
    fi
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.05
    i=$((i + 1))
done
[ -n "$moved" ] || die "hefopt search series never moved off zero"
grep -q "^hef_search_frontier_size " "$WORK/scrape3" || die "hefopt scrape missing frontier series"
wait "$PID" || die "hefopt batch failed"
PID=

echo "metrics-smoke: OK"
