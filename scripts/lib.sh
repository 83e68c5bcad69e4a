# Shell helpers shared by check.sh and bench_baseline.sh. Source it:
#
#   source "$(dirname "$0")/lib.sh"

# wait_for_serve LOG [telemetry]
#
# Waits for a `dvfs serve` whose stdout goes to LOG to print its
# `listening on ADDR` line (and, with `telemetry`, its `telemetry on ADDR`
# line too), then sets `addr` (and `taddr`) for the caller. Fails with an
# error naming LOG if the lines are not there after 10 s.
wait_for_serve() {
    local log="$1" telemetry="${2:-}"
    addr=""
    taddr=""
    for _ in $(seq 100); do
        addr="$(sed -n 's/^listening on //p' "$log" | head -n 1)"
        if [[ -n "$telemetry" ]]; then
            taddr="$(sed -n 's/^telemetry on //p' "$log" | head -n 1)"
        fi
        if [[ -n "$addr" && ( -z "$telemetry" || -n "$taddr" ) ]]; then
            return 0
        fi
        sleep 0.1
    done
    echo "error: dvfs serve never printed its address${telemetry:+es} in $log" >&2
    return 1
}

# wait_for_exit PID SECONDS
#
# Waits for the background job PID to exit and returns its exit status,
# as `wait PID` does, but gives up after SECONDS: it then kills the
# process and fails with an error, so a daemon that does not stop fails
# the caller instead of hanging it.
wait_for_exit() {
    local pid="$1" seconds="$2"
    for _ in $(seq $((seconds * 10))); do
        if ! kill -0 "$pid" 2>/dev/null; then
            wait "$pid"
            return
        fi
        sleep 0.1
    done
    echo "error: process $pid still running ${seconds}s after it was told to stop" >&2
    kill -KILL "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    return 1
}
