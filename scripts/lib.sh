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
