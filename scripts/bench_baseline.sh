#!/usr/bin/env bash
# Runs the model-facing criterion benches (nn_training + prediction +
# pipeline + trace + obs_plane) and collects per-benchmark median
# ns/iter into a JSON baseline file (median, not mean: on a timeshared
# vCPU a single preemption burst during sampling dominates the mean —
# one observed nn_forward group spread 134→328 µs within a run — while
# the median stays within a few percent run to run), then measures
# end-to-end serving throughput
# three times — bare, with the full telemetry plane (sampler, SLO
# engine, scrape endpoint) enabled, and with the decision journal
# enabled — so the observability overhead stays visible and bounded.
# Each leg reports its own qps AND p99 so the legs are demonstrably
# independent measurements; identical p99 values between legs are
# possible and honest (the loadgen histogram has ~6%-wide log-spaced
# buckets, so two runs whose true tails land in the same bucket report
# the same boundary, e.g. 565.248 µs).
#
# Usage:
#   scripts/bench_baseline.sh            # full run, writes BENCH_nn.json
#   BENCH_SMOKE=1 scripts/bench_baseline.sh
#       quick plumbing check: shrinks workloads (BENCH_SMOKE) and sample
#       counts (CRITERION_QUICK), writes to a temp file unless BENCH_OUT
#       is set — smoke numbers are not publishable.
#   BENCH_OUT=path scripts/bench_baseline.sh   # override output path
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib.sh

smoke="${BENCH_SMOKE:-0}"
if [[ "$smoke" == "1" ]]; then
    export BENCH_SMOKE=1
    export CRITERION_QUICK=1
    out="${BENCH_OUT:-$(mktemp -t bench_nn_smoke.XXXXXX.json)}"
else
    out="${BENCH_OUT:-BENCH_nn.json}"
fi

jsonl="$(mktemp)"
trap 'rm -f "$jsonl"' EXIT
export CRITERION_JSON="$jsonl"

echo "==> cargo bench -p bench (nn_training, prediction, pipeline, trace, obs_plane)"
cargo bench --offline -p bench --bench nn_training
cargo bench --offline -p bench --bench prediction
cargo bench --offline -p bench --bench pipeline
cargo bench --offline -p bench --bench trace
cargo bench --offline -p bench --bench obs_plane

if [[ ! -s "$jsonl" ]]; then
    echo "error: no benchmark records were written to $jsonl" >&2
    exit 1
fi

# End-to-end serving throughput: a real `dvfs serve` daemon on an
# ephemeral port, hammered closed-loop by `dvfs loadgen` with pipelined
# connections (depth 4 — the wire shape the server's burst batching is
# built for; the loadgen aborts if replies ever come back out of
# order). The full run pushes 1M requests so the p99 comes from a
# well-populated histogram; the smoke run only proves the plumbing.
if [[ "$smoke" == "1" ]]; then
    serve_reqs=2000
else
    serve_reqs=1000000
fi
echo "==> dvfs serve throughput ($serve_reqs requests, closed loop)"
cargo build --release --offline --bin dvfs
servedir="$(mktemp -d)"
trap 'rm -f "$jsonl"; rm -rf "$servedir"' EXIT
DVFS_LOG=error target/release/dvfs train --stride 8 --out "$servedir/models.json" >/dev/null
DVFS_LOG=error target/release/dvfs serve --models "$servedir/models.json" \
    > "$servedir/serve.log" &
serve_pid=$!
wait_for_serve "$servedir/serve.log"
report="$(target/release/dvfs loadgen --addr "$addr" \
    --requests "$serve_reqs" --connections 8 --pipeline 4 --shutdown --json)"
wait "$serve_pid"
serve_qps="$(printf '%s' "$report" | sed -n 's/.*"qps":\([0-9.eE+-]*\).*/\1/p')"
serve_p99="$(printf '%s' "$report" | sed -n 's/.*"p99_us":\([0-9.eE+-]*\).*/\1/p')"
if [[ -z "$serve_qps" || -z "$serve_p99" ]]; then
    echo "error: loadgen report missing qps/p99: $report" >&2
    exit 1
fi

# Same workload with the telemetry plane fully on: a 200 ms sampler
# tick, the stock SLO set, and a scraper polling /metrics throughout.
# The full run bounds the plane's cost at the request p99. The margin is
# the repo-wide 30% noise tolerance (BENCH_TOLERANCE in
# bench_compare.sh), not the plane's actual amortized cost (<1%):
# at closed-loop saturation on the 1-core dev box the p99 itself swings
# ~20% between identical runs (tail amplification + ~6%-wide histogram
# buckets at this range), so a tighter gate fires on noise. The gate is
# for catching structural regressions — telemetry work landing on the
# request path — which show up as multiples, not percents.
echo "==> dvfs serve throughput with telemetry plane enabled ($serve_reqs requests)"
DVFS_LOG=error DVFS_TS_INTERVAL=0.2 target/release/dvfs serve \
    --models "$servedir/models.json" --telemetry-port 0 \
    > "$servedir/serve_telemetry.log" &
serve_pid=$!
wait_for_serve "$servedir/serve_telemetry.log" telemetry
(
    while target/release/dvfs scrape --addr "$taddr" >/dev/null 2>&1; do
        sleep 0.5
    done
) &
scrape_pid=$!
report_t="$(target/release/dvfs loadgen --addr "$addr" \
    --requests "$serve_reqs" --connections 8 --pipeline 4 --shutdown --json)"
wait "$serve_pid"
wait "$scrape_pid" || true
serve_qps_t="$(printf '%s' "$report_t" | sed -n 's/.*"qps":\([0-9.eE+-]*\).*/\1/p')"
serve_p99_t="$(printf '%s' "$report_t" | sed -n 's/.*"p99_us":\([0-9.eE+-]*\).*/\1/p')"
if [[ -z "$serve_qps_t" || -z "$serve_p99_t" ]]; then
    echo "error: telemetry-enabled loadgen report missing qps/p99: $report_t" >&2
    exit 1
fi
if [[ "$smoke" != "1" ]]; then
    awk -v base="$serve_p99" -v tel="$serve_p99_t" 'BEGIN {
        if (tel > base * 1.30) {
            printf "error: telemetry-enabled serve p99 %.1f us regresses >30%% " \
                   "over bare p99 %.1f us\n", tel, base > "/dev/stderr"
            exit 1
        }
    }'
fi

# Third leg: the decision journal on. The budget is 5% on the journal
# leg's p99 (the worker-side cost of journaling is an encode into a
# reused buffer plus one ring swap); on a single-core host the
# dedicated writer thread timeshares the serving core, so the budget
# widens ×1.6 there (same rationale as crates/bench/tests/
# journal_overhead.rs), and JOURNAL_BUDGET_SCALE relaxes it further on
# slow or noisy hosts.
echo "==> dvfs serve throughput with decision journal enabled ($serve_reqs requests)"
DVFS_LOG=error target/release/dvfs serve --models "$servedir/models.json" \
    --journal-dir "$servedir/journal" \
    > "$servedir/serve_journal.log" &
serve_pid=$!
wait_for_serve "$servedir/serve_journal.log"
report_j="$(target/release/dvfs loadgen --addr "$addr" \
    --requests "$serve_reqs" --connections 8 --pipeline 4 --shutdown --json)"
wait "$serve_pid"
serve_qps_j="$(printf '%s' "$report_j" | sed -n 's/.*"qps":\([0-9.eE+-]*\).*/\1/p')"
serve_p99_j="$(printf '%s' "$report_j" | sed -n 's/.*"p99_us":\([0-9.eE+-]*\).*/\1/p')"
if [[ -z "$serve_qps_j" || -z "$serve_p99_j" ]]; then
    echo "error: journal-enabled loadgen report missing qps/p99: $report_j" >&2
    exit 1
fi
if [[ "$smoke" != "1" ]]; then
    host_scale=1.0
    if [[ "$(nproc 2>/dev/null || echo 2)" -le 1 ]]; then
        host_scale=1.6
        echo "note: single hardware thread — journal budget widened x1.6"
    fi
    awk -v base="$serve_p99" -v jrn="$serve_p99_j" \
        -v host="$host_scale" -v scale="${JOURNAL_BUDGET_SCALE:-1.0}" 'BEGIN {
        budget = 1.05 * host * scale
        if (jrn > base * budget) {
            printf "error: journal-enabled serve p99 %.1f us exceeds bare " \
                   "p99 %.1f us x%.2f (set JOURNAL_BUDGET_SCALE to relax)\n", \
                   jrn, base, budget > "/dev/stderr"
            exit 1
        }
    }'
fi

# Fold the per-benchmark JSONL records into one {"name": median_ns}
# object, then splice in the serving numbers (qps and p99 µs, not
# ns/iter). The median is the per-benchmark statistic of record (see
# the header comment for why the mean is too noisy here).
awk '
BEGIN { print "{"; sep = "" }
/"name":/ {
    name = $0; sub(/.*"name":"/, "", name); sub(/".*/, "", name)
    med = $0; sub(/.*"median_ns":/, "", med); sub(/[,}].*/, "", med)
    printf "%s  \"%s\": %s", sep, name, med
    sep = ",\n"
}
' "$jsonl" > "$out"
printf ',\n  "serve_qps": %s,\n  "serve_p99_us": %s,\n  "serve_qps_telemetry": %s,\n  "serve_p99_telemetry_us": %s,\n  "serve_qps_journal": %s,\n  "serve_p99_journal_us": %s\n}\n' \
    "$serve_qps" "$serve_p99" "$serve_qps_t" "$serve_p99_t" "$serve_qps_j" "$serve_p99_j" >> "$out"

# The engine rows (one per precision), the training-step row, the
# cache-eviction row and the reply-rendering row are the numbers the
# README performance notes and DESIGN quote — fail loudly if the bench
# stopped emitting them.
grep -q '"nn_forward_61_states/engine_f64"' "$out"
grep -q '"nn_forward_61_states/engine_f32"' "$out"
grep -q '"nn_forward_61_states/engine_bf16"' "$out"
grep -q '"nn_training/shard_step_8x64"' "$out"
grep -q '"serve_render/profile_tail_61"' "$out"
grep -q '"profile_cache/insert_evict_2048"' "$out"

echo "==> wrote $out"
cat "$out"
