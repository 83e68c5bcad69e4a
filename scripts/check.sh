#!/usr/bin/env bash
# Repo gate: formatting, lints, tests. Run from anywhere; exits non-zero
# on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib.sh

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Broken or ambiguous intra-doc links (say, to a deleted item) fail here.
# compat/ is left out: proptest's docs hold an ambiguous `vec` link.
echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -p gpu-dvfs -p tensor -p obs -p nn \
    -p dvfs-core -p gpu-model -p kernels -p telemetry -p featsel -p baselines -p bench

# The data-parallel training engine and concurrent campaign promise
# bitwise-identical results for every worker count, so the whole suite
# runs once pinned serial and once at 4 workers.
echo "==> cargo test -q (DVFS_THREADS=1)"
DVFS_THREADS=1 cargo test --workspace --offline -q

echo "==> cargo test -q (DVFS_THREADS=4)"
DVFS_THREADS=4 cargo test --workspace --offline -q

echo "==> cargo test -p obs -q"
cargo test -p obs --offline -q

echo "==> dvfs --metrics smoke (train -> batch -> validate JSON)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo build --release --offline --bin dvfs
DVFS_LOG=error target/release/dvfs train --stride 8 --out "$tmp/models.json" >/dev/null
DVFS_LOG=error target/release/dvfs batch --models "$tmp/models.json" \
    --requests 64 --capacity 4 --metrics=json --metrics-out "$tmp/metrics.json" >/dev/null
cargo run --release --offline -p obs --example validate_metrics -- "$tmp/metrics.json"

echo "==> dvfs --trace-out smoke (4-thread train + batch -> validate traces)"
DVFS_LOG=error DVFS_THREADS=4 target/release/dvfs train --stride 8 \
    --out "$tmp/models_t4.json" --trace-out "$tmp/train_trace.json" >/dev/null
# DESIGN §10: training is bitwise identical at every thread count, so the
# serial, 3-thread (uneven runs of shards) and 4-thread models must equal
# the default-thread ones byte for byte once the wall-clock
# `train_seconds` fields are stripped.
DVFS_LOG=error DVFS_THREADS=1 target/release/dvfs train --stride 8 \
    --out "$tmp/models_t1.json" >/dev/null
DVFS_LOG=error DVFS_THREADS=3 target/release/dvfs train --stride 8 \
    --out "$tmp/models_t3.json" >/dev/null
strip_train_seconds() { sed 's/"train_seconds":[^,}]*//g' "$1"; }
for t in 1 3 4; do
    cmp <(strip_train_seconds "$tmp/models.json") <(strip_train_seconds "$tmp/models_t$t.json")
done
DVFS_LOG=error DVFS_THREADS=4 target/release/dvfs batch --models "$tmp/models.json" \
    --requests 64 --capacity 4 --trace-out "$tmp/batch_trace.json" >/dev/null
cargo run --release --offline -p obs --example validate_trace -- "$tmp/train_trace.json" \
    --min-tids 3 --require shard_worker --require campaign_worker
cargo run --release --offline -p obs --example validate_trace -- "$tmp/batch_trace.json" \
    --require predict.request

echo "==> dvfs monitor smoke (rolling model-quality report)"
DVFS_LOG=error target/release/dvfs monitor --stride 8 --window 64 > "$tmp/monitor.txt"
grep -q 'quality\.power\.mape' "$tmp/monitor.txt"
grep -q 'quality\.time\.mape' "$tmp/monitor.txt"

echo "==> run_all smoke (DVFS_QUICK=1: every paper table and figure)"
# The paper binaries predict through the same engines as the CLI and the
# daemon; a subsampled pass must render every table and figure and write
# all 18 JSON reports.
DVFS_QUICK=1 DVFS_LOG=error DVFS_RESULTS_DIR="$tmp/results" \
    cargo run --release --offline -p bench --bin run_all > "$tmp/run_all.txt"
grep -q '== Table 3: model accuracy per application ==' "$tmp/run_all.txt"
test "$(find "$tmp/results" -name '*.json' | wc -l)" -eq 18

echo "==> dvfs serve smoke (ephemeral port -> loadgen -> validate telemetry)"
DVFS_LOG=error target/release/dvfs serve --models "$tmp/models.json" \
    --metrics-out "$tmp/serve_metrics.json" --trace-out "$tmp/serve_trace.json" \
    > "$tmp/serve.log" &
serve_pid=$!
wait_for_serve "$tmp/serve.log"
DVFS_LOG=error target/release/dvfs loadgen --addr "$addr" \
    --requests 400 --connections 4 --shutdown >/dev/null
wait_for_exit "$serve_pid" 10
cargo run --release --offline -p obs --example validate_metrics -- \
    "$tmp/serve_metrics.json" --hist serve.request_ns
cargo run --release --offline -p obs --example validate_trace -- \
    "$tmp/serve_trace.json" --require serve.request

echo "==> dvfs serve pipelined smoke (depth-4 bursts, in-order replies)"
# --pipeline 4 sends whole bursts in one vectored write and makes the
# loadgen abort (non-zero exit) if any reply comes back out of request
# order, so this smoke asserts the server's pipelining contract
# end-to-end; the trace must still carry one serve.request per request.
DVFS_LOG=error target/release/dvfs serve --models "$tmp/models.json" \
    --trace-out "$tmp/serve_pipe_trace.json" \
    > "$tmp/serve_pipe.log" &
serve_pid=$!
wait_for_serve "$tmp/serve_pipe.log"
DVFS_LOG=error target/release/dvfs loadgen --addr "$addr" \
    --requests 400 --connections 4 --pipeline 4 --shutdown >/dev/null
wait_for_exit "$serve_pid" 10
cargo run --release --offline -p obs --example validate_trace -- \
    "$tmp/serve_pipe_trace.json" --require serve.request
# One connection pipelining deeper than the batch: each 16-request burst
# splits into four 4-job batches that both workers serve, and the
# replies must still come back in request order.
DVFS_LOG=error target/release/dvfs serve --models "$tmp/models.json" \
    --max-batch 4 > "$tmp/serve_split.log" &
serve_pid=$!
wait_for_serve "$tmp/serve_split.log"
DVFS_LOG=error target/release/dvfs loadgen --addr "$addr" \
    --requests 400 --connections 1 --pipeline 16 --shutdown >/dev/null
wait_for_exit "$serve_pid" 10
# More connections than serving states: a handler that finds no parked
# worker's state free pushes its burst to the dispatcher instead of
# serving it on its own thread, and every reply must still arrive.
DVFS_LOG=error target/release/dvfs serve --models "$tmp/models.json" \
    --workers 1 > "$tmp/serve_contended.log" &
serve_pid=$!
wait_for_serve "$tmp/serve_contended.log"
report="$(DVFS_LOG=error target/release/dvfs loadgen --addr "$addr" \
    --requests 4000 --connections 8 --pipeline 4 --shutdown --json)"
wait_for_exit "$serve_pid" 10
printf '%s\n' "$report" | grep -q '"errors":0'

echo "==> dvfs serve observability smoke (scrape mid-load, burn alert, top, flows)"
# An impossible latency objective (p99 <= 1 ns) over tight 1 s / 2 s
# burn windows, sampled every 200 ms: any sustained traffic must trip
# the burn-rate alert, and — because the alert is edge-triggered and the
# burn never clears under load — trip it exactly once.
DVFS_LOG=warn DVFS_TS_INTERVAL=0.2 target/release/dvfs serve --models "$tmp/models.json" \
    --telemetry-port 0 --slo-p99-us 0.001 --slo-fast-s 1 --slo-slow-s 2 \
    --metrics-out "$tmp/obs_metrics.json" --trace-out "$tmp/obs_trace.json" \
    > "$tmp/obs_serve.log" &
obs_pid=$!
wait_for_serve "$tmp/obs_serve.log" telemetry
DVFS_LOG=error target/release/dvfs loadgen --addr "$addr" \
    --mode open --rate 200 --requests 600 --connections 2 >/dev/null &
load_pid=$!
alerted=0
for _ in $(seq 40); do
    target/release/dvfs scrape --addr "$taddr" > "$tmp/exposition.txt"
    if grep -qx 'slo_latency_p99_alerts 1' "$tmp/exposition.txt"; then
        alerted=1
        break
    fi
    sleep 0.25
done
test "$alerted" = 1
cargo run --release --offline -p obs --example validate_prom -- "$tmp/exposition.txt" \
    --require serve_requests --require serve_request_ns --require dvfs_build_info \
    --require slo_latency_p99_burn_fast --require serve_uptime_s
target/release/dvfs top --addr "$addr" --once --json > "$tmp/top.json"
grep -q '"qps"' "$tmp/top.json"
grep -q '"p99_us"' "$tmp/top.json"
grep -q '"hit_rate"' "$tmp/top.json"
grep -q '"latency_p99"' "$tmp/top.json"
target/release/dvfs top --addr "$addr" --once > "$tmp/top.txt"
grep -q 'dvfs top' "$tmp/top.txt"
grep -q 'latency_p99' "$tmp/top.txt"
wait "$load_pid"
# Edge-triggered: with the load drained and no new traffic, a second
# scrape must still report exactly one alert.
target/release/dvfs scrape --addr "$taddr" > "$tmp/exposition2.txt"
grep -qx 'slo_latency_p99_alerts 1' "$tmp/exposition2.txt"
DVFS_LOG=error target/release/dvfs loadgen --addr "$addr" \
    --requests 8 --connections 1 --shutdown >/dev/null
wait_for_exit "$obs_pid" 10
cargo run --release --offline -p obs --example validate_trace -- \
    "$tmp/obs_trace.json" --require serve.request --require-flow serve.req
cargo run --release --offline -p obs --example validate_metrics -- \
    "$tmp/obs_metrics.json" --hist serve.request_ns \
    --gauge cache.hit_rate=0..1 --gauge serve.uptime_s=0..1e9 \
    --gauge serve.window.qps=0..1e9 --gauge slo.latency_p99.burn_fast=0..1e12

echo "==> dvfs serve --precision bf16 smoke (gate, exposition label, stats, accuracy band)"
# The reduced-precision path end to end: the snapshot gate must admit
# bf16 on real trained models (rolling MAPE vs the f64 reference inside
# the 88–98% accuracy band, i.e. MAPE <= 12%), the exposition and stats
# frame must advertise the active precision, and the gate's probe gauges
# must land in the metrics dump inside the band.
DVFS_LOG=error target/release/dvfs serve --models "$tmp/models.json" \
    --precision bf16 --telemetry-port 0 \
    --metrics-out "$tmp/bf16_metrics.json" > "$tmp/bf16_serve.log" &
bf16_pid=$!
wait_for_serve "$tmp/bf16_serve.log" telemetry
DVFS_LOG=error target/release/dvfs loadgen --addr "$addr" \
    --requests 200 --connections 2 >/dev/null
target/release/dvfs scrape --addr "$taddr" > "$tmp/bf16_exposition.txt"
grep -q 'precision="bf16"' "$tmp/bf16_exposition.txt"
target/release/dvfs top --addr "$addr" --once --json > "$tmp/bf16_top.json"
grep -q '"precision":"bf16"' "$tmp/bf16_top.json"
DVFS_LOG=error target/release/dvfs loadgen --addr "$addr" \
    --requests 8 --connections 1 --shutdown >/dev/null
wait_for_exit "$bf16_pid" 10
cargo run --release --offline -p obs --example validate_metrics -- \
    "$tmp/bf16_metrics.json" --hist serve.request_ns \
    --gauge quality.precision_power.mape=0..12 \
    --gauge quality.precision_time.mape=0..12

echo "==> dvfs journal + replay smoke (serve --journal-dir -> export -> validate -> replay)"
# A journaled serve run under pipelined load, then the full audit loop:
# export to JSONL, validate every line (CRC, monotone seq/ts, line
# count == serve.requests so nothing was dropped), and deterministically
# replay the journal against the same weights expecting zero divergent
# decisions.
DVFS_LOG=error target/release/dvfs serve --models "$tmp/models.json" \
    --journal-dir "$tmp/journal" --metrics-out "$tmp/journal_metrics.json" \
    > "$tmp/journal_serve.log" &
journal_pid=$!
wait_for_serve "$tmp/journal_serve.log"
DVFS_LOG=error target/release/dvfs loadgen --addr "$addr" \
    --requests 400 --connections 4 --pipeline 4 --shutdown >/dev/null
wait_for_exit "$journal_pid" 10
DVFS_LOG=error target/release/dvfs journal --dir "$tmp/journal" --export \
    > "$tmp/journal.jsonl"
cargo run --release --offline -p obs --example validate_journal -- \
    "$tmp/journal.jsonl" --metrics "$tmp/journal_metrics.json" --expect 400
DVFS_LOG=error target/release/dvfs replay --dir "$tmp/journal" \
    --models "$tmp/models.json" > "$tmp/replay.txt"
grep -q 'divergent: 0 of 400' "$tmp/replay.txt"

echo "==> exp32 against its round-and-cast oracle on every f32 (release)"
# Tier-1 runs a strided sweep plus the edge cases; the exhaustive walk
# over all 2^32 inputs is #[ignore]d there and runs here, in release.
cargo test --release --offline -p tensor --test exp32 -q -- --ignored

echo "==> exp64 against the platform exp on 10^9 main-path inputs (release)"
# Tier-1 runs the edges and a strided walk; the 10^9-input walk is
# #[ignore]d there and runs here, in release.
cargo test --release --offline -p tensor --test exp64 -q -- --ignored

echo "==> tensor and nn tests on the portable tile (target-cpu=x86-64-v3, release)"
# The workspace builds for the host CPU, so on an AVX-512 machine every
# full matmul tile runs in zmm registers. This leg builds for x86-64-v3
# (AVX2 + FMA, no AVX-512) in its own target directory, so the portable
# tile and every bitwise oracle over it still run on such a machine.
RUSTFLAGS="-C target-cpu=x86-64-v3" CARGO_TARGET_DIR=target/x86-64-v3 \
    cargo test --release --offline -p tensor -p nn -q

echo "==> SELU pass and batch-fused engine speedup guards (release)"
# `cargo test -q` above runs this file in a debug build where the timing
# legs self-skip; the release run enforces the vector SELU pass's >=1.1x
# over the per-element loop and the fused f32 engine's >=1.6x over f64.
cargo test --release --offline -p bench --test engine_speedup -q

echo "==> bench baseline smoke (BENCH_SMOKE=1)"
BENCH_SMOKE=1 BENCH_OUT="$tmp/BENCH_nn.json" scripts/bench_baseline.sh >/dev/null
test -s "$tmp/BENCH_nn.json"
grep -q '"nn_training/epoch_workspace"' "$tmp/BENCH_nn.json"
grep -q '"pipeline/offline_sweep"' "$tmp/BENCH_nn.json"
grep -q '"trace_overhead/instant_enabled"' "$tmp/BENCH_nn.json"
grep -q '"obs_plane/sampler_tick"' "$tmp/BENCH_nn.json"
grep -q '"serve_qps"' "$tmp/BENCH_nn.json"
grep -q '"serve_p99_telemetry_us"' "$tmp/BENCH_nn.json"
grep -q '"serve_qps_journal"' "$tmp/BENCH_nn.json"
grep -q '"serve_p99_journal_us"' "$tmp/BENCH_nn.json"
grep -q '"nn_forward_61_states/engine_f32"' "$tmp/BENCH_nn.json"
grep -q '"nn_forward_61_states/engine_bf16"' "$tmp/BENCH_nn.json"
grep -q '"nn_forward_61_states/selu_pass"' "$tmp/BENCH_nn.json"
grep -q '"nn_training/validate_1537"' "$tmp/BENCH_nn.json"

echo "==> all checks passed"
