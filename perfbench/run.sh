#!/usr/bin/env bash
# Builds the shipped `dvfs` binary and the `perfbench` binary from source, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-repeat --seed 1 --seconds 10 --trace 0
#
# Both builds share CARGO_TARGET_DIR (default: the repository's target/).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin dvfs
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --dvfs "$CARGO_TARGET_DIR/release/dvfs" "$@"
