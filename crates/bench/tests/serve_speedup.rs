//! Guard for the serve request path: a real in-process `dvfs serve`
//! instance hammered by the pipelined closed-loop load generator must
//! clear the throughput floor and p99 ceiling that `BENCH_nn.json`
//! records for the full run (`serve_qps` ≥ 33 382 — 3× the pre-sharded
//! baseline's 11 127 — and `serve_p99_us` ≤ 600).
//!
//! Timing gates are only meaningful with optimizations on, so the guard
//! is `#[ignore]`d (`scripts/check.sh` runs the ignored legs) and logs
//! and exits under a debug build; a release run
//! (`cargo test --release -p bench --test serve_speedup -- --ignored`)
//! enforces it. Slow or noisy hosts can relax both bounds with
//! `SERVE_BUDGET_SCALE` (floor divided, ceiling multiplied), the same
//! escape hatch `TRACE_BUDGET_SCALE` provides for the trace-overhead
//! guard. The functional leg runs in every build, tier-1 included: every
//! request must be answered ok and in order (the loadgen aborts the run
//! on an out-of-order workload echo).

use dvfs_core::dataset::Dataset;
use dvfs_core::models::PowerTimeModels;
use dvfs_core::serve::loadgen::{self, LoadgenConfig, Pacing};
use dvfs_core::serve::{ServeConfig, Server};
use dvfs_core::snapshot::{ModelSnapshot, ModelStore, SnapshotMeta};
use gpu_model::{DeviceSpec, DvfsGrid, NoiseModel, SignatureBuilder};
use std::sync::Arc;

/// Throughput floor, requests/second (3× the single-queue baseline).
const QPS_FLOOR: f64 = 33_382.0;
/// Latency ceiling, microseconds at the 99th percentile.
const P99_CEILING_US: f64 = 600.0;

fn budget_scale() -> f64 {
    std::env::var("SERVE_BUDGET_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s >= 1.0)
        .unwrap_or(1.0)
}

fn trained_models() -> PowerTimeModels {
    let spec = DeviceSpec::ga100();
    let nm = NoiseModel::default_bench();
    let sigs = [
        SignatureBuilder::new("c").flops(2e13).bytes(2e11).build(),
        SignatureBuilder::new("m").flops(2e11).bytes(2e13).build(),
        SignatureBuilder::new("x").flops(8e12).bytes(3e12).build(),
    ];
    let grid = DvfsGrid::for_spec(&spec);
    let mut samples = Vec::new();
    for sig in &sigs {
        for &f in grid.used().iter().step_by(6) {
            samples.push(gpu_model::sample::measure(&spec, sig, f, 0, &nm));
        }
        samples.push(gpu_model::sample::measure(
            &spec,
            sig,
            spec.max_core_mhz,
            0,
            &nm,
        ));
    }
    PowerTimeModels::train(&Dataset::from_samples(&spec, &samples).unwrap())
}

/// Starts an in-process server on the trained models, drives `requests`
/// pipelined closed-loop requests through 4 connections × depth 4 (16
/// outstanding: enough to saturate the workers while keeping queueing
/// delay, outstanding/throughput, a small fraction of the p99 ceiling),
/// and requires every reply ok and in order.
fn pipelined_run(requests: u64) -> loadgen::LoadgenReport {
    let snapshot = ModelSnapshot::new(
        trained_models(),
        DeviceSpec::ga100(),
        SnapshotMeta {
            label: "serve-gate".into(),
            dataset_rows: 0,
            train_seconds: 0.0,
        },
    );
    let store = Arc::new(ModelStore::new(snapshot));
    let server = Server::start(ServeConfig::default(), store).expect("bind");
    let config = LoadgenConfig {
        addr: server.local_addr().to_string(),
        connections: 4,
        requests,
        pacing: Pacing::Closed,
        pipeline: 4,
        shutdown_after: true,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&config).expect("loadgen run (aborts on out-of-order replies)");
    server.join();
    assert_eq!(
        report.errors, 0.0,
        "pipelined load must not produce error replies"
    );
    assert_eq!(report.ok, requests as f64);
    report
}

#[test]
fn pipelined_serve_answers_every_request_in_order() {
    pipelined_run(2_000);
}

#[test]
#[ignore = "timing gate; scripts/check.sh runs it"]
fn pipelined_serve_clears_qps_floor_and_p99_ceiling() {
    if cfg!(debug_assertions) {
        eprintln!("serve_speedup: debug build, timing gate skipped");
        return;
    }
    // Enough load for stable percentiles.
    let report = pipelined_run(60_000);
    let scale = budget_scale();
    let floor = QPS_FLOOR / scale;
    let ceiling = P99_CEILING_US * scale;
    eprintln!(
        "serve_speedup: {:.0} req/s (floor {floor:.0}), p99 {:.0} µs (ceiling {ceiling:.0})",
        report.qps, report.p99_us
    );
    assert!(
        report.qps >= floor,
        "serve throughput regressed: {:.0} req/s < floor {floor:.0} \
         (set SERVE_BUDGET_SCALE to relax on slow hosts)",
        report.qps
    );
    assert!(
        report.p99_us <= ceiling,
        "serve p99 regressed: {:.0} µs > ceiling {ceiling:.0} \
         (set SERVE_BUDGET_SCALE to relax on slow hosts)",
        report.p99_us
    );
}
