//! Guard for the decision journal's hot-path cost: the same pipelined
//! load is driven twice through in-process `dvfs serve` instances —
//! once bare, once with `--journal-dir` enabled — and the journal leg's
//! p99 must stay within 5% of the bare leg's (and its throughput within
//! 5% below). The journal is fed off the hot path through per-worker
//! rings, so the worker only pays an encode + ring push per decision;
//! this gate keeps that claim honest.
//!
//! Timing gates are only meaningful with optimizations on, so the guard
//! is `#[ignore]`d (`scripts/check.sh` runs the ignored legs) and logs
//! and exits under a debug build; a release run
//! (`cargo test --release -p bench --test journal_overhead -- --ignored`)
//! enforces it. The functional leg runs in every build, tier-1 included:
//! every request answered, every decision journaled, nothing torn. Slow
//! or noisy hosts can relax the budget with `JOURNAL_BUDGET_SCALE` (the
//! allowed regression factor is multiplied), mirroring
//! `SERVE_BUDGET_SCALE`.

use dvfs_core::dataset::Dataset;
use dvfs_core::models::PowerTimeModels;
use dvfs_core::serve::loadgen::{self, LoadgenConfig, Pacing};
use dvfs_core::serve::{ServeConfig, Server};
use dvfs_core::snapshot::{ModelSnapshot, ModelStore, SnapshotMeta};
use gpu_model::{DeviceSpec, DvfsGrid, NoiseModel, SignatureBuilder};
use std::sync::Arc;

/// Allowed p99 (and inverse qps) regression of the journal leg.
const BUDGET: f64 = 1.05;

fn budget_scale() -> f64 {
    std::env::var("JOURNAL_BUDGET_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s >= 1.0)
        .unwrap_or(1.0)
}

/// The 5% claim is about the worker-side cost of journaling (encode
/// into a reused buffer + one ring swap); the dedicated writer thread
/// is designed to drain on a spare core. On a host with a single
/// hardware thread the whole process timeshares one core, so every
/// byte the writer checksums and buffers is paid for by the serving
/// workers and its drain bursts land straight in the tail. The gate
/// still has to catch genuine hot-path regressions there (the
/// unbuffered-write bug it was born from was a 3x), so instead of
/// skipping it widens to x1.6.
fn host_scale() -> f64 {
    match std::thread::available_parallelism() {
        Ok(n) if n.get() <= 1 => 1.6,
        _ => 1.0,
    }
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

/// Starts a server (optionally journaling into `journal_dir`), drives
/// the standard pipelined load, joins, and returns the loadgen report.
fn run_leg(
    models: &PowerTimeModels,
    journal_dir: Option<std::path::PathBuf>,
    requests: u64,
) -> loadgen::LoadgenReport {
    let snapshot = ModelSnapshot::new(
        models.clone(),
        DeviceSpec::ga100(),
        SnapshotMeta {
            label: "journal-gate".into(),
            dataset_rows: 0,
            train_seconds: 0.0,
        },
    );
    let store = Arc::new(ModelStore::new(snapshot));
    let config = ServeConfig {
        journal: journal_dir.map(obs::journal::JournalConfig::new),
        ..ServeConfig::default()
    };
    let server = Server::start(config, store).expect("bind");
    let addr = server.local_addr().to_string();
    let config = LoadgenConfig {
        addr,
        connections: 4,
        requests,
        pacing: Pacing::Closed,
        pipeline: 4,
        shutdown_after: true,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&config).expect("loadgen run");
    server.join();
    assert_eq!(report.errors, 0.0);
    assert_eq!(report.ok, requests as f64);
    report
}

/// Runs the journal leg into a fresh directory and requires every
/// decision durable and no torn bytes.
fn journaled_leg(models: &PowerTimeModels, requests: u64) -> loadgen::LoadgenReport {
    let dir = std::env::temp_dir().join(format!(
        "dvfs-journal-gate-{}-{requests}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let report = run_leg(models, Some(dir.clone()), requests);
    let scan = obs::journal::scan_dir(&dir).expect("scan journal");
    assert_eq!(scan.records, requests, "every decision must be journaled");
    assert_eq!(scan.torn_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
    report
}

#[test]
fn journal_makes_every_served_decision_durable() {
    journaled_leg(&trained_models(), 2_000);
}

#[test]
#[ignore = "timing gate; scripts/check.sh runs it"]
fn journal_keeps_p99_within_five_percent_of_bare_serving() {
    if cfg!(debug_assertions) {
        eprintln!("journal_overhead: debug build, timing gate skipped");
        return;
    }
    let models = trained_models();
    let requests: u64 = 60_000;
    // Bare leg first, journal leg second: identical load, fresh server
    // each, so the only delta is the journal feed.
    let bare = run_leg(&models, None, requests);
    let journaled = journaled_leg(&models, requests);

    let host = host_scale();
    if host > 1.0 {
        eprintln!(
            "journal_overhead: single hardware thread — the writer timeshares \
             the serving core, widening the budget ×{host:.1}"
        );
    }
    let budget = BUDGET * host * budget_scale();
    eprintln!(
        "journal_overhead: bare p99 {:.1} µs / {:.0} req/s, journaled p99 {:.1} µs / {:.0} req/s \
         (budget ×{budget:.2})",
        bare.p99_us, bare.qps, journaled.p99_us, journaled.qps
    );
    assert!(
        journaled.p99_us <= bare.p99_us * budget,
        "journal p99 overhead above budget: {:.1} µs vs {:.1} µs ×{budget:.2} \
         (set JOURNAL_BUDGET_SCALE to relax on slow hosts)",
        journaled.p99_us,
        bare.p99_us
    );
    assert!(
        journaled.qps * budget >= bare.qps,
        "journal throughput overhead above budget: {:.0} req/s vs {:.0} req/s \
         (set JOURNAL_BUDGET_SCALE to relax on slow hosts)",
        journaled.qps,
        bare.qps
    );
}
