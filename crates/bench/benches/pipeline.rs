//! Criterion benches for the pipeline stages around the models: dataset
//! assembly, KSG mutual information, optimal-frequency selection, the
//! simulated measurement sweep, and the offline collection sweep (the
//! campaign's workload × frequency × run profiling fan-out).

use criterion::{criterion_group, criterion_main, Criterion};
use dvfs_core::dataset::Dataset;
use dvfs_core::objective::{select_optimal, Objective};
use featsel::ksg::KsgOptions;
use gpu_model::{DeviceSpec, DvfsGrid, NoiseModel, PhasedWorkload, SignatureBuilder};
use std::hint::black_box;
use telemetry::{CollectionCampaign, GpuBackend, LaunchConfig, SimulatorBackend};

fn bench_selection(c: &mut Criterion) {
    let freqs: Vec<f64> = (0..61).map(|i| 510.0 + 15.0 * i as f64).collect();
    let times: Vec<f64> = freqs.iter().map(|&f| 1410.0 / f).collect();
    let energies: Vec<f64> = freqs
        .iter()
        .zip(&times)
        .map(|(&f, &t)| (100.0 + 400.0 * (f / 1410.0).powi(3)) * t)
        .collect();
    c.bench_function("select_optimal_edp_61", |b| {
        b.iter(|| {
            select_optimal(
                black_box(&freqs),
                black_box(&energies),
                black_box(&times),
                Objective::Ed2p,
                Some(0.05),
            )
        })
    });
}

fn bench_mi(c: &mut Criterion) {
    let x: Vec<f64> = (0..800).map(|i| ((i * 37) % 101) as f64 / 101.0).collect();
    let y: Vec<f64> = x
        .iter()
        .map(|&v| v * v + 0.1 * ((v * 50.0).sin()))
        .collect();
    c.bench_function("ksg_mi_800_points", |b| {
        b.iter(|| featsel::mutual_information(black_box(&x), black_box(&y), KsgOptions::default()))
    });
}

fn bench_measurement_sweep(c: &mut Criterion) {
    let spec = DeviceSpec::ga100();
    let grid = DvfsGrid::for_spec(&spec);
    let sig = SignatureBuilder::new("sweep")
        .flops(1e13)
        .bytes(1e12)
        .build();
    let nm = NoiseModel::default_bench();
    c.bench_function("measure_61_states", |b| {
        b.iter(|| {
            grid.used()
                .iter()
                .map(|&f| gpu_model::sample::measure(&spec, &sig, f, 0, &nm).power_usage)
                .sum::<f64>()
        })
    });
}

fn bench_dataset_build(c: &mut Criterion) {
    let spec = DeviceSpec::ga100();
    let grid = DvfsGrid::for_spec(&spec);
    let nm = NoiseModel::default_bench();
    let sig = SignatureBuilder::new("w").flops(1e13).bytes(1e12).build();
    let samples: Vec<_> = grid
        .used()
        .iter()
        .flat_map(|&f| (0..3).map(move |r| (f, r)))
        .map(|(f, r)| gpu_model::sample::measure(&spec, &sig, f, r, &nm))
        .collect();
    c.bench_function("dataset_from_183_samples", |b| {
        b.iter(|| Dataset::from_samples(black_box(&spec), black_box(&samples)).unwrap())
    });
}

/// The offline phase's data-collection sweep: the paper's 21 training
/// workloads profiled over the GA100 grid, three runs per point — the
/// stage the concurrent campaign parallelizes across workloads. Smoke
/// mode strides the grid to keep check.sh fast.
fn bench_offline_sweep(c: &mut Criterion) {
    let smoke = std::env::var("BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let backend = SimulatorBackend::ga100();
    let spec = backend.spec().clone();
    let workloads: Vec<PhasedWorkload> = kernels::suite::training_suite()
        .iter()
        .map(|k| k.workload(&spec))
        .collect();
    let stride = if smoke { 8 } else { 1 };
    let freqs: Vec<f64> = backend.grid().used().into_iter().step_by(stride).collect();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("offline_sweep", |b| {
        b.iter(|| {
            let campaign = CollectionCampaign::new(
                &backend,
                LaunchConfig {
                    frequencies: freqs.clone(),
                    runs: 3,
                    output: None,
                },
            );
            campaign.collect(black_box(&workloads)).unwrap().len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_selection,
    bench_mi,
    bench_measurement_sweep,
    bench_dataset_build,
    bench_offline_sweep
);
criterion_main!(benches);
