//! Criterion benches for model training — the paper's Section 4.3
//! claims: ~6.5 s power-model training, ~2.6 s time model. (Its ~0.2 s
//! prediction across the DVFS space is timed in `prediction.rs`.)
//!
//! The `nn_training` group is the before/after guard for the
//! zero-allocation engine: `epoch_reference` times the original
//! allocating path (preserved verbatim in `nn::reference`), while
//! `epoch_workspace` times `Trainer::fit` on identical data, topology,
//! and seeds, its shards spread over the process's `rayon` pool
//! (`DVFS_THREADS`, else every core). Both paths are bitwise-identical in
//! output, so the group isolates the cost of buffer churn and what the
//! pool's threads save. `shard_step_8x64` times the
//! step's kernels alone: one forward and backward pass on one 8-row
//! shard. `validate_1537` times the per-epoch validation pass: one f64
//! forward over 1537 rows (the validation split of the paper campaign)
//! plus its loss.
//!
//! Set `BENCH_SMOKE=1` to shrink the heavy model-training workloads so
//! `scripts/check.sh` can exercise every bench body in seconds.

use criterion::{criterion_group, criterion_main, Criterion};
use dvfs_core::dataset::Dataset;
use dvfs_core::models::{ModelConfig, PowerTimeModels};
use gpu_model::{DeviceSpec, DvfsGrid, NoiseModel, SignatureBuilder};
use nn::activation::Activation;
use nn::network::{Network, NetworkBuilder};
use nn::reference;
use nn::train::{TrainConfig, Trainer};
use nn::{Loss, Workspace};
use std::hint::black_box;
use tensor::Matrix;

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Caps an epoch budget in smoke mode so check.sh finishes quickly.
fn epochs(full: usize) -> usize {
    if smoke() {
        full.min(2)
    } else {
        full
    }
}

fn campaign_dataset() -> (DeviceSpec, Dataset) {
    let spec = DeviceSpec::ga100();
    let grid = DvfsGrid::for_spec(&spec);
    let nm = NoiseModel::default_bench();
    let sigs = [
        SignatureBuilder::new("c")
            .flops(2e13)
            .bytes(2e11)
            .kappa_compute(0.9)
            .build(),
        SignatureBuilder::new("m")
            .flops(2e11)
            .bytes(2e13)
            .kappa_memory(0.85)
            .build(),
        SignatureBuilder::new("x").flops(8e12).bytes(3e12).build(),
        SignatureBuilder::new("y")
            .flops(3e12)
            .bytes(1e12)
            .kappa_compute(0.5)
            .build(),
    ];
    let mut samples = Vec::new();
    for sig in &sigs {
        for &f in &grid.used() {
            for run in 0..3 {
                samples.push(gpu_model::sample::measure(&spec, sig, f, run, &nm));
            }
        }
    }
    let ds = Dataset::from_samples(&spec, &samples).unwrap();
    (spec, ds)
}

fn bench_training(c: &mut Criterion) {
    let (_, ds) = campaign_dataset();
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    group.bench_function("power_model_100_epochs", |b| {
        b.iter(|| {
            PowerTimeModels::train_with(
                black_box(&ds),
                ModelConfig {
                    epochs: epochs(ModelConfig::paper_power().epochs),
                    ..ModelConfig::paper_power()
                },
                // Train only the time model minimally: this bench targets
                // the power model's 100-epoch cost.
                ModelConfig {
                    epochs: 1,
                    ..ModelConfig::paper_time()
                },
            )
        })
    });
    group.bench_function("time_model_25_epochs", |b| {
        b.iter(|| {
            PowerTimeModels::train_with(
                black_box(&ds),
                ModelConfig {
                    epochs: 1,
                    ..ModelConfig::paper_power()
                },
                ModelConfig {
                    epochs: epochs(ModelConfig::paper_time().epochs),
                    ..ModelConfig::paper_time()
                },
            )
        })
    });
    group.finish();
}

/// The tentpole before/after benchmark: one 5-epoch fit of the paper
/// topology (3 -> 64 -> 64 -> 64 -> 1, SELU, RMSprop, batch 64) on 512
/// synthetic rows, via the workspace engine vs the preserved allocating
/// reference. Output is bitwise-identical between the two.
fn bench_epoch_cost(c: &mut Criterion) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let x = tensor::init::uniform(512, 3, 0.0, 1.0, &mut rng);
    let target = |r: &[f64]| 0.5 * r[0] + r[1] * r[1] - 0.3 * r[2] + 0.1;
    let y = Matrix::col_vector(&x.rows_iter().map(target).collect::<Vec<f64>>());
    let net: Network = NetworkBuilder::new(3)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .output(1, Activation::Linear)
        .seed(7)
        .build();
    // Paper-default config (batch 64, 80/20 split) at a 5-epoch budget:
    // the per-epoch cost is what the zero-allocation engine targets.
    let cfg = TrainConfig {
        epochs: epochs(5),
        ..TrainConfig::default()
    };

    let mut group = c.benchmark_group("nn_training");
    group.sample_size(10);
    group.bench_function("epoch_workspace", |b| {
        b.iter(|| {
            let mut trainer = Trainer::new(net.clone(), cfg);
            trainer.fit(black_box(&x), black_box(&y)).unwrap()
        })
    });
    group.bench_function("epoch_reference", |b| {
        b.iter(|| {
            let mut n = net.clone();
            reference::fit(&mut n, &cfg, black_box(&x), black_box(&y)).unwrap()
        })
    });
    // One shard of one step, the unit `Trainer::fit` runs eight times per
    // 64-row batch (`TrainConfig::shards`): forward plus raw gradient
    // sums on 8 rows of the paper topology, without the reduction and
    // the optimizer update.
    let shard: Vec<usize> = (0..8).collect();
    let (xs, ys) = (x.select_rows(&shard), y.select_rows(&shard));
    let mut ws = Workspace::for_network(&net, xs.rows());
    group.bench_function("shard_step_8x64", |b| {
        b.iter(|| {
            net.forward_ws(black_box(&xs), &mut ws);
            net.shard_grads_ws(black_box(&ys), Loss::Mse, &mut ws)
        })
    });
    // What `Trainer::fit` runs after every epoch (`fit/epoch/validate`):
    // the workspace forward over the validation rows, then the loss.
    let xv = tensor::init::uniform(1537, 3, 0.0, 1.0, &mut rng);
    let yv = Matrix::col_vector(&xv.rows_iter().map(target).collect::<Vec<f64>>());
    let mut ws_val = Workspace::for_network(&net, xv.rows());
    group.bench_function("validate_1537", |b| {
        b.iter(|| {
            let pred = net.predict_into(black_box(&xv), &mut ws_val);
            Loss::Mse.value(pred, &yv)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_training, bench_epoch_cost);
criterion_main!(benches);
