//! Ablation: input feature subsets.
//!
//! Validates the MI-based selection (paper Section 4.2): the three chosen
//! features beat any strict subset of them for power prediction.

use dvfs_core::dataset::Dataset;
use dvfs_core::models::BATCH_SIZE;
use nn::{Activation, Loss, NetworkBuilder, OptimizerKind, TrainConfig, Trainer};
use telemetry::GpuBackend;
use tensor::Matrix;

/// Column subsets of (fp_active, dram_active, f_norm).
const SUBSETS: [(&str, &[usize]); 6] = [
    ("f", &[2]),
    ("fp", &[0]),
    ("fp+f", &[0, 2]),
    ("dram+f", &[1, 2]),
    ("fp+dram", &[0, 1]),
    ("fp+dram+f", &[0, 1, 2]),
];

fn select_columns(x: &Matrix, cols: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), cols.len());
    for r in 0..x.rows() {
        for (j, &c) in cols.iter().enumerate() {
            out[(r, j)] = x[(r, c)];
        }
    }
    out
}

fn main() {
    let lab = bench::build_lab();
    let ds: &Dataset = &lab.pipeline.dataset;
    let spec = lab.ga100.spec().clone();

    println!("== Ablation: feature subsets (power model) ==");
    println!(
        "{:<12} {:>12} {:>16}",
        "features", "val loss", "app accuracy(%)"
    );
    for (name, cols) in SUBSETS {
        let x = select_columns(&ds.x, cols);
        let y = Matrix::col_vector(&ds.y_power);
        let net = {
            let mut b = NetworkBuilder::new(cols.len()).seed(0xFEA7);
            for _ in 0..3 {
                b = b.hidden(64, Activation::Selu);
            }
            b.output(1, Activation::Linear).build()
        };
        let mut trainer = Trainer::new(
            net,
            TrainConfig {
                epochs: 100,
                batch_size: BATCH_SIZE,
                optimizer: OptimizerKind::paper_default(),
                loss: Loss::Mse,
                validation_split: 0.2,
                shuffle_seed: 7,
                early_stop_patience: None,
                ..TrainConfig::default()
            },
        );
        let history = trainer.fit(&x, &y).expect("dataset is valid");
        let net = trainer.into_network();

        let mut acc_sum = 0.0;
        for app in &lab.apps {
            let measured = &lab.measured_ga100[&app.name];
            let (fp, dram) = app.activities(&spec, spec.max_core_mhz);
            let sweep: Vec<Vec<f64>> = measured
                .frequencies
                .iter()
                .map(|&f| vec![fp, dram, f / spec.max_core_mhz])
                .collect();
            let sweep = Matrix::from_rows(&sweep).expect("three features per row");
            let pred: Vec<f64> = net
                .predict(&select_columns(&sweep, cols))
                .as_slice()
                .iter()
                .map(|&p| (p * spec.tdp_w).max(0.0))
                .collect();
            acc_sum += nn::metrics::accuracy_from_mape(&pred, &measured.power_w);
        }
        println!(
            "{:<12} {:>12.6} {:>16.1}",
            name,
            history.val_loss.last().copied().unwrap_or(f64::NAN),
            acc_sum / lab.apps.len() as f64
        );
    }
}
