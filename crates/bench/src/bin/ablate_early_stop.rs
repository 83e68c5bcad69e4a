//! Ablation: fixed epoch budgets vs validation-based early stopping.
//!
//! The paper chose 100 / 25 epochs by watching the Figure 6 loss curves for
//! incipient overfitting. This binary checks that automated early stopping
//! (patience on the validation loss) lands in the same neighbourhood and
//! costs no application accuracy.

use dvfs_core::dataset::Dataset;
use dvfs_core::models::{ModelConfig, PowerTimeModels, PredictEngines, BATCH_SIZE};
use nn::{Loss, OptimizerKind, Precision, TrainConfig, Trainer};
use telemetry::GpuBackend;
use tensor::Matrix;

fn main() {
    let lab = bench::build_lab();
    let ds: &Dataset = &lab.pipeline.dataset;
    let spec = lab.ga100.spec().clone();

    println!("== Ablation: fixed epochs vs early stopping (power model) ==");
    println!(
        "{:<22} {:>8} {:>14} {:>16}",
        "policy", "epochs", "val loss", "app accuracy(%)"
    );

    // Paper-fixed budget, straight from the lab's pipeline.
    report(
        &lab,
        &spec,
        "paper (100 fixed)",
        &lab.pipeline.models,
        lab.pipeline.models.power_history.train_loss.len(),
    );

    // Early stopping with a generous ceiling.
    for patience in [3usize, 8, 15] {
        let cfg = TrainConfig {
            epochs: 300,
            batch_size: BATCH_SIZE,
            optimizer: OptimizerKind::paper_default(),
            loss: Loss::Mse,
            validation_split: 0.2,
            shuffle_seed: 0xE5,
            early_stop_patience: Some(patience),
            ..TrainConfig::default()
        };
        let mut trainer = Trainer::new(ModelConfig::paper_power().build_network(), cfg);
        let history = trainer
            .fit(&ds.x, &Matrix::col_vector(&ds.y_power))
            .expect("dataset is valid");
        let epochs = history.train_loss.len();
        // Wrap into a PowerTimeModels shell so the accuracy helper applies
        // (the time model is irrelevant here; reuse the pipeline's).
        let models = PowerTimeModels {
            power: trainer.into_network(),
            time: lab.pipeline.models.time.clone(),
            power_history: history,
            time_history: lab.pipeline.models.time_history.clone(),
        };
        report(
            &lab,
            &spec,
            &format!("early stop (p={patience})"),
            &models,
            epochs,
        );
    }
}

fn report(
    lab: &dvfs_core::experiments::Lab,
    spec: &gpu_model::DeviceSpec,
    label: &str,
    models: &PowerTimeModels,
    epochs: usize,
) {
    let engines = PredictEngines::compile(models, Precision::F64);
    let mut acc = 0.0;
    for app in &lab.apps {
        let measured = &lab.measured_ga100[&app.name];
        let (fp, dram) = app.activities(spec, spec.max_core_mhz);
        let pred = engines.predict_power_w_batch(spec, fp, dram, &measured.frequencies);
        acc += nn::metrics::accuracy_from_mape(&pred, &measured.power_w);
    }
    println!(
        "{:<22} {:>8} {:>14.6} {:>16.1}",
        label,
        epochs,
        models
            .power_history
            .val_loss
            .last()
            .copied()
            .unwrap_or(f64::NAN),
        acc / lab.apps.len() as f64
    );
}
