//! Ablation: hidden activation function (the paper's Section 4.3 sweep).
//!
//! The paper tested ReLU, ELU, Leaky ReLU, SELU, sigmoid, tanh, softplus
//! and softsign and chose SELU. This binary reruns that sweep on the power
//! model and reports final validation loss and real-application accuracy.

use dvfs_core::dataset::Dataset;
use dvfs_core::models::{ModelConfig, PowerTimeModels, PredictEngines};
use nn::{Activation, Precision};

fn main() {
    let lab = bench::build_lab();
    let ds: &Dataset = &lab.pipeline.dataset;
    let spec = lab.pipeline.train_spec.clone();

    let candidates = [
        Activation::Selu,
        Activation::Relu,
        Activation::LeakyRelu { alpha: 0.01 },
        Activation::Elu { alpha: 1.0 },
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Softplus,
        Activation::Softsign,
    ];

    println!("== Ablation: activation function (power model) ==");
    println!(
        "{:<12} {:>12} {:>16}",
        "activation", "val loss", "app accuracy(%)"
    );
    for act in candidates {
        let cfg = ModelConfig {
            activation: act,
            ..ModelConfig::paper_power()
        };
        let models = PowerTimeModels::train_with(
            ds,
            cfg,
            ModelConfig {
                activation: act,
                ..ModelConfig::paper_time()
            },
        );
        let val = models
            .power_history
            .val_loss
            .last()
            .copied()
            .unwrap_or(f64::NAN);

        // Mean power accuracy over the six applications under this model.
        let engines = PredictEngines::compile(&models, Precision::F64);
        let mut acc_sum = 0.0;
        for app in &lab.apps {
            let measured = &lab.measured_ga100[&app.name];
            let (fp, dram) = app.activities(&spec, spec.max_core_mhz);
            let pred = engines.predict_power_w_batch(&spec, fp, dram, &measured.frequencies);
            acc_sum += nn::metrics::accuracy_from_mape(&pred, &measured.power_w);
        }
        println!(
            "{:<12} {:>12.6} {:>16.1}",
            act.name(),
            val,
            acc_sum / lab.apps.len() as f64
        );
    }
}
