//! Ablation: which feature values enter the training rows.
//!
//! Compares [`FeatureMode::PerSample`], [`FeatureMode::DefaultClock`] and
//! the default [`FeatureMode::Both`] — the design choice DESIGN.md calls
//! out: per-sample rows give the network feature-space coverage while
//! default-clock rows anchor the online regime.

use dvfs_core::dataset::{Dataset, FeatureMode};
use dvfs_core::models::{PowerTimeModels, PredictEngines};
use nn::Precision;
use telemetry::GpuBackend;

fn main() {
    let lab = bench::build_lab();
    let spec = lab.ga100.spec().clone();

    println!("== Ablation: training feature mode ==");
    println!(
        "{:<14} {:>8} {:>18} {:>17}",
        "mode", "rows", "power app acc(%)", "time app acc(%)"
    );
    for (name, mode) in [
        ("per-sample", FeatureMode::PerSample),
        ("default-clock", FeatureMode::DefaultClock),
        ("both", FeatureMode::Both),
    ] {
        let ds = Dataset::from_samples_with(&spec, &lab.pipeline.samples, mode)
            .expect("campaign covers the default clock");
        let models = PowerTimeModels::train(&ds);
        let engines = PredictEngines::compile(&models, Precision::F64);
        let mut p_acc = 0.0;
        let mut t_acc = 0.0;
        for app in &lab.apps {
            let measured = &lab.measured_ga100[&app.name];
            let (fp, dram) = app.activities(&spec, spec.max_core_mhz);
            let freqs = &measured.frequencies;
            let pred_p = engines.predict_power_w_batch(&spec, fp, dram, freqs);
            let pred_t = engines.predict_time_ratio_batch(&spec, fp, dram, freqs);
            let pred_t_norm: Vec<f64> =
                pred_t.iter().map(|&t| t / pred_t.last().unwrap()).collect();
            p_acc += nn::metrics::accuracy_from_mape(&pred_p, &measured.power_w);
            t_acc += nn::metrics::accuracy_from_mape(&pred_t_norm, &measured.normalized_time());
        }
        let n = lab.apps.len() as f64;
        println!(
            "{:<14} {:>8} {:>18.1} {:>17.1}",
            name,
            ds.len(),
            p_acc / n,
            t_acc / n
        );
    }
}
