//! Experiment harness shared by the per-figure binaries and the Criterion
//! benches.
//!
//! Every binary in `src/bin/` regenerates one of the paper's tables or
//! figures: it builds a [`dvfs_core::experiments::Lab`], runs the matching
//! driver, prints the rendered rows/series, and (when `DVFS_RESULTS_DIR`
//! is set) writes the JSON report next to it.

use dvfs_core::experiments::Lab;
use nn::activation::Activation;
use nn::network::Network;
use serde::Serialize;
use tensor::{matmul, Matrix};

/// Builds the Lab for a harness binary. `DVFS_QUICK=1` subsamples the
/// training grid (stride 4) for fast smoke runs; the default is the
/// paper's full 61-state campaign.
pub fn build_lab() -> Lab {
    let quick = std::env::var("DVFS_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    if quick {
        obs::log!(Info, "[harness] DVFS_QUICK=1: subsampled training grid");
        Lab::with_stride(4)
    } else {
        obs::log!(
            Info,
            "[harness] building full paper lab (21 benchmarks x 61 states x 3 runs)..."
        );
        Lab::paper()
    }
}

/// Prints a rendered report and optionally persists the JSON payload.
pub fn emit<T: Serialize>(name: &str, rendered: &str, report: &T) {
    println!("{rendered}");
    if let Ok(dir) = std::env::var("DVFS_RESULTS_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{name}.json"));
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match serde_json::to_string_pretty(report) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    obs::log!(Error, "[harness] failed to write {}: {e}", path.display());
                } else {
                    obs::log!(Info, "[harness] wrote {}", path.display());
                }
            }
            Err(e) => obs::log!(Error, "[harness] failed to serialize {name}: {e}"),
        }
    }
}

/// Each layer's activation and its pre-activations `a·W + b` (row-major,
/// `x.rows() × width`) in a forward pass of `net` over `x`: the inputs
/// the activation passes of that forward see, stored so a bench can time
/// the passes alone.
pub fn pre_activations(net: &Network, x: &Matrix) -> Vec<(Activation, Vec<f64>)> {
    let mut a = x.clone();
    let mut layers = Vec::with_capacity(net.layers().len());
    for layer in net.layers() {
        let mut z = Matrix::zeros(a.rows(), layer.out_dim());
        matmul::matmul_bias_into(&a, layer.weights(), layer.bias().as_slice(), &mut z)
            .expect("layer shapes agree");
        layers.push((layer.activation(), z.as_slice().to_vec()));
        for r in 0..z.rows() {
            layer.activation().apply_row(z.row_mut(r));
        }
        a = z;
    }
    layers
}
