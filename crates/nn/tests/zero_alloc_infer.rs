//! Proof that the f64 inference engine — a served 61-state sweep and a
//! one-row batch, alternated — is allocation-free in steady state,
//! measured with a counting global allocator.
//!
//! `InferenceEngine` promises allocation-free calls once its pooled
//! scratch and the caller's output vector are warm. At `Precision::F64`
//! every call runs `Network::predict_into` through a pooled `Workspace`
//! (`Workspace::with_pooled`), whose layer outputs each call resizes to
//! its own batch within the capacity the sweep left.
//!
//! The counting allocator is process-global, so this file is a
//! `harness = false` target holding a single test, run on the main
//! thread by `common::run` (see `tests/common/mod.rs`).

mod common;

use common::counted;
use nn::activation::Activation;
use nn::network::NetworkBuilder;
use nn::{InferenceEngine, Precision};
use tensor::Matrix;

fn main() {
    common::run(
        "f64_engine_sweep_and_one_row_are_allocation_free_after_warmup",
        f64_engine_sweep_and_one_row_are_allocation_free_after_warmup,
    );
}

fn f64_engine_sweep_and_one_row_are_allocation_free_after_warmup() {
    // The paper topology: 3 -> 64 -> 64 -> 64 -> 1, SELU.
    let net = NetworkBuilder::new(3)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .output(1, Activation::Linear)
        .seed(7)
        .build();
    let engine = InferenceEngine::compile(&net, Precision::F64);
    // One row per clock of the 61-state GA100 grid at fixed activities,
    // the feature layout of a served sweep.
    let rows: Vec<Vec<f64>> = (0..61)
        .map(|i| vec![0.6, 0.3, (510.0 + 15.0 * i as f64) / 1410.0])
        .collect();
    let x = Matrix::from_rows(&rows).unwrap();
    let singles: Vec<Matrix> = (0..61).map(|r| x.select_rows(&[r])).collect();
    let mut sweep = Vec::new();
    let mut one = Vec::new();

    // Warm-up: size the pooled workspace and both output vectors.
    engine.predict_into(&x, &mut sweep);
    engine.predict_into(&singles[60], &mut one);

    let (bytes, allocs) = counted(|| {
        for single in &singles {
            engine.predict_into(&x, &mut sweep);
            engine.predict_into(single, &mut one);
        }
    });
    assert_eq!(
        (bytes, allocs),
        (0, 0),
        "f64 61-row and one-row predict_into allocated {bytes} bytes across {allocs} allocations"
    );
    // Still the same answers: the one-row batch equals the sweep's row.
    assert_eq!(one.as_slice(), &sweep[60..61]);
}
