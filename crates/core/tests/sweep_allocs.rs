//! Proof that an f64 prediction sweep allocates only the vectors it
//! returns, measured with a counting global allocator.
//!
//! Every request that misses the profile cache (each `unseen-apps`
//! request of the benchmark) runs one power sweep and one time sweep,
//! and reads its anchor ratio off the time sweep's last row. The sweep
//! below also runs `predict_time_ratio`, the one-row batch that anchors
//! a grid not ending at the default clock, into its thread-local output.
//! The feature rows are written in place into a reused matrix and the
//! engines run through thread-local buffers, so the two returned curves
//! are the only heap allocations.
//!
//! The counting allocator is process-global, so this file is a
//! `harness = false` target holding a single test, run on the main
//! thread by `common::run` (`nn`'s `tests/common/mod.rs`, included by
//! path).

#[path = "../../nn/tests/common/mod.rs"]
mod common;

use common::counted;
use dvfs_core::models::{ModelConfig, PowerTimeModels, PredictEngines};
use gpu_model::{DeviceSpec, DvfsGrid};
use nn::{Precision, TrainingHistory};

fn main() {
    common::run(
        "f64_sweep_allocates_only_its_two_returned_curves",
        f64_sweep_allocates_only_its_two_returned_curves,
    );
}

fn f64_sweep_allocates_only_its_two_returned_curves() {
    // Untrained paper-topology networks: the allocation pattern does not
    // depend on the weights.
    let history = TrainingHistory {
        train_loss: Vec::new(),
        val_loss: Vec::new(),
        train_seconds: 0.0,
    };
    let models = PowerTimeModels {
        power: ModelConfig::paper_power().build_network(),
        time: ModelConfig::paper_time().build_network(),
        power_history: history.clone(),
        time_history: history,
    };
    let engines = PredictEngines::compile(&models, Precision::F64);
    let spec = DeviceSpec::ga100();
    let freqs = DvfsGrid::for_spec(&spec).used();
    assert_eq!(freqs.len(), 61);

    let sweep = |fp: f64, dram: f64| {
        let power = engines.predict_power_w_batch(&spec, fp, dram, &freqs);
        let time = engines.predict_time_ratio_batch(&spec, fp, dram, &freqs);
        let anchor = engines.predict_time_ratio(&spec, fp, dram, spec.max_core_mhz);
        (power, time, anchor)
    };
    // Warm-up: size the thread-local feature matrix, workspace and output
    // buffers.
    let warm = sweep(0.5, 0.5);

    let mut last = None;
    let (bytes, allocs) = counted(|| last = Some(sweep(0.5, 0.5)));
    let returned = 2 * freqs.len() * std::mem::size_of::<f64>();
    assert_eq!(
        (bytes, allocs),
        (returned as u64, 2),
        "a sweep allocated {bytes} bytes across {allocs} allocations; \
         only the power and time curves ({returned} bytes, 2 allocations) should"
    );
    let last = last.unwrap();
    assert_eq!(last.0, warm.0);
    assert_eq!(last.1, warm.1);
    assert_eq!(last.2.to_bits(), warm.2.to_bits());
}
