//! # gpu-dvfs — performance-aware energy-efficient GPU frequency selection
//!
//! A from-scratch Rust reproduction of *"Performance-Aware Energy-Efficient
//! GPU Frequency Selection using DNN-based Models"* (Ali, Side,
//! Bhalachandra, Wright, Chen — ICPP 2023), including every substrate the
//! paper depends on:
//!
//! | crate | what it provides |
//! |---|---|
//! | [`tensor`] | dense matrix math with blocked + parallel matmul |
//! | [`nn`] | feedforward networks: SELU, RMSprop, backprop, MAPE |
//! | [`baselines`] | RFR / XGBR / SVR / MLR multi-learner baselines |
//! | [`featsel`] | KSG k-NN mutual-information feature selection |
//! | [`gpu`] (re-export of `gpu_model`) | analytical GA100/GV100 DVFS simulator |
//! | [`kernels`] | 21 instrumented parallel benchmarks + 6 real-app models |
//! | [`telemetry`] | DCGM-like launch/control/profile collection framework |
//! | [`obs`] | self-instrumentation: spans, metrics registry, histograms |
//! | [`core`] (re-export of `dvfs_core`) | datasets, DNN models, EDP/ED²P selection, experiments |
//!
//! ## Quickstart
//!
//! ```no_run
//! use gpu_dvfs::prelude::*;
//!
//! // Offline phase: profile the 21-benchmark suite across the DVFS grid
//! // on the simulated A100 and train the two DNN models.
//! let backend = SimulatorBackend::ga100();
//! let pipeline = TrainedPipeline::train_on(&backend, 1);
//!
//! // Online phase: one profiling run of an unseen application at the
//! // default clock, then predict across all 61 DVFS states and pick the
//! // ED²P-optimal frequency.
//! let app = gpu_dvfs::kernels::apps::lammps();
//! let predictor = pipeline.predictor(pipeline.train_spec.clone());
//! let profile = predictor.predict_online(&backend, &app);
//! let choice = profile.select(Objective::Ed2p, None);
//! println!("run {} at {} MHz", app.name, choice.frequency_mhz);
//! ```
//!
//! See `DESIGN.md` for the architecture and the per-experiment index, and
//! `EXPERIMENTS.md` for paper-vs-measured results.

pub use baselines;
pub use dvfs_core as core;
pub use featsel;
pub use gpu_model as gpu;
pub use kernels;
pub use nn;
pub use obs;
pub use telemetry;
pub use tensor;

/// The most common imports for downstream users.
pub mod prelude {
    pub use dvfs_core::cache::{CacheHandle, CacheStats, ShardedProfileCache};
    pub use dvfs_core::dataset::Dataset;
    pub use dvfs_core::models::PowerTimeModels;
    pub use dvfs_core::objective::{select_optimal, Objective};
    pub use dvfs_core::pipeline::TrainedPipeline;
    pub use dvfs_core::predictor::{measured_profile, PredictedProfile, Predictor};
    pub use dvfs_core::serve::{LoadgenConfig, Pacing, ServeConfig, Server};
    pub use dvfs_core::snapshot::{ModelSnapshot, ModelStore, SnapshotMeta};
    pub use gpu_model::{
        ArchKind, DeviceSpec, DvfsGrid, NoiseModel, PhasedWorkload, WorkloadSignature,
    };
    pub use kernels::{GpuProfile, Kernel};
    pub use telemetry::{GpuBackend, SimulatorBackend};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let backend = SimulatorBackend::ga100();
        assert_eq!(backend.spec().tdp_w, 500.0);
        let grid = DvfsGrid::for_spec(backend.spec());
        assert_eq!(grid.num_used(), 61);
    }
}
