//! The paper's methodology: DNN-based power/performance prediction across
//! the GPU DVFS space and performance-aware optimal-frequency selection.
//!
//! The crate wires the substrates together:
//!
//! * [`dataset`] — turns telemetry campaigns into normalized training
//!   matrices (features: `fp_active`, `dram_active`, normalized clock;
//!   targets: power / TDP and time / time-at-max, paper Section 4.3);
//! * [`models`] — the two 3x64 SELU networks (power: 100 epochs, time: 25)
//!   trained with RMSprop on MSE, plus JSON persistence;
//! * [`predictor`] — the online phase: profile an *unseen* application
//!   once at the default clock, predict its power/time/energy at every
//!   DVFS state (paper Figure 2, right half) — batch-first (one engine
//!   pass per model for the whole sweep, through
//!   [`models::PredictEngines`], the one prediction path);
//! * [`cache`] — a bounded LRU over normalized profiles keyed on
//!   quantized activities + device/grid identity, so repeated
//!   applications skip the forward passes entirely;
//! * [`objective`] — EDP / ED²P multi-objective scoring and the optimal
//!   frequency selection of Algorithm 1, including performance-degradation
//!   thresholds;
//! * [`evaluation`] — MAPE-based accuracy (Table 3) and
//!   energy/performance trade-off accounting (Tables 4-6);
//! * [`pipeline`] — end-to-end offline phase: collect the 21-benchmark
//!   campaign, train, return a deployable [`pipeline::TrainedPipeline`];
//! * [`capping`] — fleet-level power-cap planning over predicted profiles
//!   (a downstream use the models enable beyond the paper);
//! * [`experiments`] — one driver per paper table/figure.

pub mod cache;
pub mod capping;
pub mod dataset;
pub mod evaluation;
pub mod experiments;
pub mod models;
pub mod objective;
pub mod pipeline;
pub mod predictor;
pub mod serve;
pub mod snapshot;

pub use cache::{CacheHandle, CacheStats, ShardedProfileCache};
pub use capping::{plan_under_cap, CapPlan};
pub use dataset::Dataset;
pub use models::PowerTimeModels;
pub use objective::{select_optimal, Objective};
pub use pipeline::TrainedPipeline;
pub use predictor::PredictedProfile;
pub use snapshot::{ModelSnapshot, ModelStore, SnapshotMeta};
