//! From-scratch feedforward neural network (FNN) used for the paper's power
//! and performance models.
//!
//! The paper's configuration — three hidden layers of 64 neurons, SELU
//! activation (Klambauer et al. 2017), RMSprop optimizer, MSE loss, batch
//! size 64 — is expressible directly:
//!
//! ```
//! use nn::{Activation, NetworkBuilder, OptimizerKind, TrainConfig};
//! use tensor::Matrix;
//!
//! let net = NetworkBuilder::new(3)
//!     .hidden(64, Activation::Selu)
//!     .hidden(64, Activation::Selu)
//!     .hidden(64, Activation::Selu)
//!     .output(1, Activation::Linear)
//!     .seed(42)
//!     .build();
//!
//! let x = Matrix::from_rows(&[vec![0.9, 0.1, 1.0], vec![0.1, 0.8, 0.5]]).unwrap();
//! let y = Matrix::col_vector(&[1.0, 0.3]);
//! let mut trainer = nn::Trainer::new(net, TrainConfig {
//!     epochs: 5,
//!     batch_size: 2,
//!     optimizer: OptimizerKind::RmsProp { lr: 1e-3, rho: 0.9, eps: 1e-7 },
//!     ..TrainConfig::default()
//! });
//! let history = trainer.fit(&x, &y).unwrap();
//! assert_eq!(history.train_loss.len(), 5);
//! ```
//!
//! Everything is deterministic under an explicit seed; there is no global
//! RNG anywhere in the training path.
//!
//! # Zero-allocation engine
//!
//! Training and inference run through reusable [`Workspace`] buffers and
//! the tensor crate's `_into` kernels: after a short warm-up, a training
//! step ([`Network::forward_ws`] + [`Network::shard_grads_ws`] +
//! [`Network::apply_combined_grads`]) and a batch prediction
//! ([`Network::predict_into`]) perform **zero heap allocations** —
//! `tests/zero_alloc.rs` proves it with a counting global allocator. That
//! step is the only training path; [`Trainer::fit`] drives it. The
//! convenience [`Network::predict`] runs the same kernels through a
//! pooled workspace ([`Workspace::with_pooled`]), and [`reference`](mod@reference) keeps a
//! naive allocating implementation (`predict`, `fit`, `shard_step`) as
//! the oracle the parity proptests compare against bitwise.
//!
//! # Deterministic data parallelism
//!
//! [`Trainer::fit`] shards every mini-batch across a fixed number of
//! logical shards ([`TrainConfig::shards`]) and runs each step's shards
//! as one parallel call on the `rayon` pool, whose size the
//! `DVFS_THREADS` environment variable sets (else all cores). Gradients
//! are combined with a fixed-shape pairwise reduction tree, so the
//! trained network is **bitwise identical for every thread count** — see
//! [`engine`] for the full argument, `train.rs`'s proptests for the proof
//! and the root package's `tests/thread_counts.rs` for the pool sizes.

pub mod activation;
pub mod engine;
pub mod infer;
pub mod layer;
pub mod loss;
pub mod metrics;
pub mod network;
pub mod optimizer;
mod pool;
pub mod reference;
pub mod train;
pub mod workspace;

pub use activation::Activation;
pub use infer::{InferenceEngine, Precision};
pub use layer::Dense;
pub use loss::Loss;
pub use network::{Network, NetworkBuilder};
pub use optimizer::{Optimizer, OptimizerKind};
pub use train::{TrainConfig, Trainer, TrainingHistory};
pub use workspace::Workspace;
