//! Dense matrix and vector math used throughout the GPU-DVFS stack.
//!
//! The crate provides a small, dependency-light linear-algebra layer:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with shape-checked ops.
//! * Blocked and rayon-parallel matrix multiplication ([`matmul`]).
//! * Column statistics and feature scaling ([`stats`]).
//! * Deterministic random initialization ([`init`]).
//!
//! # The `_into` API
//!
//! Every hot-path operation has an allocation-free sibling that writes into
//! a caller-provided buffer: [`matmul::matmul_into`], the transpose-free
//! [`matmul::matmul_at_b_into`] (`Aᵀ·B`) and [`matmul::matmul_a_bt_into`]
//! (`A·Bᵀ`), the bias-fused [`matmul::matmul_bias_into`], and in [`ops`]:
//! `scale_in_place`, `sum_rows_into`, `gather_rows_into`. Each `_into`
//! variant is **bitwise-identical** to its allocating counterpart — same
//! per-element accumulation order — so callers can switch to buffer reuse
//! without perturbing results. Combined with [`Matrix::resize_to`] (which
//! never reallocates within capacity), these make steady-state training
//! and inference loops allocation-free.
//!
//! The neural-network crate (`nn`) and the multi-learner baselines
//! (`baselines`) are built on top of these primitives. Training is `f64`
//! throughout: the datasets in this project are small (tens of thousands
//! of rows), so numerical robustness is worth more than the memory
//! savings of `f32`. The one exception is inference: [`f32x8`] provides
//! explicitly 8-lane-wide f32 kernels (packed/interleaved weight panels,
//! a fused GEMM + bias + activation pass, optional bf16-style storage)
//! for the latency-critical prediction hot path, with a documented error
//! bound instead of the bitwise contract.

pub mod error;
pub mod f32x8;
pub mod init;
pub mod matmul;
pub mod matrix;
pub mod ops;
pub mod reduce;
pub mod stats;

pub use error::{ShapeError, TensorResult};
pub use matrix::Matrix;
