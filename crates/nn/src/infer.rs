//! Frozen, inference-only view of a trained [`Network`]: the batched
//! engine behind the prediction hot path.
//!
//! Training wants mutable layers, cached state and bitwise
//! reproducibility; serving wants an immutable object that turns a batch
//! of feature rows into outputs as fast as possible. [`InferenceEngine`]
//! is that object: [`InferenceEngine::compile`] converts a trained
//! network's f64 weights **once** into the packed, interleaved f32 panel
//! layout of [`tensor::f32x8`], and every forward pass then runs one
//! fused GEMM + bias + activation per layer over the whole batch — the
//! 61-state frequency sweep is three 61×64 GEMMs and a 61×1 tail, not
//! 61 separate matvecs.
//!
//! # Precision modes and their documented error bounds
//!
//! * [`Precision::F64`] — no packing; the engine delegates to the same
//!   workspace `_into` kernels as [`Network::predict`], so outputs are
//!   **bitwise-identical** to [`crate::reference::predict`]. This is the
//!   default serving mode.
//! * [`Precision::F32`] — activations, weights and accumulation in f32;
//!   SELU/ELU/sigmoid use the branch-free [`tensor::f32x8::exp32`]
//!   (< 3e-7 relative error) so the activation pass vectorizes. For
//!   LeCun-initialized paper-topology networks on normalized features
//!   the parity proptests below enforce
//!   `|engine − reference| ≤ 1e-4 + 1e-4·|reference|` per output.
//! * [`Precision::Bf16`] — bf16-style *storage*: weights and biases keep
//!   only an 8-bit significand ([`tensor::f32x8::bf16_truncate`], one
//!   truncation ulp = `2^-7`), while activations and accumulation stay
//!   f32. Each layer records a power-of-two scale (weights are stored as
//!   `bf16(w / scale)` and the accumulator is rescaled before the bias
//!   add), keeping the stored values centered in the quantizer's range;
//!   power-of-two scaling is lossless in binary floating point, so the
//!   record costs no extra error. Enforced parity bound:
//!   `|engine − reference| ≤ 5e-2 + 5e-2·|reference|` per output.
//!
//! The reduced-precision bounds are *test contracts* for realistic
//! networks (bounded weights, normalized inputs), not worst-case
//! theorems — adversarial weight matrices can cancel catastrophically in
//! any finite precision. The serving layer therefore gates reduced
//! precision behind the rolling-MAPE quality monitor rather than trusting
//! the static bound (see `core::snapshot`).

use crate::activation::{Activation, SELU_ALPHA, SELU_SCALE};
use crate::network::Network;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use tensor::f32x8::{self, PackedF32};
use tensor::Matrix;

/// Numeric mode of an [`InferenceEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// Full f64, bitwise-identical to the training forward pass.
    F64,
    /// f32 storage and accumulation through the packed 8-lane kernels.
    F32,
    /// bf16-style truncated storage, f32 accumulation, per-layer scales.
    Bf16,
}

impl Precision {
    /// Parses a mode name as accepted by `dvfs serve --precision`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "f64" => Some(Self::F64),
            "f32" => Some(Self::F32),
            "bf16" => Some(Self::Bf16),
            _ => None,
        }
    }

    /// Canonical lowercase name (`f64` / `f32` / `bf16`).
    pub fn name(self) -> &'static str {
        match self {
            Self::F64 => "f64",
            Self::F32 => "f32",
            Self::Bf16 => "bf16",
        }
    }

    /// Stable numeric code for gauges: 0 = f64, 1 = f32, 2 = bf16.
    pub fn code(self) -> u64 {
        match self {
            Self::F64 => 0,
            Self::F32 => 1,
            Self::Bf16 => 2,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One layer in packed form: interleaved weight panels, f32 bias, the
/// power-of-two scale record, and the activation to fuse in.
#[derive(Debug, Clone)]
struct PackedLayer {
    weights: PackedF32,
    bias: Vec<f32>,
    /// Weights are stored as `quant(w / scale)`; the kernel multiplies
    /// the accumulator by `scale` before the bias add. Always an exact
    /// power of two (lossless), 1.0 in plain f32 mode.
    scale: f32,
    activation: Activation,
}

impl PackedLayer {
    fn out_dim(&self) -> usize {
        self.weights.out_dim()
    }

    /// Runs the fused layer kernel: `out = act(scale·(x·W) + b)`.
    ///
    /// Each activation variant gets its own monomorphized GEMM
    /// instantiation (the variant is a literal inside the closure, so
    /// [`apply32`]'s match constant-folds away) — a single closure over
    /// the runtime enum would put a per-element branch in the spill loop
    /// and keep the exponentials scalar.
    fn run(&self, x: &[f32], rows: usize, out: &mut [f32]) {
        use Activation as A;
        match self.activation {
            A::Softmax => {
                self.gemm(x, rows, |v| v, out);
                let n = self.out_dim();
                for r in 0..rows {
                    softmax32(&mut out[r * n..(r + 1) * n]);
                }
            }
            A::Linear => self.gemm(x, rows, |v| apply32(A::Linear, v), out),
            A::Relu => self.gemm(x, rows, |v| apply32(A::Relu, v), out),
            A::LeakyRelu { alpha } => {
                self.gemm(x, rows, move |v| apply32(A::LeakyRelu { alpha }, v), out)
            }
            A::Elu { alpha } => self.gemm(x, rows, move |v| apply32(A::Elu { alpha }, v), out),
            A::Selu => self.gemm(x, rows, |v| apply32(A::Selu, v), out),
            A::Sigmoid => self.gemm(x, rows, |v| apply32(A::Sigmoid, v), out),
            A::Tanh => self.gemm(x, rows, |v| apply32(A::Tanh, v), out),
            A::Softplus => self.gemm(x, rows, |v| apply32(A::Softplus, v), out),
            A::Softsign => self.gemm(x, rows, |v| apply32(A::Softsign, v), out),
        }
    }

    #[inline]
    fn gemm<F: Fn(f32) -> f32>(&self, x: &[f32], rows: usize, act: F, out: &mut [f32]) {
        f32x8::gemm_bias_act_into(x, rows, &self.weights, &self.bias, self.scale, act, out);
    }
}

const SELU_SCALE32: f32 = SELU_SCALE as f32;
const SELU_ALPHA32: f32 = SELU_ALPHA as f32;

/// f32 mirror of [`Activation::apply`], written branch-free so the fused
/// spill loop vectorizes. The rectifier family uses the additive split
/// `f(x) = pos(x.max(0)) + neg(x.min(0))` instead of a select: each term
/// is exactly zero on the other branch's domain (`exp32(0) == 1`
/// exactly), so the value is unchanged — and with no select, LLVM cannot
/// sink the exponential behind a per-element branch.
#[inline]
fn apply32(act: Activation, x: f32) -> f32 {
    match act {
        Activation::Linear => x,
        Activation::Relu => x.max(0.0),
        Activation::LeakyRelu { alpha } => x.max(0.0) + (alpha as f32) * x.min(0.0),
        Activation::Elu { alpha } => x.max(0.0) + (alpha as f32) * (f32x8::exp32(x.min(0.0)) - 1.0),
        Activation::Selu => {
            SELU_SCALE32 * (x.max(0.0) + SELU_ALPHA32 * (f32x8::exp32(x.min(0.0)) - 1.0))
        }
        Activation::Sigmoid => 1.0 / (1.0 + f32x8::exp32(-x)),
        Activation::Tanh => x.tanh(),
        Activation::Softplus => x.max(0.0) + (-x.abs()).exp().ln_1p(),
        Activation::Softsign => x / (1.0 + x.abs()),
        Activation::Softmax => unreachable!("softmax is row-wise; handled in PackedLayer::run"),
    }
}

/// Row-wise f32 softmax with the usual max-shift for stability.
fn softmax32(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = f32x8::exp32(*v - max);
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// A frozen, inference-only compilation of a trained [`Network`].
///
/// Construction ([`InferenceEngine::compile`]) does all per-model work —
/// weight conversion, panel packing, scale selection — so the forward
/// methods are pure compute over immutable state. The engine is `Send +
/// Sync` and is designed to live inside an immutable model snapshot
/// shared across serving threads; per-thread scratch comes from
/// thread-local buffers, so calls are allocation-free in steady state.
#[derive(Debug, Clone)]
pub struct InferenceEngine {
    precision: Precision,
    in_dim: usize,
    out_dim: usize,
    /// Frozen copy of the source network: the f64 forward path, and the
    /// reference the reduced-precision gate compares against.
    net: Network,
    /// Packed layers; empty in [`Precision::F64`] mode.
    packed: Vec<PackedLayer>,
}

impl InferenceEngine {
    /// Compiles `net` for `precision`. Weight conversion and packing
    /// happen here, once; the per-layer cost is one pass over each
    /// weight matrix.
    pub fn compile(net: &Network, precision: Precision) -> Self {
        let packed = match precision {
            Precision::F64 => Vec::new(),
            Precision::F32 => net
                .layers()
                .iter()
                .map(|l| PackedLayer {
                    weights: PackedF32::pack(l.weights()),
                    bias: l.bias().as_slice().iter().map(|&v| v as f32).collect(),
                    scale: 1.0,
                    activation: l.activation(),
                })
                .collect(),
            Precision::Bf16 => net
                .layers()
                .iter()
                .map(|l| {
                    let max_abs = l
                        .weights()
                        .as_slice()
                        .iter()
                        .fold(0.0f64, |m, &v| m.max(v.abs()));
                    // Power-of-two scale covering the layer's dynamic
                    // range: exact to divide by, exact to multiply back.
                    let scale = if max_abs > 0.0 {
                        2.0f64.powi(max_abs.log2().ceil() as i32)
                    } else {
                        1.0
                    };
                    PackedLayer {
                        weights: PackedF32::pack_with(l.weights(), |v| {
                            f32x8::bf16_truncate((v / scale) as f32)
                        }),
                        bias: l
                            .bias()
                            .as_slice()
                            .iter()
                            .map(|&v| f32x8::bf16_truncate(v as f32))
                            .collect(),
                        scale: scale as f32,
                        activation: l.activation(),
                    }
                })
                .collect(),
        };
        Self {
            precision,
            in_dim: net.in_dim(),
            out_dim: net.out_dim(),
            net: net.clone(),
            packed,
        }
    }

    /// The engine's numeric mode.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Batched forward pass: `x` is `(rows × in_dim)`; `out` receives
    /// `rows × out_dim` values in row-major order. Allocation-free in
    /// steady state (thread-local scratch, `out` reuses its capacity).
    pub fn predict_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        assert_eq!(x.cols(), self.in_dim, "engine input width");
        if self.precision == Precision::F64 || self.packed.is_empty() {
            Workspace::with_thread_local(&self.net, |ws| {
                let y = self.net.predict_into(x, ws);
                out.clear();
                out.extend_from_slice(y.as_slice());
            });
            return;
        }
        let rows = x.rows();
        SCRATCH.with(|cell| {
            let (a, b) = &mut *cell.borrow_mut();
            a.clear();
            a.extend(x.as_slice().iter().map(|&v| v as f32));
            for layer in &self.packed {
                b.resize(rows * layer.out_dim(), 0.0);
                layer.run(a, rows, b);
                std::mem::swap(a, b);
            }
            out.clear();
            out.extend(a.iter().map(|&v| f64::from(v)));
        });
    }

    /// Batched forward pass returning a fresh vector (test convenience).
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_into(x, &mut out);
        out
    }
}

thread_local! {
    /// Ping-pong activation buffers for the f32 layer chain.
    static SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::reference;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_net(seed: u64) -> Network {
        NetworkBuilder::new(3)
            .hidden(64, Activation::Selu)
            .hidden(64, Activation::Selu)
            .hidden(64, Activation::Selu)
            .output(1, Activation::Linear)
            .seed(seed)
            .build()
    }

    /// The 61-state sweep grid at fixed activity factors: one row per
    /// normalized frequency, mirroring `core`'s feature layout.
    fn grid61(fp: f64, dram: f64) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..61)
            .map(|i| vec![fp, dram, (510.0 + 15.0 * i as f64) / 1410.0])
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    fn assert_bounded(got: &[f64], want: &[f64], atol: f64, rtol: f64, what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let tol = atol + rtol * w.abs();
            assert!(
                (g - w).abs() <= tol,
                "{what}[{i}]: engine {g} vs reference {w} (tol {tol})"
            );
        }
    }

    #[test]
    fn precision_parse_and_name_round_trip() {
        for p in [Precision::F64, Precision::F32, Precision::Bf16] {
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::parse("F32"), Some(Precision::F32));
        assert_eq!(Precision::parse("fp8"), None);
        assert_eq!(Precision::F64.code(), 0);
        assert_eq!(Precision::Bf16.code(), 2);
    }

    #[test]
    fn f64_engine_is_bitwise_identical_to_reference() {
        let net = paper_net(21);
        let engine = InferenceEngine::compile(&net, Precision::F64);
        let x = grid61(0.8, 0.3);
        let want = reference::predict(&net, &x);
        assert_eq!(engine.predict(&x), want.as_slice());
    }

    #[test]
    fn one_row_batch_matches_batch_row_in_every_mode() {
        let net = paper_net(4);
        let x = grid61(0.5, 0.9);
        for p in [Precision::F64, Precision::F32, Precision::Bf16] {
            let engine = InferenceEngine::compile(&net, p);
            let batch = engine.predict(&x);
            let mut one = Vec::new();
            for r in [0usize, 7, 60] {
                engine.predict_into(&x.select_rows(&[r]), &mut one);
                // Exact: per-row accumulation chains are independent of
                // the batch blocking, in f32/bf16 just as in f64.
                assert_eq!(one.as_slice(), &batch[r..r + 1], "mode {p} row {r}");
            }
        }
    }

    #[test]
    fn selu_edge_inputs_stay_finite_and_close() {
        // Deep negatives saturate SELU at -scale·alpha; deep positives are
        // linear. The f32 engine must agree within the documented bound
        // even at the extremes (exp32 saturates instead of under/overflow).
        let net = NetworkBuilder::new(2)
            .hidden(8, Activation::Selu)
            .output(1, Activation::Linear)
            .seed(9)
            .build();
        let engine = InferenceEngine::compile(&net, Precision::F32);
        let rows = [
            vec![0.0, 0.0],
            vec![-0.0, 1e-30],
            vec![-100.0, 100.0],
            vec![-1e4, -1e-4],
            vec![50.0, -50.0],
        ];
        let x = Matrix::from_rows(&rows).unwrap();
        let want = reference::predict(&net, &x);
        let got = engine.predict(&x);
        assert!(got.iter().all(|v| v.is_finite()));
        // Magnitude-relative bound: inputs of order 1e4 scale the
        // f32-representation error accordingly.
        for (g, w) in got.iter().zip(want.as_slice()) {
            assert!((g - w).abs() <= 1e-4 + 1e-4 * w.abs().max(1e4));
        }
    }

    #[test]
    fn bf16_records_power_of_two_scales() {
        let net = paper_net(33);
        let engine = InferenceEngine::compile(&net, Precision::Bf16);
        for layer in &engine.packed {
            let exp = layer.scale.log2();
            assert_eq!(
                exp,
                exp.round(),
                "scale {} is not a power of two",
                layer.scale
            );
        }
    }

    proptest! {
        /// F64 mode: bitwise equality with the allocating reference on
        /// random paper-topology networks and random grids.
        #[test]
        fn f64_parity_is_bitwise(seed in 0u64..500, fp in 0.0f64..1.0, dram in 0.0f64..1.0) {
            let net = paper_net(seed);
            let engine = InferenceEngine::compile(&net, Precision::F64);
            let x = grid61(fp, dram);
            let want = reference::predict(&net, &x);
            prop_assert_eq!(engine.predict(&x), want.as_slice().to_vec());
        }

        /// F32 mode: documented bound |Δ| ≤ 1e-4 + 1e-4·|ref| on the
        /// 61-state grid for LeCun-initialized paper networks.
        #[test]
        fn f32_parity_within_documented_bound(seed in 0u64..500, fp in 0.0f64..1.0, dram in 0.0f64..1.0) {
            let net = paper_net(seed);
            let engine = InferenceEngine::compile(&net, Precision::F32);
            let x = grid61(fp, dram);
            let want = reference::predict(&net, &x);
            assert_bounded(&engine.predict(&x), want.as_slice(), 1e-4, 1e-4, "f32");
        }

        /// Bf16 mode: documented bound |Δ| ≤ 5e-2 + 5e-2·|ref|.
        #[test]
        fn bf16_parity_within_documented_bound(seed in 0u64..500, fp in 0.0f64..1.0, dram in 0.0f64..1.0) {
            let net = paper_net(seed);
            let engine = InferenceEngine::compile(&net, Precision::Bf16);
            let x = grid61(fp, dram);
            let want = reference::predict(&net, &x);
            assert_bounded(&engine.predict(&x), want.as_slice(), 5e-2, 5e-2, "bf16");
        }

        /// Mixed activations and odd widths through the packed kernels.
        #[test]
        fn f32_parity_on_mixed_activations(seed in 0u64..200) {
            let net = NetworkBuilder::new(4)
                .hidden(10, Activation::Tanh)
                .hidden(7, Activation::Relu)
                .hidden(5, Activation::Sigmoid)
                .output(3, Activation::Linear)
                .seed(seed)
                .build();
            let engine = InferenceEngine::compile(&net, Precision::F32);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let x = tensor::init::uniform(9, 4, -1.0, 1.0, &mut rng);
            let want = reference::predict(&net, &x);
            assert_bounded(&engine.predict(&x), want.as_slice(), 1e-4, 1e-4, "mixed");
        }
    }
}
