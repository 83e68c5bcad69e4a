//! Activation functions and their derivatives.
//!
//! The paper evaluated ReLU, ELU, Leaky ReLU, SELU, sigmoid, tanh, softmax,
//! softplus and softsign before settling on SELU; all of them are available
//! here so the ablation benches can rerun that sweep. SELU uses the exact
//! constants from Klambauer et al. 2017 that the paper quotes
//! (α = 1.67326324, scale = 1.05070098).
//!
//! ELU and SELU take `e^x` from [`tensor::exp64`], never from libm
//! directly: the scalar functions here, the slice passes the layers run
//! and `nn::reference` all reach that one definition, so the f64
//! network's bitwise oracles hold by construction on any platform.

use serde::{Deserialize, Serialize};
use tensor::exp64;

/// SELU α constant (paper Equation 2).
pub const SELU_ALPHA: f64 = 1.67326324;
/// SELU scale constant (paper Equation 2).
pub const SELU_SCALE: f64 = 1.05070098;

/// An elementwise activation function.
///
/// `Softmax` is the one non-elementwise member; it is applied per row and is
/// only valid as an output activation (its backward pass uses the full
/// per-row Jacobian).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity, for regression output layers.
    Linear,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with negative slope `alpha`.
    LeakyRelu {
        /// Negative-side slope.
        alpha: f64,
    },
    /// Exponential linear unit with saturation `alpha`.
    Elu {
        /// Negative-side saturation value.
        alpha: f64,
    },
    /// Scaled exponential linear unit (self-normalizing networks).
    Selu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// `ln(1 + e^x)`.
    Softplus,
    /// `x / (1 + |x|)`.
    Softsign,
    /// Row-wise softmax (output layers only).
    Softmax,
}

impl Activation {
    /// Applies the activation to a single pre-activation value.
    ///
    /// # Panics
    /// Panics for [`Activation::Softmax`], which is not elementwise; use
    /// [`Activation::apply_row`].
    #[inline]
    pub fn apply(&self, x: f64) -> f64 {
        match *self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu { alpha } => {
                if x > 0.0 {
                    x
                } else {
                    alpha * x
                }
            }
            Activation::Elu { alpha } => {
                if x > 0.0 {
                    x
                } else {
                    alpha * (exp64::exp(x) - 1.0)
                }
            }
            Activation::Selu => {
                if x > 0.0 {
                    SELU_SCALE * x
                } else {
                    SELU_SCALE * SELU_ALPHA * (exp64::exp(x) - 1.0)
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Softplus => {
                // Numerically stable: ln(1+e^x) = max(x,0) + ln(1+e^-|x|).
                x.max(0.0) + (-x.abs()).exp().ln_1p()
            }
            Activation::Softsign => x / (1.0 + x.abs()),
            Activation::Softmax => panic!("softmax is not elementwise; use apply_row"),
        }
    }

    /// Derivative with respect to the pre-activation, evaluated at `x`.
    ///
    /// # Panics
    /// Panics for [`Activation::Softmax`]; its Jacobian is handled by
    /// [`Activation::backward_row`].
    #[inline]
    pub fn derivative(&self, x: f64) -> f64 {
        match *self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu { alpha } => {
                if x > 0.0 {
                    1.0
                } else {
                    alpha
                }
            }
            Activation::Elu { alpha } => {
                if x > 0.0 {
                    1.0
                } else {
                    alpha * exp64::exp(x)
                }
            }
            Activation::Selu => {
                if x > 0.0 {
                    SELU_SCALE
                } else {
                    SELU_SCALE * SELU_ALPHA * exp64::exp(x)
                }
            }
            Activation::Sigmoid => {
                let s = self.apply(x);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Softplus => 1.0 / (1.0 + (-x).exp()),
            Activation::Softsign => {
                let d = 1.0 + x.abs();
                1.0 / (d * d)
            }
            Activation::Softmax => panic!("softmax derivative requires the row Jacobian"),
        }
    }

    /// `(apply(x), derivative(x))`, bit for bit: what the training
    /// forward pass keeps so backprop never re-evaluates `f'`.
    ///
    /// ELU and SELU share one `exp` between the two: their negative
    /// branches are `c·(e − 1)` and `c·e` for the same `e = exp(x)`, the
    /// exact expressions `apply` and `derivative` evaluate. Every other
    /// activation calls both.
    ///
    /// # Panics
    /// Panics for [`Activation::Softmax`].
    #[inline]
    pub(crate) fn value_and_derivative(&self, x: f64) -> (f64, f64) {
        match *self {
            Activation::Elu { alpha } => {
                if x > 0.0 {
                    (x, 1.0)
                } else {
                    let e = exp64::exp(x);
                    (alpha * (e - 1.0), alpha * e)
                }
            }
            Activation::Selu => {
                if x > 0.0 {
                    (SELU_SCALE * x, SELU_SCALE)
                } else {
                    let e = exp64::exp(x);
                    (
                        SELU_SCALE * SELU_ALPHA * (e - 1.0),
                        SELU_SCALE * SELU_ALPHA * e,
                    )
                }
            }
            _ => (self.apply(x), self.derivative(x)),
        }
    }

    /// [`Activation::apply`] over a slice in place, bit for bit.
    ///
    /// ELU and SELU run one branch-free loop: every element evaluates
    /// both branches, `e^x` through [`exp64::exp_in_range`], and a bit
    /// mask keeps one, so the loop vectorizes. A slice holding a
    /// non-positive value off that function's main path (zero,
    /// `|x| < 2⁻⁵⁴`, `x ≤ −512`, NaN) runs the scalar loop instead, as
    /// every other activation does, its `match` resolved once per slice.
    ///
    /// # Panics
    /// Panics for [`Activation::Softmax`]; use [`Activation::apply_row`].
    pub fn apply_slice(&self, xs: &mut [f64]) {
        match *self {
            Activation::Elu { alpha } if exp_main_path_covers(xs) => {
                exp_linear_values(xs, 1.0, alpha);
            }
            Activation::Selu if exp_main_path_covers(xs) => {
                exp_linear_values(xs, SELU_SCALE, SELU_SCALE * SELU_ALPHA);
            }
            Activation::Softmax => panic!("softmax is not elementwise; use apply_row"),
            _ => with_variant!(*self, act => {
                for v in xs.iter_mut() {
                    *v = act.apply(*v);
                }
            }),
        }
    }

    /// [`Activation::value_and_derivative`] over a slice: each `xs[i]`
    /// becomes `f(xs[i])` and `ds[i]` receives `f'(xs[i])`, bit for bit,
    /// through the same vector pass and fallback as
    /// [`Activation::apply_slice`].
    ///
    /// # Panics
    /// Panics for [`Activation::Softmax`] or if the lengths differ.
    pub(crate) fn value_and_derivative_slice(&self, xs: &mut [f64], ds: &mut [f64]) {
        assert_eq!(xs.len(), ds.len(), "value and derivative lengths differ");
        match *self {
            Activation::Elu { alpha } if exp_main_path_covers(xs) => {
                exp_linear_values_and_derivatives(xs, ds, 1.0, alpha);
            }
            Activation::Selu if exp_main_path_covers(xs) => {
                exp_linear_values_and_derivatives(xs, ds, SELU_SCALE, SELU_SCALE * SELU_ALPHA);
            }
            Activation::Softmax => panic!("softmax derivative requires the row Jacobian"),
            _ => with_variant!(*self, act => {
                for (v, d) in xs.iter_mut().zip(ds.iter_mut()) {
                    (*v, *d) = act.value_and_derivative(*v);
                }
            }),
        }
    }

    /// Applies the activation to one row of pre-activations in place.
    pub fn apply_row(&self, row: &mut [f64]) {
        if let Activation::Softmax = self {
            let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        } else {
            self.apply_slice(row);
        }
    }

    /// Computes `dL/dz` for one row given the activated outputs `a` and the
    /// upstream gradient `dL/da`, writing into `out`.
    ///
    /// For elementwise activations this is `dL/da * f'(z)` where `z` is the
    /// cached pre-activation; for softmax it applies the row Jacobian
    /// `diag(a) - a a^T`.
    pub fn backward_row(&self, z: &[f64], a: &[f64], upstream: &[f64], out: &mut [f64]) {
        match self {
            Activation::Softmax => {
                let dot: f64 = a.iter().zip(upstream).map(|(&ai, &ui)| ai * ui).sum();
                for i in 0..out.len() {
                    out[i] = a[i] * (upstream[i] - dot);
                }
            }
            _ => with_variant!(*self, act => {
                for i in 0..out.len() {
                    out[i] = upstream[i] * act.derivative(z[i]);
                }
            }),
        }
    }

    /// Name used in reports and serialized configs.
    pub fn name(&self) -> &'static str {
        match self {
            Activation::Linear => "linear",
            Activation::Relu => "relu",
            Activation::LeakyRelu { .. } => "leaky_relu",
            Activation::Elu { .. } => "elu",
            Activation::Selu => "selu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Softplus => "softplus",
            Activation::Softsign => "softsign",
            Activation::Softmax => "softmax",
        }
    }
}

/// True when every non-positive element of `xs` lies on the main path
/// of [`exp64::exp_in_range`], so the ELU/SELU vector pass is exact for
/// the whole slice. One read-only pass, branch-free so it vectorizes.
fn exp_main_path_covers(xs: &[f64]) -> bool {
    xs.iter().fold(true, |covered, &x| {
        covered & ((x > 0.0) | exp64::in_range(x))
    })
}

/// `if take { a } else { b }` as a bit-mask blend, so the pass stays
/// branch-free whatever the optimizer decides. Both arms are evaluated
/// for every element: an `if` that evaluated `e^x` on its non-positive
/// arm only compiled to a branch that mispredicts on every sign change,
/// and ran a sweep's SELU passes ~5× slower.
#[inline(always)]
fn select(take: bool, a: f64, b: f64) -> f64 {
    let m = u64::from(take).wrapping_neg();
    f64::from_bits((a.to_bits() & m) | (b.to_bits() & !m))
}

/// `x > 0 ? pos·x : neg·(e^x − 1)` in place: ELU is `(1, α)`, SELU
/// `(scale, scale·α)`, the products [`Activation::apply`] evaluates
/// (`1·x` is `x` for every `x > 0`). Exact only where
/// [`exp_main_path_covers`] holds.
#[inline(always)]
fn exp_linear_values(xs: &mut [f64], pos: f64, neg: f64) {
    for v in xs {
        let x = *v;
        let e = exp64::exp_in_range(x);
        *v = select(x > 0.0, pos * x, neg * (e - 1.0));
    }
}

/// [`exp_linear_values`] plus the derivative `x > 0 ? pos : neg·e^x`
/// into `ds`, from the one `e^x`.
#[inline(always)]
fn exp_linear_values_and_derivatives(xs: &mut [f64], ds: &mut [f64], pos: f64, neg: f64) {
    for (v, d) in xs.iter_mut().zip(ds) {
        let x = *v;
        let e = exp64::exp_in_range(x);
        *v = select(x > 0.0, pos * x, neg * (e - 1.0));
        *d = select(x > 0.0, pos, neg * e);
    }
}

/// Evaluates `$body` with `$v` bound to `$act` rebuilt as a literal
/// variant, one `match` arm per activation. Closures over `$v` then
/// monomorphize per arm with the `match` inside [`Activation::apply`]
/// and [`Activation::value_and_derivative`] folded away, so an element
/// loop pays no per-element dispatch — the f64 counterpart of the
/// per-variant instantiation in `infer::PackedLayer::run`.
macro_rules! with_variant {
    ($act:expr, $v:ident => $body:expr) => {
        match $act {
            Activation::Linear => {
                let $v = Activation::Linear;
                $body
            }
            Activation::Relu => {
                let $v = Activation::Relu;
                $body
            }
            Activation::LeakyRelu { alpha } => {
                let $v = Activation::LeakyRelu { alpha };
                $body
            }
            Activation::Elu { alpha } => {
                let $v = Activation::Elu { alpha };
                $body
            }
            Activation::Selu => {
                let $v = Activation::Selu;
                $body
            }
            Activation::Sigmoid => {
                let $v = Activation::Sigmoid;
                $body
            }
            Activation::Tanh => {
                let $v = Activation::Tanh;
                $body
            }
            Activation::Softplus => {
                let $v = Activation::Softplus;
                $body
            }
            Activation::Softsign => {
                let $v = Activation::Softsign;
                $body
            }
            Activation::Softmax => {
                let $v = Activation::Softmax;
                $body
            }
        }
    };
}
pub(crate) use with_variant;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) const ELEMENTWISE: [Activation; 9] = [
        Activation::Linear,
        Activation::Relu,
        Activation::LeakyRelu { alpha: 0.01 },
        Activation::Elu { alpha: 1.0 },
        Activation::Selu,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Softplus,
        Activation::Softsign,
    ];

    #[test]
    fn selu_matches_paper_constants() {
        // Positive branch: scale * x.
        assert!((Activation::Selu.apply(2.0) - SELU_SCALE * 2.0).abs() < 1e-12);
        // Negative branch: scale * alpha * (e^x - 1).
        let expect = SELU_SCALE * SELU_ALPHA * ((-1.0f64).exp() - 1.0);
        assert!((Activation::Selu.apply(-1.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn selu_fixed_point_near_zero() {
        // SELU(0) == 0 and the function is continuous there.
        assert_eq!(Activation::Selu.apply(0.0), 0.0);
        let eps = 1e-9;
        assert!((Activation::Selu.apply(eps) - Activation::Selu.apply(-eps)).abs() < 1e-6);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in ELEMENTWISE {
            for &x in &[-2.0, -0.5, 0.3, 1.7] {
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "{} at {x}: numeric {numeric} vs analytic {analytic}",
                    act.name()
                );
            }
        }
    }

    /// Inputs at the edges of every branch: signed zeros, subnormals,
    /// tiny and moderate values, where `exp` overflows (710) or its
    /// result is subnormal (-710), infinities and NaN.
    pub(crate) const EDGE_INPUTS: [f64; 16] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1e-300,
        -1e-300,
        0.5,
        -0.5,
        700.0,
        -700.0,
        710.0,
        -710.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];

    /// The edge inputs plus a grid through the range where hidden
    /// pre-activations live, so a reassociated product shows up.
    #[test]
    fn value_and_derivative_equal_apply_and_derivative_bitwise() {
        let grid = (-80..=80).map(|i| f64::from(i) * 0.0625 + 0.01);
        for act in ELEMENTWISE {
            for x in EDGE_INPUTS.into_iter().chain(grid.clone()) {
                let (v, d) = act.value_and_derivative(x);
                assert_eq!(
                    v.to_bits(),
                    act.apply(x).to_bits(),
                    "{} value at {x}",
                    act.name()
                );
                assert_eq!(
                    d.to_bits(),
                    act.derivative(x).to_bits(),
                    "{} derivative at {x}",
                    act.name()
                );
            }
        }
    }

    /// Pre-activations on the main path of `exp`, both signs, an odd
    /// count so the vector loop has a tail.
    fn main_path_values() -> Vec<f64> {
        (-300..=300)
            .map(|i| f64::from(i) * 0.037 + 0.0113)
            .collect()
    }

    /// `apply_slice` and `value_and_derivative_slice` on `xs` against
    /// the scalar functions, bit for bit.
    fn assert_slice_passes_match_scalar(act: Activation, xs: &[f64]) {
        let mut values = xs.to_vec();
        act.apply_slice(&mut values);
        let (mut both, mut ds) = (xs.to_vec(), vec![0.0; xs.len()]);
        act.value_and_derivative_slice(&mut both, &mut ds);
        for (i, &x) in xs.iter().enumerate() {
            let (v, d) = act.value_and_derivative(x);
            let what = format!("{} at xs[{i}] = {x:e}", act.name());
            assert_eq!(values[i].to_bits(), act.apply(x).to_bits(), "{what}");
            assert_eq!(both[i].to_bits(), v.to_bits(), "{what}");
            assert_eq!(ds[i].to_bits(), d.to_bits(), "{what}");
        }
    }

    const EXP_FAMILY: [Activation; 3] = [
        Activation::Selu,
        Activation::Elu { alpha: 1.0 },
        Activation::Elu { alpha: 0.3 },
    ];

    /// Without edge inputs ELU and SELU take the vector pass, and the
    /// positive values off `exp`'s main path (subnormal, tiny, huge,
    /// infinite) do not send it to the scalar loop.
    #[test]
    fn vector_pass_equals_scalar_bitwise() {
        let mut xs = main_path_values();
        assert!(exp_main_path_covers(&xs));
        for act in EXP_FAMILY {
            assert_slice_passes_match_scalar(act, &xs);
        }
        let positive_edges = EDGE_INPUTS.into_iter().filter(|&x| x > 0.0);
        for (k, x) in positive_edges.enumerate() {
            xs[7 * k + 3] = x;
        }
        assert!(exp_main_path_covers(&xs));
        for act in EXP_FAMILY {
            assert_slice_passes_match_scalar(act, &xs);
        }
    }

    /// Each non-positive edge input off `exp`'s main path sends its
    /// slice to the scalar loop, alone or mixed with the rest, and the
    /// result is still bitwise the scalar one; every other activation's
    /// slice pass is its scalar loop.
    #[test]
    fn fallback_pass_equals_scalar_bitwise() {
        let off_path = |x: f64| !(x > 0.0 || exp64::in_range(x));
        for edge in EDGE_INPUTS.into_iter().filter(|&x| off_path(x)) {
            let mut xs = main_path_values();
            xs[100] = edge;
            assert!(!exp_main_path_covers(&xs), "{edge:e} must fall back");
            for act in EXP_FAMILY {
                assert_slice_passes_match_scalar(act, &xs);
            }
        }
        let mut xs = main_path_values();
        for (k, x) in EDGE_INPUTS.into_iter().enumerate() {
            xs[13 * k + 1] = x;
        }
        for act in ELEMENTWISE {
            assert_slice_passes_match_scalar(act, &xs);
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
    }

    #[test]
    fn sigmoid_bounded() {
        for &x in &[-50.0, -1.0, 0.0, 1.0, 50.0] {
            let s = Activation::Sigmoid.apply(x);
            assert!((0.0..=1.0).contains(&s));
        }
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn softplus_stable_for_large_inputs() {
        let v = Activation::Softplus.apply(1000.0);
        assert!((v - 1000.0).abs() < 1e-9);
        assert!(Activation::Softplus.apply(-1000.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_row_sums_to_one() {
        let mut row = vec![1.0, 2.0, 3.0, 1000.0];
        Activation::Softmax.apply_row(&mut row);
        let sum: f64 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn softmax_backward_jacobian_matches_finite_difference() {
        let z = vec![0.3, -0.2, 0.8];
        let upstream = vec![1.0, -0.5, 0.25];
        let mut a = z.clone();
        Activation::Softmax.apply_row(&mut a);
        let mut analytic = vec![0.0; 3];
        Activation::Softmax.backward_row(&z, &a, &upstream, &mut analytic);

        let h = 1e-6;
        for i in 0..3 {
            let mut zp = z.clone();
            zp[i] += h;
            let mut zm = z.clone();
            zm[i] -= h;
            Activation::Softmax.apply_row(&mut zp);
            Activation::Softmax.apply_row(&mut zm);
            let mut numeric = 0.0;
            for j in 0..3 {
                numeric += upstream[j] * (zp[j] - zm[j]) / (2.0 * h);
            }
            assert!((numeric - analytic[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn elementwise_backward_row_uses_derivative() {
        let z = vec![-1.0, 0.5];
        let a: Vec<f64> = z.iter().map(|&x| Activation::Selu.apply(x)).collect();
        let upstream = vec![2.0, 3.0];
        let mut out = vec![0.0; 2];
        Activation::Selu.backward_row(&z, &a, &upstream, &mut out);
        assert!((out[0] - 2.0 * Activation::Selu.derivative(-1.0)).abs() < 1e-12);
        assert!((out[1] - 3.0 * Activation::Selu.derivative(0.5)).abs() < 1e-12);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Activation::Selu.name(), "selu");
        assert_eq!(Activation::LeakyRelu { alpha: 0.1 }.name(), "leaky_relu");
    }
}
