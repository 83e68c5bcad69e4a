//! Fully-connected (dense) layer: parameters plus the forward and
//! backward kernels the workspace engine drives.

use crate::activation::Activation;
use serde::{Deserialize, Serialize};
use tensor::{matmul, ops, Matrix};

/// A dense layer computing `a = act(x @ W + b)`.
///
/// `W` is `(in_dim x out_dim)`, `b` is `(1 x out_dim)`. The layer holds
/// only its parameters; every intermediate of a training step lives in the
/// caller's [`crate::Workspace`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    weights: Matrix,
    bias: Matrix,
    activation: Activation,
}

impl Dense {
    /// Creates a layer from explicit parameters.
    ///
    /// # Panics
    /// Panics if `bias` is not `1 x weights.cols()`.
    pub fn new(weights: Matrix, bias: Matrix, activation: Activation) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), weights.cols(), "bias width must match weights");
        Self {
            weights,
            bias,
            activation,
        }
    }

    /// Creates a layer with LeCun-normal weights and zero bias — the
    /// initialization required for SELU self-normalization and a sound
    /// default for the other activations at these widths.
    pub fn init(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut impl rand::Rng,
    ) -> Self {
        let weights = tensor::init::lecun_normal(in_dim, out_dim, rng);
        let bias = Matrix::zeros(1, out_dim);
        Self::new(weights, bias, activation)
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable access to the weights.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Immutable access to the bias.
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// Mutable access to the weights (used by optimizers).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Mutable access to the bias (used by optimizers).
    pub fn bias_mut(&mut self) -> &mut Matrix {
        &mut self.bias
    }

    /// Inference forward pass for a `(batch x in_dim)` input, returning the
    /// `(batch x out_dim)` activations.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(input.rows(), self.out_dim());
        self.apply_into(input, &mut out);
        out
    }

    /// Workspace forward pass: writes the activation `f(z)` into `out`
    /// and what backprop needs of `z` into `pre`, resizing both
    /// (allocation-free within capacity). For an elementwise activation
    /// `pre` receives the derivative `f'(z)`, computed together with
    /// `f(z)` in one pass over the layer output
    /// ([`Activation::value_and_derivative_slice`]) so backprop never
    /// evaluates `f'` again; for softmax it receives `z`.
    ///
    /// # Panics
    /// Panics if `input.cols() != in_dim`.
    pub(crate) fn forward_into(&self, input: &Matrix, pre: &mut Matrix, out: &mut Matrix) {
        pre.resize_to(input.rows(), self.out_dim());
        out.resize_to(input.rows(), self.out_dim());
        let b = self.bias.as_slice();
        if let Activation::Softmax = self.activation {
            // Softmax is row-wise, not elementwise: finish the affine pass
            // first, then apply the row transform to a copy.
            matmul::matmul_bias_into(input, &self.weights, b, pre)
                .expect("layer/input width mismatch");
            out.copy_from(pre);
            for r in 0..out.rows() {
                self.activation.apply_row(out.row_mut(r));
            }
            return;
        }
        matmul::matmul_bias_into(input, &self.weights, b, out).expect("layer/input width mismatch");
        self.activation
            .value_and_derivative_slice(out.as_mut_slice(), pre.as_mut_slice());
    }

    /// Inference forward pass into a single reused buffer (no
    /// derivative kept): `out = act(input W + b)`, resizing `out`.
    ///
    /// The bias is added as the register tiles spill
    /// ([`matmul::matmul_bias_into`]); the activation then runs as its
    /// own pass over `out` ([`Activation::apply_slice`]), the shape
    /// [`Dense::forward_into`] has, so no `exp` forces the tile's
    /// accumulators out of registers. For SELU the pass is one vector
    /// loop with no libm call ([`tensor::exp64`]): the f64 61-state sweep
    /// (`nn_forward_61_states/engine_f64`) measured ~54 µs against ~79 µs
    /// with a per-element loop calling `f64::exp` (criterion medians of
    /// five alternating runs, 2-vCPU Xeon). The result is bitwise-identical
    /// to the unfused sequence (same accumulation order, bias added after
    /// the full sum, then [`Activation::apply`] per element).
    ///
    /// # Panics
    /// Panics if `input.cols() != in_dim`.
    pub(crate) fn apply_into(&self, input: &Matrix, out: &mut Matrix) {
        out.resize_to(input.rows(), self.out_dim());
        matmul::matmul_bias_into(input, &self.weights, self.bias.as_slice(), out)
            .expect("layer/input width mismatch");
        if let Activation::Softmax = self.activation {
            // Softmax is row-wise, not elementwise.
            for r in 0..out.rows() {
                self.activation.apply_row(out.row_mut(r));
            }
        } else {
            self.activation.apply_slice(out.as_mut_slice());
        }
    }

    /// Backward pass leaving the parameter gradients as *raw sums* over
    /// the rows — no `1/batch` averaging. This is the per-shard kernel of
    /// the data-parallel engine: every row of a shard contributes its raw
    /// `x^T delta` / column-sum terms, the shards' sums are combined with
    /// a fixed pairwise tree, and the engine scales by `1/batch` once at
    /// the root. `pre` is what [`Dense::forward_into`] left there: `f'(z)`,
    /// or `z` for softmax.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backward_sums_into(
        &self,
        input: &Matrix,
        pre: &Matrix,
        output: &Matrix,
        upstream: &Matrix,
        delta: &mut Matrix,
        grad_w: &mut Matrix,
        grad_b: &mut Matrix,
        down: Option<&mut Matrix>,
    ) {
        // delta = dL/dz: upstream ⊙ f'(z), or the softmax row Jacobian.
        delta.resize_to(upstream.rows(), upstream.cols());
        if let Activation::Softmax = self.activation {
            for r in 0..upstream.rows() {
                self.activation.backward_row(
                    pre.row(r),
                    output.row(r),
                    upstream.row(r),
                    delta.row_mut(r),
                );
            }
        } else {
            let pairs = upstream.as_slice().iter().zip(pre.as_slice());
            for (d, (&u, &g)) in delta.as_mut_slice().iter_mut().zip(pairs) {
                *d = u * g;
            }
        }

        // Raw dL/dW sum = x^T delta ; raw dL/db sum = column sums of delta.
        matmul::matmul_at_b_into(input, delta, grad_w).expect("shapes from workspace");
        ops::sum_rows_into(delta, grad_b).expect("shapes from workspace");

        // dL/dx = delta W^T.
        if let Some(d) = down {
            d.resize_to(upstream.rows(), self.in_dim());
            matmul::matmul_a_bt_into(delta, &self.weights, d).expect("shapes from workspace");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer_2x3() -> Dense {
        let w = Matrix::from_vec(2, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]).unwrap();
        let b = Matrix::from_vec(1, 3, vec![0.01, 0.02, 0.03]).unwrap();
        Dense::new(w, b, Activation::Linear)
    }

    /// One training step's kernels on a single layer: [`Dense::forward_into`]
    /// then [`Dense::backward_sums_into`] from the upstream gradient that
    /// `upstream` derives from the activations. The parameter sums are
    /// scaled by `1/batch`, as the trainer's reduction root does. Returns
    /// `(activations, dL/dW, dL/db, dL/dx)`.
    fn backprop(
        l: &Dense,
        x: &Matrix,
        upstream: impl Fn(&Matrix) -> Matrix,
    ) -> (Matrix, Matrix, Matrix, Matrix) {
        let (mut pre, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        l.forward_into(x, &mut pre, &mut out);
        let up = upstream(&out);
        let mut delta = Matrix::zeros(0, 0);
        let mut grad_w = Matrix::zeros(l.in_dim(), l.out_dim());
        let mut grad_b = Matrix::zeros(1, l.out_dim());
        let mut down = Matrix::zeros(0, 0);
        l.backward_sums_into(
            x,
            &pre,
            &out,
            &up,
            &mut delta,
            &mut grad_w,
            &mut grad_b,
            Some(&mut down),
        );
        let inv = 1.0 / x.rows() as f64;
        ops::scale_in_place(&mut grad_w, inv);
        ops::scale_in_place(&mut grad_b, inv);
        (out, grad_w, grad_b, down)
    }

    #[test]
    fn forward_computes_affine_for_linear() {
        let l = layer_2x3();
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
        let y = l.infer(&x);
        // [1,2] @ W + b = [0.1+0.8, 0.2+1.0, 0.3+1.2] + b
        assert!((y[(0, 0)] - 0.91).abs() < 1e-12);
        assert!((y[(0, 1)] - 1.22).abs() < 1e-12);
        assert!((y[(0, 2)] - 1.53).abs() < 1e-12);
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = Dense::init(4, 5, Activation::Selu, &mut rng);
        let x = tensor::init::uniform(3, 4, -1.0, 1.0, &mut rng);
        let (mut pre, mut a) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        l.forward_into(&x, &mut pre, &mut a);
        let b = l.infer(&x);
        assert_eq!(a, b);
    }

    /// The training forward pass keeps `f(z)` in `out` and `f'(z)` in
    /// `pre`, bit for bit what `apply` and `derivative` return at the
    /// affine result `z` (computed here by the naive kernel), for every
    /// elementwise activation at inputs on the edges of every branch.
    #[test]
    fn forward_keeps_value_and_derivative_bitwise() {
        use crate::activation::tests::{EDGE_INPUTS, ELEMENTWISE};
        let x = Matrix::col_vector(&EDGE_INPUTS);
        let w = Matrix::from_vec(1, 3, vec![1.0, -1.0, 0.5]).unwrap();
        let b = Matrix::from_vec(1, 3, vec![0.0, 0.25, -0.0]).unwrap();
        let z = ops::add_row_broadcast(&matmul::matmul_naive(&x, &w).unwrap(), &b).unwrap();
        for act in ELEMENTWISE {
            let l = Dense::new(w.clone(), b.clone(), act);
            let (mut pre, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            l.forward_into(&x, &mut pre, &mut out);
            for (i, &zi) in z.as_slice().iter().enumerate() {
                let what = format!("{} at z = {zi}", act.name());
                assert_eq!(
                    out.as_slice()[i].to_bits(),
                    act.apply(zi).to_bits(),
                    "{what}"
                );
                let d = act.derivative(zi);
                assert_eq!(pre.as_slice()[i].to_bits(), d.to_bits(), "{what}");
            }
        }
    }

    /// Finite-difference check of all gradients through a SELU layer.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = tensor::init::uniform(5, 3, -1.0, 1.0, &mut rng);
        let target = tensor::init::uniform(5, 2, -1.0, 1.0, &mut rng);

        let loss = |l: &Dense, x: &Matrix| -> f64 {
            let y = l.infer(x);
            let mut acc = 0.0;
            for (p, t) in y.as_slice().iter().zip(target.as_slice()) {
                acc += (p - t) * (p - t);
            }
            acc / (2.0 * y.rows() as f64)
        };

        let l = Dense::init(3, 2, Activation::Selu, &mut rng);
        // dL/da for L = sum((a-t)^2) / (2 batch), times batch: the raw
        // per-row seed whose sums the root scaling averages.
        let (_, grad_w, grad_b, _) = backprop(&l, &x, |y| ops::sub(y, &target).unwrap());

        let h = 1e-6;
        for idx in 0..l.weights().len() {
            let mut lp = l.clone();
            lp.weights_mut().as_mut_slice()[idx] += h;
            let mut lm = l.clone();
            lm.weights_mut().as_mut_slice()[idx] -= h;
            let numeric = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
            let analytic = grad_w.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "weight {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
        for idx in 0..l.bias().len() {
            let mut lp = l.clone();
            lp.bias_mut().as_mut_slice()[idx] += h;
            let mut lm = l.clone();
            lm.bias_mut().as_mut_slice()[idx] -= h;
            let numeric = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
            let analytic = grad_b.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "bias {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Check dL/dx against finite differences.
    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let l = Dense::init(3, 2, Activation::Tanh, &mut rng);
        let x = tensor::init::uniform(2, 3, -1.0, 1.0, &mut rng);
        let target = tensor::init::uniform(2, 2, -1.0, 1.0, &mut rng);

        let loss = |l: &Dense, x: &Matrix| -> f64 {
            let y = l.infer(x);
            y.as_slice()
                .iter()
                .zip(target.as_slice())
                .map(|(p, t)| (p - t) * (p - t))
                .sum::<f64>()
                / (2.0 * y.rows() as f64)
        };

        let (y, _, _, dx) = backprop(&l, &x, |y| ops::sub(y, &target).unwrap());

        let h = 1e-6;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= h;
            // Batch averaging: dL/dx stays unscaled by the root (only the
            // parameter sums are), so divide here to match `loss` above.
            let numeric = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * h);
            let analytic = dx.as_slice()[idx] / y.rows() as f64;
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "input {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn serde_round_trip_preserves_parameters() {
        let mut rng = StdRng::seed_from_u64(6);
        let l = Dense::init(2, 2, Activation::Relu, &mut rng);
        let json = serde_json::to_string(&l).unwrap();
        let back: Dense = serde_json::from_str(&json).unwrap();
        assert_eq!(back.weights(), l.weights());
        assert_eq!(back.bias(), l.bias());
        assert_eq!(back.activation(), l.activation());
    }
}
