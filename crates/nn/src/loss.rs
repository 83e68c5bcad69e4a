//! Loss functions: value and gradient with respect to predictions.

use serde::{Deserialize, Serialize};
use tensor::Matrix;

/// A differentiable training loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Loss {
    /// Mean squared error, `mean((pred - target)^2)` — the paper's choice.
    Mse,
    /// Mean absolute error, `mean(|pred - target|)`.
    Mae,
    /// Huber loss with delta = 1 (quadratic near zero, linear in the tails).
    Huber,
}

impl Loss {
    /// Scalar loss over a whole batch.
    ///
    /// # Panics
    /// Panics if shapes differ or the batch is empty.
    pub fn value(&self, pred: &Matrix, target: &Matrix) -> f64 {
        assert_eq!(pred.shape(), target.shape(), "loss operand shapes differ");
        let n = pred.len();
        assert!(n > 0, "loss of empty batch");
        let acc: f64 = pred
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&p, &t)| self.point(p, t))
            .sum();
        acc / n as f64
    }

    /// Raw per-element loss sum (no `1/n` normalization) over a shard.
    ///
    /// The fixed-shard training engine computes this per shard, combines
    /// the partials with the pairwise reduction tree, and divides by the
    /// full batch's element count once at the root — so the batch loss is
    /// independent of how the batch was sharded. Unlike [`Loss::value`],
    /// an empty shard is a valid (zero) sum.
    pub fn total(&self, pred: &Matrix, target: &Matrix) -> f64 {
        assert_eq!(pred.shape(), target.shape(), "loss operand shapes differ");
        pred.as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&p, &t)| self.point(p, t))
            .sum()
    }

    /// Writes the backprop seed for one *shard* of a batch into `out`:
    /// `point_grad(p, t) / cols`, where `cols` is the output width.
    ///
    /// Combined with the per-row averaging a layer backward pass would
    /// apply, `point_grad / (rows * cols)` is the gradient of the mean
    /// over elements — but the shard engine keeps its layer sums *raw*
    /// and divides by the full batch's row count once after reduction, so
    /// only the column normalization happens here. A single division per
    /// element, identical no matter how the batch is sharded.
    pub fn shard_gradient_into(&self, pred: &Matrix, target: &Matrix, out: &mut Matrix) {
        assert_eq!(pred.shape(), target.shape(), "loss operand shapes differ");
        let cols = pred.cols().max(1) as f64;
        out.resize_to(pred.rows(), pred.cols());
        for ((o, &p), &t) in out
            .as_mut_slice()
            .iter_mut()
            .zip(pred.as_slice())
            .zip(target.as_slice())
        {
            *o = self.point_grad(p, t) / cols;
        }
    }

    fn point(&self, p: f64, t: f64) -> f64 {
        let d = p - t;
        match self {
            Loss::Mse => d * d,
            Loss::Mae => d.abs(),
            Loss::Huber => {
                if d.abs() <= 1.0 {
                    0.5 * d * d
                } else {
                    d.abs() - 0.5
                }
            }
        }
    }

    fn point_grad(&self, p: f64, t: f64) -> f64 {
        let d = p - t;
        match self {
            Loss::Mse => 2.0 * d,
            Loss::Mae => {
                if d > 0.0 {
                    1.0
                } else if d < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            Loss::Huber => d.clamp(-1.0, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(v: &[f64]) -> Matrix {
        Matrix::row_vector(v)
    }

    #[test]
    fn mse_of_exact_prediction_is_zero() {
        let p = m(&[1.0, 2.0]);
        assert_eq!(Loss::Mse.value(&p, &p), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let p = m(&[1.0, 3.0]);
        let t = m(&[0.0, 1.0]);
        // (1 + 4) / 2
        assert_eq!(Loss::Mse.value(&p, &t), 2.5);
    }

    #[test]
    fn mae_known_value() {
        let p = m(&[1.0, -3.0]);
        let t = m(&[0.0, 1.0]);
        assert_eq!(Loss::Mae.value(&p, &t), 2.5);
    }

    #[test]
    fn huber_transitions_at_one() {
        let small = Loss::Huber.value(&m(&[0.5]), &m(&[0.0]));
        assert!((small - 0.125).abs() < 1e-12);
        let large = Loss::Huber.value(&m(&[3.0]), &m(&[0.0]));
        assert!((large - 2.5).abs() < 1e-12);
    }

    /// The shard seed over the row count is `dL/dpred` of the batch mean
    /// (the trainer's root applies that `1/rows` once per batch).
    #[test]
    fn gradients_match_finite_differences() {
        let t = Matrix::from_vec(2, 3, vec![0.3, -0.7, 1.5, 0.1, 0.9, -2.0]).unwrap();
        let p = Matrix::from_vec(2, 3, vec![0.5, 0.5, 0.5, -0.2, 0.4, 0.0]).unwrap();
        let h = 1e-6;
        for loss in [Loss::Mse, Loss::Mae, Loss::Huber] {
            let mut g = Matrix::zeros(4, 4); // wrong shape: the seed resizes
            loss.shard_gradient_into(&p, &t, &mut g);
            assert_eq!(g.shape(), p.shape());
            for i in 0..p.len() {
                let mut pp = p.clone();
                pp.as_mut_slice()[i] += h;
                let mut pm = p.clone();
                pm.as_mut_slice()[i] -= h;
                let numeric = (loss.value(&pp, &t) - loss.value(&pm, &t)) / (2.0 * h);
                let analytic = g.as_slice()[i] / p.rows() as f64;
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{loss:?} idx {i}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "shapes differ")]
    fn mismatched_shapes_panic() {
        let _ = Loss::Mse.value(&Matrix::zeros(1, 2), &Matrix::zeros(2, 1));
    }

    #[test]
    fn total_is_the_unnormalized_value() {
        let p = Matrix::from_vec(2, 2, vec![1.0, 3.0, -1.0, 0.5]).unwrap();
        let t = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.5]).unwrap();
        for loss in [Loss::Mse, Loss::Mae, Loss::Huber] {
            let total = loss.total(&p, &t);
            assert_eq!(total / p.len() as f64, loss.value(&p, &t));
        }
        // Empty shards contribute a zero partial (value would panic).
        assert_eq!(
            Loss::Mse.total(&Matrix::zeros(0, 2), &Matrix::zeros(0, 2)),
            0.0
        );
    }
}
