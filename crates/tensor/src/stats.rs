//! Column statistics and feature scaling.
//!
//! [`Standardizer`] (z-score) is fitted on a training matrix and can then
//! transform any matrix with the same column count — the usual
//! fit/transform split so validation and deployment data are scaled with
//! *training* statistics.

use crate::error::{ShapeError, TensorResult};
use crate::matrix::Matrix;
use crate::reduce;
use serde::{Deserialize, Serialize};

/// Per-column mean of a matrix.
pub fn col_means(m: &Matrix) -> Vec<f64> {
    (0..m.cols()).map(|c| reduce::mean(&m.col(c))).collect()
}

/// Per-column population standard deviation of a matrix.
pub fn col_stds(m: &Matrix) -> Vec<f64> {
    (0..m.cols()).map(|c| reduce::std_dev(&m.col(c))).collect()
}

/// Z-score scaler: `x' = (x - mean) / std`, per column.
///
/// Columns with zero variance are passed through centred but unscaled
/// (divide-by-one) so constant features do not produce NaNs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits the scaler to the columns of `m`.
    pub fn fit(m: &Matrix) -> Self {
        let means = col_means(m);
        let stds = col_stds(m)
            .into_iter()
            .map(|s| if s > 0.0 { s } else { 1.0 })
            .collect();
        Self { means, stds }
    }

    /// Number of columns the scaler was fitted on.
    pub fn num_features(&self) -> usize {
        self.means.len()
    }

    /// Transforms `m` using the fitted statistics.
    pub fn transform(&self, m: &Matrix) -> TensorResult<Matrix> {
        if m.cols() != self.means.len() {
            return Err(ShapeError::new(
                "standardize",
                m.shape(),
                (1, self.means.len()),
            ));
        }
        let mut out = m.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (v, (mean, std)) in row.iter_mut().zip(self.means.iter().zip(&self.stds)) {
                *v = (*v - mean) / std;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn standardizer_zero_mean_unit_std() {
        let x = m(4, 2, &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        let s = Standardizer::fit(&x);
        let t = s.transform(&x).unwrap();
        for c in 0..2 {
            let col = t.col(c);
            assert!(reduce::mean(&col).abs() < 1e-12);
            assert!((reduce::std_dev(&col) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn standardizer_constant_column_no_nan() {
        let x = m(3, 1, &[7.0, 7.0, 7.0]);
        let s = Standardizer::fit(&x);
        let t = s.transform(&x).unwrap();
        assert!(t.as_slice().iter().all(|v| v.is_finite()));
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn standardizer_rejects_wrong_width() {
        let x = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let s = Standardizer::fit(&x);
        assert!(s.transform(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn transform_generalizes_to_new_data() {
        let train = m(2, 1, &[0.0, 10.0]);
        let s = Standardizer::fit(&train);
        let test = m(1, 1, &[20.0]);
        // Scaled with the training mean (5) and std (5), not refitted.
        assert_eq!(s.transform(&test).unwrap().as_slice(), &[3.0]);
    }
}
