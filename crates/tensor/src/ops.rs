//! Elementwise and BLAS-1 style operations.

use crate::error::{ShapeError, TensorResult};
use crate::matrix::Matrix;

/// Returns `a + b` elementwise.
pub fn add(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    zip_with("add", a, b, |x, y| x + y)
}

/// Returns `a - b` elementwise.
pub fn sub(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    zip_with("sub", a, b, |x, y| x - y)
}

/// Returns `a * s` for a scalar `s`.
pub fn scale(a: &Matrix, s: f64) -> Matrix {
    a.map(|x| x * s)
}

/// In-place `a += b` elementwise, shape checked.
///
/// The accumulation kernel of the fixed-shard gradient reduction: each
/// combine step of `crate::reduce::tree_combine` folds one shard's
/// partial sums into another with exactly this left-to-right elementwise
/// add, so serial and parallel reductions execute the identical sequence
/// of floating-point operations.
pub fn add_assign(a: &mut Matrix, b: &Matrix) -> TensorResult<()> {
    if a.shape() != b.shape() {
        return Err(ShapeError::new("add_assign", a.shape(), b.shape()));
    }
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
    Ok(())
}

/// Adds a `1 x cols` row-vector `bias` to every row of `a` (broadcast).
pub fn add_row_broadcast(a: &Matrix, bias: &Matrix) -> TensorResult<Matrix> {
    if bias.rows() != 1 || bias.cols() != a.cols() {
        return Err(ShapeError::new(
            "add_row_broadcast",
            a.shape(),
            bias.shape(),
        ));
    }
    let mut out = a.clone();
    let b = bias.as_slice();
    let cols = a.cols();
    for r in 0..a.rows() {
        let row = out.row_mut(r);
        for c in 0..cols {
            row[c] += b[c];
        }
    }
    Ok(out)
}

/// Sums the rows of `a` into a `1 x cols` row vector.
pub fn sum_rows(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, a.cols());
    for r in 0..a.rows() {
        let row = a.row(r);
        let acc = out.row_mut(0);
        for c in 0..a.cols() {
            acc[c] += row[c];
        }
    }
    out
}

/// Multiplies every element of `a` by `s` in place. Bitwise-identical to
/// [`scale`] (same per-element `x * s`).
pub fn scale_in_place(a: &mut Matrix, s: f64) {
    for x in a.as_mut_slice() {
        *x *= s;
    }
}

/// Sums the rows of `a` into `out`, which must be `1 x a.cols()`.
/// Allocation-free sibling of [`sum_rows`]; accumulates rows top-to-bottom
/// from `0.0`, so results are bitwise-identical.
pub fn sum_rows_into(a: &Matrix, out: &mut Matrix) -> TensorResult<()> {
    if out.rows() != 1 || out.cols() != a.cols() {
        return Err(ShapeError::new("sum_rows_into", (1, a.cols()), out.shape()));
    }
    out.as_mut_slice().fill(0.0);
    for r in 0..a.rows() {
        let row = a.row(r);
        let acc = out.row_mut(0);
        for (a_c, &r_c) in acc.iter_mut().zip(row) {
            *a_c += r_c;
        }
    }
    Ok(())
}

/// Copies the rows of `src` selected by `indices` (in order, duplicates
/// allowed) into `out`, resizing it to `indices.len() x src.cols()`.
/// Allocation-free sibling of [`Matrix::select_rows`] once `out` has
/// capacity for the largest gather.
///
/// # Panics
/// Panics if any index is out of bounds (same contract as `select_rows`).
pub fn gather_rows_into(src: &Matrix, indices: &[usize], out: &mut Matrix) {
    out.resize_to(indices.len(), src.cols());
    for (slot, &i) in indices.iter().enumerate() {
        out.row_mut(slot).copy_from_slice(src.row(i));
    }
}

fn zip_with(
    op: &'static str,
    a: &Matrix,
    b: &Matrix,
    f: impl Fn(f64, f64) -> f64,
) -> TensorResult<Matrix> {
    if a.shape() != b.shape() {
        return Err(ShapeError::new(op, a.shape(), b.shape()));
    }
    let data: Vec<f64> = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[0.5, 0.5, 0.5, 0.5]);
        let s = add(&a, &b).unwrap();
        let back = sub(&s, &b).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(add(&a, &b).is_err());
        assert!(sub(&a, &b).is_err());
    }

    #[test]
    fn scale_multiplies_scalar() {
        let a = m(1, 2, &[1.5, -2.0]);
        assert_eq!(scale(&a, 2.0).as_slice(), &[3.0, -4.0]);
    }

    #[test]
    fn broadcast_adds_bias_to_each_row() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(1, 2, &[10.0, 20.0]);
        let out = add_row_broadcast(&a, &b).unwrap();
        assert_eq!(out.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn broadcast_rejects_bad_bias_shape() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 2);
        assert!(add_row_broadcast(&a, &b).is_err());
    }

    #[test]
    fn sum_rows_collapses() {
        let a = m(3, 2, &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        assert_eq!(sum_rows(&a).as_slice(), &[6.0, 60.0]);
    }

    #[test]
    fn scale_in_place_matches_scale() {
        let a = m(1, 3, &[1.5, -2.0, 0.25]);
        let expect = scale(&a, -3.0);
        let mut got = a.clone();
        scale_in_place(&mut got, -3.0);
        assert_eq!(got, expect);
    }

    #[test]
    fn sum_rows_into_matches_sum_rows() {
        let a = m(3, 2, &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        let mut out = Matrix::full(1, 2, f64::NAN);
        sum_rows_into(&a, &mut out).unwrap();
        assert_eq!(out, sum_rows(&a));
        let mut bad = Matrix::zeros(2, 2);
        assert!(sum_rows_into(&a, &mut bad).is_err());
    }

    #[test]
    fn gather_rows_into_matches_select_rows() {
        let src = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = Matrix::zeros(8, 2); // oversized: gather shrinks it
        let ptr = out.as_slice().as_ptr();
        gather_rows_into(&src, &[2, 0, 2], &mut out);
        assert_eq!(out, src.select_rows(&[2, 0, 2]));
        assert_eq!(
            out.as_slice().as_ptr(),
            ptr,
            "gather within capacity must not reallocate"
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rows_into_panics_on_oob() {
        let src = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let mut out = Matrix::zeros(1, 2);
        gather_rows_into(&src, &[5], &mut out);
    }
}
