//! Matrix multiplication kernels: naive, register-tiled serial, and
//! parallel.
//!
//! The serial kernels accumulate a tile of four output rows by eight
//! output columns in registers across the whole shared dimension, so the
//! output is written once instead of read-modified-written per term, and
//! every operand value loaded feeds several independent chains; the
//! parallel kernel splits output rows across the rayon thread pool. Both
//! produce bitwise-identical results to the naive kernel (same
//! accumulation order per element), which the property tests rely on.
//!
//! Every product also has a `_into` variant that writes into a
//! caller-provided output buffer instead of allocating — the steady-state
//! training and inference hot paths use only those. [`matmul_at_b_into`]
//! (`Aᵀ·B`, weight gradients) reads both operands in their stored
//! row-major layout. [`matmul_a_bt_into`] (`A·Bᵀ`, delta propagation)
//! copies blocks of up to 64 rows of `A` transposed into a thread-local
//! buffer, so its tiles vectorize across output rows instead of along a
//! dot product. All kernels accumulate each output element over the
//! shared dimension in ascending order, so every entry point is
//! bitwise-identical to the naive oracle.

use crate::error::{ShapeError, TensorResult};
use crate::matrix::Matrix;
use rayon::prelude::*;

/// Minimum number of output rows before [`matmul`] bothers going parallel.
const PAR_ROW_THRESHOLD: usize = 64;

/// Minimum multiply-add count before the `_into` kernels go parallel. The
/// rayon pool's threads persist, but each parallel call still hands its
/// bands to a worker through the pool's queue and may have to wake it,
/// so parallelism has to amortize that hand-off, not just row count — a
/// 64-row layer matmul is far cheaper serial.
const PAR_WORK_THRESHOLD: usize = 1 << 23;

/// Computes `a @ b`, choosing the parallel kernel for large outputs and the
/// blocked serial kernel otherwise.
pub fn matmul(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    check(a, b)?;
    Ok(product(a, b, a.rows() >= PAR_ROW_THRESHOLD))
}

/// Reference triple-loop implementation. Slow; kept for testing.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    check(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aip = a[(i, p)];
            let brow = b.row(p);
            let orow = out.row_mut(i);
            for j in 0..n {
                orow[j] += aip * brow[j];
            }
        }
    }
    Ok(out)
}

/// Serial register-tile implementation (kept under its historical name).
pub fn matmul_blocked(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    check(a, b)?;
    Ok(product(a, b, false))
}

/// Row-parallel implementation on the rayon pool.
pub fn matmul_parallel(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    check(a, b)?;
    Ok(product(a, b, true))
}

/// Computes `a @ x` where `x` is a length-`cols` vector, returning a vector.
pub fn matvec(a: &Matrix, x: &[f64]) -> TensorResult<Vec<f64>> {
    if a.cols() != x.len() {
        return Err(ShapeError::new("matvec", a.shape(), (x.len(), 1)));
    }
    Ok(a.rows_iter()
        .map(|row| row.iter().zip(x).map(|(&p, &q)| p * q).sum())
        .collect())
}

/// Computes `a @ b` into `out` without allocating. `out` must already have
/// shape `(a.rows, b.cols)`; its prior contents are overwritten.
///
/// Bitwise-identical to [`matmul`] / [`matmul_naive`]: every output element
/// accumulates over the shared dimension in ascending order starting from
/// `0.0`. Goes parallel only when the multiply-add count amortizes thread
/// startup, so training-sized products stay serial and allocation-free.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> TensorResult<()> {
    check(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    if out.shape() != (m, n) {
        return Err(ShapeError::new("matmul_into(out)", (m, n), out.shape()));
    }
    out.as_mut_slice().fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return Ok(());
    }
    row_bands(
        out.as_mut_slice(),
        n,
        into_parallel(m, k, n),
        |chunk, i0, rows| block_rows_into(a, b, chunk, i0, rows, n),
    );
    Ok(())
}

/// Computes `Aᵀ @ B` into `out` without materializing the transpose: both
/// operands are read in their stored row-major layout. `a` is `(r, m)`,
/// `b` is `(r, n)`, `out` must be `(m, n)`.
///
/// The kernel walks `p` (the shared leading dimension) in the outer loop
/// and accumulates the rank-1 update `a[p]ᵀ · b[p]`, so each output element
/// sums over `p` in ascending order — bitwise-identical to
/// `matmul(&a.transpose(), &b)`.
pub fn matmul_at_b_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> TensorResult<()> {
    if a.rows() != b.rows() {
        return Err(ShapeError::new("matmul_at_b", a.shape(), b.shape()));
    }
    let (r, m) = a.shape();
    let n = b.cols();
    if out.shape() != (m, n) {
        return Err(ShapeError::new("matmul_at_b(out)", (m, n), out.shape()));
    }
    out.as_mut_slice().fill(0.0);
    if m == 0 || n == 0 || r == 0 {
        return Ok(());
    }
    row_bands(
        out.as_mut_slice(),
        n,
        into_parallel(m, r, n),
        |chunk, i0, rows| at_b_rows_into(a, b, chunk, i0, rows, n),
    );
    Ok(())
}

/// Computes `A @ Bᵀ` into `out` without materializing the transpose: both
/// operands are read in their stored row-major layout. `a` is `(m, k)`,
/// `b` is `(n, k)`, `out` must be `(m, n)`.
///
/// Each output element is the dot product of two stored rows, accumulated
/// over `k` in ascending order — bitwise-identical to
/// `matmul(&a, &b.transpose())`.
pub fn matmul_a_bt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> TensorResult<()> {
    if a.cols() != b.cols() {
        return Err(ShapeError::new("matmul_a_bt", a.shape(), b.shape()));
    }
    let m = a.rows();
    let n = b.rows();
    if out.shape() != (m, n) {
        return Err(ShapeError::new("matmul_a_bt(out)", (m, n), out.shape()));
    }
    if m == 0 || n == 0 {
        return Ok(());
    }
    row_bands(
        out.as_mut_slice(),
        n,
        into_parallel(m, a.cols(), n),
        |chunk, i0, rows| a_bt_rows_into(a, b, chunk, i0, rows, n),
    );
    Ok(())
}

/// Computes `out = a @ b + bias` in a single pass, broadcasting the
/// length-`n` `bias` row: the bias is added as the register-tile
/// accumulators spill, so the output is written exactly once. This is
/// the affine half of `Dense::apply_into`, which then runs the
/// activation as its own pass over the output.
///
/// Bitwise-identical to `matmul_into` followed by a separate
/// `out[i][j] += bias[j]` pass: the accumulation order per element is
/// unchanged and the bias add still happens after the full sum, only the
/// intermediate store/reload disappears. Parallelizes over row bands
/// with the same thresholds as [`matmul_into`].
pub fn matmul_bias_into(
    a: &Matrix,
    b: &Matrix,
    bias: &[f64],
    out: &mut Matrix,
) -> TensorResult<()> {
    check(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    if out.shape() != (m, n) {
        return Err(ShapeError::new(
            "matmul_bias_into(out)",
            (m, n),
            out.shape(),
        ));
    }
    if bias.len() != n {
        return Err(ShapeError::new(
            "matmul_bias_into(bias)",
            (1, n),
            (1, bias.len()),
        ));
    }
    if m == 0 || n == 0 {
        return Ok(());
    }
    if k == 0 {
        for r in 0..m {
            out.row_mut(r).copy_from_slice(bias);
        }
        return Ok(());
    }
    row_bands(
        out.as_mut_slice(),
        n,
        into_parallel(m, k, n),
        |chunk, i0, rows| block_rows_bias_into(a, b, bias, chunk, i0, rows, n),
    );
    Ok(())
}

fn check(a: &Matrix, b: &Matrix) -> TensorResult<()> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new("matmul", a.shape(), b.shape()));
    }
    Ok(())
}

/// Whether an `_into` kernel with an `m × n` output summed over `k` goes
/// parallel: enough rows to split and enough work to pay for the threads.
fn into_parallel(m: usize, k: usize, n: usize) -> bool {
    m >= PAR_ROW_THRESHOLD && m * k * n >= PAR_WORK_THRESHOLD
}

/// The allocating product behind [`matmul`], [`matmul_blocked`] and
/// [`matmul_parallel`].
fn product(a: &Matrix, b: &Matrix, parallel: bool) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    if m > 0 && n > 0 && k > 0 {
        row_bands(out.as_mut_slice(), n, parallel, |chunk, i0, rows| {
            block_rows_into(a, b, chunk, i0, rows, n)
        });
    }
    out
}

/// Hands the rows of the row-major `out` (`n > 0` columns) to
/// `rows(chunk, i0, rows_here)`: in one call covering every row, or, when
/// `parallel`, as contiguous bands of rows, one rayon task per band.
/// `chunk` holds rows `[i0, i0 + rows_here)`.
///
/// [`block_rows_into`], [`block_rows_bias_into`] and [`at_b_rows_into`]
/// are `#[inline(never)]`. Left to the inliner, whether such a kernel is
/// folded into its `rows` closure depends on how the parallel branch
/// compiles, and folded there the 61-row f64 sweep ran about 5% slower.
fn row_bands(
    out: &mut [f64],
    n: usize,
    parallel: bool,
    rows: impl Fn(&mut [f64], usize, usize) + Sync,
) {
    let m = out.len() / n;
    if !parallel {
        rows(out, 0, m);
        return;
    }
    let band = (m / rayon::current_num_threads().max(1)).max(1);
    out.par_chunks_mut(band * n)
        .enumerate()
        .for_each(|(chunk_idx, chunk)| rows(chunk, chunk_idx * band, chunk.len() / n));
}

/// Rows of the register tile of the matrix kernels: `MR × NR` = 32
/// accumulation chains, one 512-bit `zmm` register per row on AVX-512
/// builds (`zmm::tile`) and two 256-bit `ymm` registers per row on
/// AVX2 builds. Each strip of the right operand loaded from memory feeds
/// four rows, the row tiling of `f32x8::gemm_bias_act_into` with a
/// separate multiply and add in place of `mul_add`. A 4 × 16 tile in
/// portable code measured ten times slower (LLVM no longer keeps it in
/// registers); in `zmm` registers it was no faster on the 61-row sweep
/// and slower on the 8-row training shard.
const MR: usize = 4;

/// Columns of the register tile; see [`MR`].
const NR: usize = 8;

/// Rows of `a` per packed block in [`a_bt_rows_into`]: bounds the
/// thread-local packing buffer at `PACK_ROWS × k` doubles.
const PACK_ROWS: usize = 64;

// Every full `MR × NR` tile (all but the last `n % NR` columns of a
// product) runs through `full_tile`: the `zmm` tile where the build
// enables AVX-512F, the portable `tile::<NR>` elsewhere. Both sum every
// chain alike, so the choice changes speed only.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
use zmm::tile as full_tile;

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline(always)]
fn full_tile<'w>(steps: impl Iterator<Item = ([f64; MR], &'w [f64])>) -> [[f64; NR]; MR] {
    tile::<NR>(steps)
}

/// One register tile of `MR × S` chains: `acc[r][s] = Σ_p v_p[r] · w_p[s]`
/// over the `(v_p, w_p)` steps in order, every chain starting from `0.0`.
///
/// Every tiled kernel adds its products here or in `zmm::tile`. The
/// tile decides which chains run side by side, never the order of a
/// chain's additions, so every caller is bit-for-bit equal to the naive
/// kernel.
#[inline(always)]
fn tile<'w, const S: usize>(steps: impl Iterator<Item = ([f64; MR], &'w [f64])>) -> [[f64; S]; MR] {
    let mut acc = [[0.0f64; S]; MR];
    // No zero-skip: inputs are assumed dense (activations and weights
    // almost never contain exact zeros), so the branch would only add a
    // mispredict per product.
    for (v, w) in steps {
        let w: &[f64; S] = w[..S].try_into().expect("strip within the row");
        for (accr, &vr) in acc.iter_mut().zip(&v) {
            for (a, &wv) in accr.iter_mut().zip(w) {
                *a += vr * wv;
            }
        }
    }
    acc
}

/// The full-width register tile in AVX-512 registers.
///
/// LLVM's tuning for current AVX-512 Xeons prefers 256-bit vectors, so
/// the portable [`tile`] compiles to two `ymm` accumulators per row even
/// when the build enables AVX-512F. This tile keeps each row's `NR`
/// chains in one `zmm` register through intrinsics, and leaves the
/// global preference alone: the flag that lifts it (`-C
/// target-feature=-prefer-256-bit`) draws rustc's "might be unsound"
/// warning. Each step loads the strip once, broadcasts the four
/// left-hand values, then multiplies and adds as two instructions.
/// Never `_mm512_fmadd_pd`: a fused multiply-add rounds once where
/// `a += v * w` rounds twice. Every chain therefore sums over `p` in
/// ascending order from +0.0 exactly as [`tile`] does, bit for bit.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod zmm {
    use super::{MR, NR};
    use std::arch::x86_64::{
        __m512d, _mm512_add_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_setzero_pd,
        _mm512_storeu_pd,
    };

    // One `__m512d` holds one row of the tile.
    const _: () = assert!(NR == 8);

    /// [`super::tile`]`::<NR>` with each row's chains in one `zmm`
    /// register; the same sums, bit for bit.
    #[inline(always)]
    pub(super) fn tile<'w>(steps: impl Iterator<Item = ([f64; MR], &'w [f64])>) -> [[f64; NR]; MR] {
        let mut out = [[0.0f64; NR]; MR];
        // SAFETY: this module is compiled only when the build enables
        // `avx512f` for the whole program (the `cfg` above), and such a
        // program runs only on a CPU with AVX-512F, since LLVM may emit
        // its instructions in any function; so the intrinsics' target
        // feature is present. The strip load reads the `NR` doubles of
        // `w[..NR]`, whose indexing panics unless `w` holds them; each
        // store writes the `NR` doubles of one `[f64; NR]` row of `out`.
        // `loadu`/`storeu` take unaligned addresses.
        unsafe {
            let mut acc: [__m512d; MR] = [_mm512_setzero_pd(); MR];
            for (v, w) in steps {
                let strip = _mm512_loadu_pd(w[..NR].as_ptr());
                for (a, &vr) in acc.iter_mut().zip(&v) {
                    *a = _mm512_add_pd(*a, _mm512_mul_pd(_mm512_set1_pd(vr), strip));
                }
            }
            for (row, a) in out.iter_mut().zip(acc) {
                _mm512_storeu_pd(row.as_mut_ptr(), a);
            }
        }
        out
    }
}

/// Steps through four equal-length rows in lockstep: entry `p` of each.
#[inline(always)]
fn zip4<'a>(rows: [&'a [f64]; MR]) -> impl Iterator<Item = [f64; MR]> + 'a {
    let [r0, r1, r2, r3] = rows;
    r0.iter()
        .zip(r1)
        .zip(r2)
        .zip(r3)
        .map(|(((&v0, &v1), &v2), &v3)| [v0, v1, v2, v3])
}

/// The four rows of `m` starting at `i`, the last one repeated past row
/// `last`: a tail tile keeps the full shape and drops the repeats.
#[inline(always)]
fn rows4(m: &Matrix, i: usize, last: usize) -> [&[f64]; MR] {
    std::array::from_fn(|t| m.row((i + t).min(last)))
}

/// Writes the `rows_here` rows of `out_chunk` from four-row tiles over
/// the columns of `b`. `lhs(i)` steps through the left operand of chunk
/// rows `i..i + MR` (rows past the chunk repeat its last row; their sums
/// are computed and dropped, so every tile has the same shape), and
/// `spill(j, sum)` maps each finished element of column `j` as it leaves
/// the registers (identity, or a bias add).
#[inline(always)]
fn rows_into<L, I, F>(
    b: &Matrix,
    out_chunk: &mut [f64],
    rows_here: usize,
    n: usize,
    lhs: L,
    spill: F,
) where
    L: Fn(usize) -> I,
    I: Iterator<Item = [f64; MR]>,
    F: Fn(usize, f64) -> f64,
{
    let mut i = 0;
    while i < rows_here {
        let live = MR.min(rows_here - i);
        let orows = &mut out_chunk[i * n..(i + live) * n];
        let mut j = 0;
        while j + NR <= n {
            let acc = full_tile(lhs(i).zip(b.rows_iter().map(|w| &w[j..])));
            for (orow, accr) in orows.chunks_exact_mut(n).zip(&acc) {
                for (s, (o, &v)) in orow[j..j + NR].iter_mut().zip(accr).enumerate() {
                    *o = spill(j + s, v);
                }
            }
            j += NR;
        }
        for jj in j..n {
            let acc = tile::<1>(lhs(i).zip(b.rows_iter().map(|w| &w[jj..])));
            for (orow, accr) in orows.chunks_exact_mut(n).zip(&acc) {
                orow[jj] = spill(jj, accr[0]);
            }
        }
        i += MR;
    }
}

/// Hands every live element of a finished tile to `store(t, s, sum)`,
/// masking rows `live_r..` and columns `live_s..` of a tail tile, for
/// [`a_bt_rows_into`]'s transposed scatter. The loops keep constant
/// bounds so the accumulators can stay in registers. Measured on the
/// 8×64·64×64 delta product: ~3 µs through this helper, ~7 µs with the
/// same loop written inline in the caller or with a data-dependent
/// bound.
#[inline(always)]
fn spill_tile<const S: usize>(
    acc: &[[f64; S]; MR],
    live_r: usize,
    live_s: usize,
    mut store: impl FnMut(usize, usize, f64),
) {
    for (t, accr) in acc.iter().enumerate() {
        for (s, &v) in accr.iter().enumerate() {
            if t < live_r && s < live_s {
                store(t, s, v);
            }
        }
    }
}

/// Computes rows `[i0, i0 + rows_here)` of `a @ b` into `out_chunk`
/// (row-major, `rows_here * n` elements; fully overwritten), four rows
/// per register tile.
///
/// Each output element starts from `0.0` and accumulates over `p` in
/// ascending order ([`tile`]), so results are bit-for-bit equal to the
/// naive kernel.
#[inline(never)]
fn block_rows_into(
    a: &Matrix,
    b: &Matrix,
    out_chunk: &mut [f64],
    i0: usize,
    rows_here: usize,
    n: usize,
) {
    let last = (i0 + rows_here).saturating_sub(1);
    let lhs = |i: usize| zip4(rows4(a, i0 + i, last));
    rows_into(b, out_chunk, rows_here, n, lhs, |_, s| s);
}

/// Bias-adding sibling of [`block_rows_into`]: computes rows
/// `[i0, i0 + rows_here)` of `a @ b + bias` into `out_chunk`. The tiles
/// are identical; `bias[j]` is added as each element spills, so the
/// chunk is written exactly once.
#[inline(never)]
fn block_rows_bias_into(
    a: &Matrix,
    b: &Matrix,
    bias: &[f64],
    out_chunk: &mut [f64],
    i0: usize,
    rows_here: usize,
    n: usize,
) {
    let last = (i0 + rows_here).saturating_sub(1);
    let lhs = |i: usize| zip4(rows4(a, i0 + i, last));
    rows_into(b, out_chunk, rows_here, n, lhs, |j, s| s + bias[j]);
}

/// Computes rows `[i0, i0 + rows_here)` of `aᵀ @ b` into `out_chunk`
/// (row-major, `rows_here * n` elements; fully overwritten). `a` is
/// `(r, m)`, `b` is `(r, n)`; output row `i` of the chunk is column
/// `i0 + i` of `a` dotted against `b`, accumulated over `p` in ascending
/// order. A tile reads four adjacent entries of each row of `a`.
#[inline(never)]
fn at_b_rows_into(
    a: &Matrix,
    b: &Matrix,
    out_chunk: &mut [f64],
    i0: usize,
    rows_here: usize,
    n: usize,
) {
    let last = (i0 + rows_here).saturating_sub(1);
    let lhs = |i: usize| {
        let cols: [usize; MR] = std::array::from_fn(|t| (i0 + i + t).min(last));
        a.rows_iter().map(move |arow| cols.map(|c| arow[c]))
    };
    rows_into(b, out_chunk, rows_here, n, lhs, |_, s| s);
}

thread_local! {
    /// Transposed, zero-padded copy of a block of `a`'s rows for
    /// [`a_bt_rows_into`]; grows to `k × PACK_ROWS` once per thread.
    static PACKED: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Computes rows `[i0, i0 + rows_here)` of `a @ bᵀ` into `out_chunk`
/// (row-major, `rows_here * n` elements; fully overwritten). `a` is
/// `(m, k)`, `b` is `(n, k)`; each output element is a row-row dot
/// product accumulated over `k` in ascending order.
///
/// A dot product vectorizes only by reassociating it, so the kernel
/// instead packs up to [`PACK_ROWS`] rows of `a` transposed (`k` rows of
/// `NR`-padded width) and runs full-width tiles over them: four rows of
/// `b` (four output columns) against `NR` packed rows of `a`
/// (output rows), stored transposed as the tile spills. Padding lanes
/// hold zeros and are never stored.
fn a_bt_rows_into(
    a: &Matrix,
    b: &Matrix,
    out_chunk: &mut [f64],
    i0: usize,
    rows_here: usize,
    n: usize,
) {
    let k = a.cols();
    PACKED.with(|cell| {
        let mut packed = cell.borrow_mut();
        let mut ib = 0;
        while ib < rows_here {
            let mb = PACK_ROWS.min(rows_here - ib);
            let width = mb.div_ceil(NR) * NR;
            if packed.len() < k * width {
                packed.resize(k * width, 0.0);
            }
            let block = &mut packed[..k * width];
            block.fill(0.0);
            for s in 0..mb {
                for (p, &v) in a.row(i0 + ib + s).iter().enumerate() {
                    block[p * width + s] = v;
                }
            }
            let block = &packed[..k * width];
            for s0 in (0..mb).step_by(NR) {
                let live = NR.min(mb - s0);
                for j in (0..n).step_by(MR) {
                    let lhs = zip4(rows4(b, j, n - 1));
                    let acc = full_tile(lhs.zip(block.chunks_exact(width).map(|w| &w[s0..])));
                    spill_tile(&acc, n - j, live, |t, s, v| {
                        out_chunk[(ib + s0 + s) * n + j + t] = v;
                    });
                }
            }
            ib += mb;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn small_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = init::uniform(5, 5, -1.0, 1.0, &mut rng);
        let i = Matrix::identity(5);
        assert_close(&matmul(&a, &i).unwrap(), &a, 0.0);
        assert_close(&matmul(&i, &a).unwrap(), &a, 0.0);
    }

    #[test]
    fn kernels_agree_on_odd_sizes() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m_, k_, n_) in &[(1, 1, 1), (3, 5, 7), (65, 70, 33), (130, 64, 65)] {
            let a = init::uniform(m_, k_, -1.0, 1.0, &mut rng);
            let b = init::uniform(k_, n_, -1.0, 1.0, &mut rng);
            let naive = matmul_naive(&a, &b).unwrap();
            let blocked = matmul_blocked(&a, &b).unwrap();
            let parallel = matmul_parallel(&a, &b).unwrap();
            assert_close(&naive, &blocked, 1e-10);
            assert_close(&naive, &parallel, 1e-10);
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = [1.0, 0.5, 2.0];
        let v = matvec(&a, &x).unwrap();
        assert_eq!(v, vec![8.0, 18.5]);
    }

    #[test]
    fn matvec_shape_check() {
        let a = Matrix::zeros(2, 3);
        assert!(matvec(&a, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn empty_product() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 2));
    }

    #[test]
    fn matmul_into_matches_matmul_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m_, k_, n_) in &[(1, 1, 1), (3, 5, 7), (64, 3, 64), (130, 64, 65)] {
            let a = init::uniform(m_, k_, -1.0, 1.0, &mut rng);
            let b = init::uniform(k_, n_, -1.0, 1.0, &mut rng);
            let expect = matmul(&a, &b).unwrap();
            let mut out = Matrix::full(m_, n_, f64::NAN);
            matmul_into(&a, &b, &mut out).unwrap();
            assert_eq!(out.as_slice(), expect.as_slice());
        }
    }

    #[test]
    fn into_kernels_reject_bad_out_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut bad = Matrix::zeros(2, 3);
        assert!(matmul_into(&a, &b, &mut bad).is_err());
        let at = Matrix::zeros(3, 2);
        assert!(matmul_at_b_into(&at, &b, &mut bad).is_err());
        let bt = Matrix::zeros(4, 3);
        assert!(matmul_a_bt_into(&a, &bt, &mut bad).is_err());
    }

    #[test]
    fn matmul_bias_into_matches_unfused_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        for &(m_, k_, n_) in &[
            (1, 1, 1),
            (3, 5, 7),
            (61, 3, 64),
            (61, 64, 64),
            (130, 64, 65),
        ] {
            let a = init::uniform(m_, k_, -1.0, 1.0, &mut rng);
            let b = init::uniform(k_, n_, -1.0, 1.0, &mut rng);
            let bias: Vec<f64> = (0..n_).map(|j| 0.01 * j as f64 - 0.2).collect();
            let mut expect = Matrix::full(m_, n_, f64::NAN);
            matmul_into(&a, &b, &mut expect).unwrap();
            for r in 0..m_ {
                for (o, &bv) in expect.row_mut(r).iter_mut().zip(&bias) {
                    *o += bv;
                }
            }
            let mut fused = Matrix::full(m_, n_, f64::NAN);
            matmul_bias_into(&a, &b, &bias, &mut fused).unwrap();
            assert_eq!(fused.as_slice(), expect.as_slice(), "({m_},{k_},{n_})");
        }
    }

    #[test]
    fn matmul_bias_into_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut bad = Matrix::zeros(2, 3);
        assert!(matmul_bias_into(&a, &b, &[0.0; 4], &mut bad).is_err());
        let mut ok = Matrix::zeros(2, 4);
        assert!(matmul_bias_into(&a, &b, &[0.0; 3], &mut ok).is_err());
        assert!(matmul_bias_into(&a, &b, &[0.0; 4], &mut ok).is_ok());
    }

    /// `(m, k, n)` for an `m × n` output summed over `k`: the 8-row
    /// training shards (forward `x·W`, `xᵀ·δ` and `δ·Wᵀ`), the 61-state
    /// served sweep and its layers as a one-row batch, the 1537-row
    /// validation pass and a 7686-row product that takes the parallel
    /// branch, then odd sizes around the 4-row tile, the 8-wide strip and
    /// the 64-row packing block.
    const ORACLE_SHAPES: &[(usize, usize, usize)] = &[
        (8, 64, 64),
        (8, 3, 64),
        (64, 8, 64),
        (3, 8, 64),
        (64, 8, 1),
        (8, 64, 1),
        (8, 1, 64),
        (61, 3, 64),
        (61, 64, 64),
        (61, 64, 1),
        (1, 3, 64),
        (1, 64, 64),
        (1, 64, 1),
        (1537, 64, 64),
        (7686, 64, 64),
        (1, 1, 1),
        (2, 5, 7),
        (3, 9, 8),
        (4, 7, 9),
        (5, 16, 15),
        (6, 2, 16),
        (7, 2, 17),
        (9, 33, 31),
        (12, 1, 33),
        (13, 65, 23),
        (65, 17, 66),
        (130, 3, 129),
    ];

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs oracle {w}");
        }
    }

    /// Every `_into` kernel against the naive triple loop, bit for bit:
    /// the transpose-free kernels through explicit transposes of their
    /// operands, the bias kernels through the oracle plus a separate
    /// bias pass.
    #[test]
    fn into_kernels_equal_naive_oracle_bitwise_at_model_shapes() {
        let mut rng = StdRng::seed_from_u64(23);
        for &(m_, k_, n_) in ORACLE_SHAPES {
            let what = |kernel: &str| format!("{kernel} ({m_},{k_},{n_})");
            let a = init::uniform(m_, k_, -2.0, 2.0, &mut rng);
            let b = init::uniform(k_, n_, -2.0, 2.0, &mut rng);
            let bias: Vec<f64> = (0..n_).map(|j| 0.03 * j as f64 - 0.5).collect();
            let oracle = matmul_naive(&a, &b).unwrap();
            let mut biased = oracle.clone();
            for r in 0..m_ {
                for (o, &bv) in biased.row_mut(r).iter_mut().zip(&bias) {
                    *o += bv;
                }
            }

            let mut out = Matrix::full(m_, n_, f64::NAN);
            matmul_into(&a, &b, &mut out).unwrap();
            assert_bits(out.as_slice(), oracle.as_slice(), &what("matmul_into"));
            assert_bits(
                matmul(&a, &b).unwrap().as_slice(),
                oracle.as_slice(),
                &what("matmul"),
            );

            // `a` is the explicit transpose of the stored `(k, m)` operand.
            let at = a.transpose();
            out.as_mut_slice().fill(f64::NAN);
            matmul_at_b_into(&at, &b, &mut out).unwrap();
            assert_bits(out.as_slice(), oracle.as_slice(), &what("matmul_at_b_into"));

            // `b` is the explicit transpose of the stored `(n, k)` operand.
            let bt = b.transpose();
            out.as_mut_slice().fill(f64::NAN);
            matmul_a_bt_into(&a, &bt, &mut out).unwrap();
            assert_bits(out.as_slice(), oracle.as_slice(), &what("matmul_a_bt_into"));

            out.as_mut_slice().fill(f64::NAN);
            matmul_bias_into(&a, &b, &bias, &mut out).unwrap();
            assert_bits(out.as_slice(), biased.as_slice(), &what("matmul_bias_into"));
        }
    }

    /// The `zmm` tile against the portable `tile::<NR>`, bit for bit, at
    /// depths from an empty sum to a 64-wide layer. A quarter of the
    /// operands are special: signed zeros (`+0.0 + -0.0` must stay
    /// `+0.0`), subnormals, and ±1e300, whose products overflow to ±inf
    /// (and whose opposite infinities in one chain give the default NaN).
    /// No NaN inputs: LLVM does not pin NaN payloads.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    #[test]
    fn zmm_tile_equals_portable_tile_bitwise() {
        use rand::Rng;
        const SPECIAL: [f64; 8] = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0, -1.0];
        let mut rng = StdRng::seed_from_u64(29);
        let draw = |rng: &mut StdRng| {
            if rng.random_range(0..4usize) == 0 {
                SPECIAL[rng.random_range(0..SPECIAL.len())]
            } else {
                rng.random_range(-2.0..2.0)
            }
        };
        for depth in [0, 1, 3, 8, 64] {
            for trial in 0..200 {
                let v: Vec<[f64; MR]> = (0..depth)
                    .map(|_| std::array::from_fn(|_| draw(&mut rng)))
                    .collect();
                // Rows wider than the strip, as in every kernel but the
                // last tile of a row.
                let w: Vec<Vec<f64>> = (0..depth)
                    .map(|_| (0..NR + 3).map(|_| draw(&mut rng)).collect())
                    .collect();
                let steps = || v.iter().copied().zip(w.iter().map(Vec::as_slice));
                let want = tile::<NR>(steps());
                let got = zmm::tile(steps());
                for (r, (g, e)) in got.iter().zip(&want).enumerate() {
                    assert_bits(g, e, &format!("depth {depth}, trial {trial}, row {r}"));
                }
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
            proptest::collection::vec(-10.0..10.0f64, rows * cols)
                .prop_map(move |v| Matrix::from_vec(rows, cols, v).unwrap())
        }

        proptest! {
            #[test]
            fn blocked_equals_naive(
                (m_, k_, n_) in (1usize..20, 1usize..20, 1usize..20),
                seed in 0u64..1000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = init::uniform(m_, k_, -5.0, 5.0, &mut rng);
                let b = init::uniform(k_, n_, -5.0, 5.0, &mut rng);
                let x = matmul_naive(&a, &b).unwrap();
                let y = matmul_blocked(&a, &b).unwrap();
                for (p, q) in x.as_slice().iter().zip(y.as_slice()) {
                    prop_assert_eq!(p.to_bits(), q.to_bits());
                }
            }

            #[test]
            fn distributes_over_addition(a in arb_matrix(4, 3), b in arb_matrix(4, 3), c in arb_matrix(3, 5)) {
                // (A + B) C == A C + B C
                let sum = crate::ops::add(&a, &b).unwrap();
                let lhs = matmul(&sum, &c).unwrap();
                let rhs = crate::ops::add(
                    &matmul(&a, &c).unwrap(),
                    &matmul(&b, &c).unwrap(),
                ).unwrap();
                for (p, q) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                    prop_assert!((p - q).abs() < 1e-8);
                }
            }

            #[test]
            fn at_b_into_equals_naive_oracle(
                (r_, m_, n_) in (1usize..20, 1usize..20, 1usize..20),
                seed in 0u64..1000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = init::uniform(r_, m_, -5.0, 5.0, &mut rng);
                let b = init::uniform(r_, n_, -5.0, 5.0, &mut rng);
                let oracle = matmul_naive(&a.transpose(), &b).unwrap();
                let mut out = Matrix::full(m_, n_, f64::NAN);
                matmul_at_b_into(&a, &b, &mut out).unwrap();
                // Bitwise: both accumulate over the shared dim in ascending order.
                prop_assert_eq!(out.as_slice(), oracle.as_slice());
            }

            #[test]
            fn a_bt_into_equals_naive_oracle(
                (m_, k_, n_) in (1usize..20, 1usize..20, 1usize..20),
                seed in 0u64..1000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = init::uniform(m_, k_, -5.0, 5.0, &mut rng);
                let b = init::uniform(n_, k_, -5.0, 5.0, &mut rng);
                let oracle = matmul_naive(&a, &b.transpose()).unwrap();
                let mut out = Matrix::full(m_, n_, f64::NAN);
                matmul_a_bt_into(&a, &b, &mut out).unwrap();
                prop_assert_eq!(out.as_slice(), oracle.as_slice());
            }

            #[test]
            fn matmul_into_equals_naive_oracle(
                (m_, k_, n_) in (1usize..20, 1usize..20, 1usize..20),
                seed in 0u64..1000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = init::uniform(m_, k_, -5.0, 5.0, &mut rng);
                let b = init::uniform(k_, n_, -5.0, 5.0, &mut rng);
                let oracle = matmul_naive(&a, &b).unwrap();
                let mut out = Matrix::full(m_, n_, f64::NAN);
                matmul_into(&a, &b, &mut out).unwrap();
                prop_assert_eq!(out.as_slice(), oracle.as_slice());
            }

            #[test]
            fn transpose_reverses_product(a in arb_matrix(3, 4), b in arb_matrix(4, 2)) {
                // (A B)^T == B^T A^T
                let lhs = matmul(&a, &b).unwrap().transpose();
                let rhs = matmul(&b.transpose(), &a.transpose()).unwrap();
                for (p, q) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                    prop_assert!((p - q).abs() < 1e-9);
                }
            }
        }
    }
}
