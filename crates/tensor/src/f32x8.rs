//! 8-lane f32 inference kernels: packed weight panels and a fused
//! GEMM + bias + activation pass.
//!
//! The f64 kernels in [`crate::matmul`] serve training, where bitwise
//! reproducibility is the contract. Inference has a different contract —
//! bounded error at maximum throughput — so this module trades the f64
//! accumulators for an explicitly 8-lane-wide f32 layout:
//!
//! * [`PackedF32`] stores a weight matrix as column *panels* of
//!   [`LANES`] = 8 floats, interleaved along the shared dimension. One
//!   panel holds `w[k][j0..j0+8]` contiguously for every `k`, so the
//!   inner GEMM loop loads one 256-bit vector per shared-dim step and
//!   never strides. Panels are zero-padded to a multiple of 8 columns;
//!   packing happens once per model snapshot, never per call.
//! * [`gemm_bias_act_into`] fuses the whole layer:
//!   `out = act(scale · x·W + b)` in a single pass, four input rows at a
//!   time against each panel (32 f32 accumulators = 4 YMM registers),
//!   with the bias add and activation applied at register-spill time so
//!   the output is written exactly once.
//! * [`exp32`] is a branch-free polynomial `e^x` (≤ ~2 ulp over the
//!   clamped range) so SELU-family activations stay vectorizable
//!   instead of calling scalar `libm`.
//! * [`bf16_truncate`] implements the storage quantizer for the
//!   reduced-precision serving mode: an f32 with the low 16 mantissa
//!   bits dropped is exactly a bfloat16 value, while arithmetic stays
//!   in f32 (bf16 storage, f32 accumulation).
//!
//! The `scale` operand exists for quantized storage: a caller packing
//! weights as `quant(w / scale)` passes `scale` back here and the kernel
//! rescales the accumulator before the bias add, keeping the stored
//! values centered in the quantizer's dynamic range. Full-precision f32
//! callers pass `scale = 1.0`.
//!
//! Unlike the f64 kernels these make no bitwise promise against a naive
//! oracle; the contract (tested in `nn`) is a documented error bound
//! against the f64 reference network.

use crate::matrix::Matrix;

/// Vector width of the packed layout: eight f32 lanes (one AVX2
/// register, two SSE registers). Also the column padding granularity.
pub const LANES: usize = 8;

/// Rows of the input processed per kernel iteration. Four rows × eight
/// lanes keeps 32 independent f32 accumulation chains live, enough to
/// hide FMA latency while reusing each loaded weight vector four times.
const MR: usize = 4;

/// Drops the low 16 mantissa bits of `v`, i.e. rounds toward zero to
/// the nearest bfloat16-representable value (8-bit significand, full
/// f32 exponent range). Truncation keeps the quantizer monotone and
/// branch-free; its worst-case relative error is `2^-7` (one ulp of the
/// 7-bit stored mantissa, vs `2^-8` for round-to-nearest).
#[inline]
pub fn bf16_truncate(v: f32) -> f32 {
    f32::from_bits(v.to_bits() & 0xffff_0000)
}

/// Branch-free polynomial `e^x` for f32.
///
/// Cody–Waite range reduction (`x = n·ln2 + r`, two-constant split)
/// followed by a degree-6 minimax polynomial on `[-ln2/2, ln2/2]` and a
/// `2^n` reconstruction via exponent-bit arithmetic. Inputs are clamped
/// to `[-87, 88]`, so the result saturates instead of over/underflowing.
/// Maximum relative error is ~2 ulp (< 3e-7), measured against f64
/// `exp` in this module's tests. Every step is straight-line float and
/// integer-bit arithmetic with no float→int conversion, so the
/// autovectorizer runs eight of these per iteration inside the fused
/// activation pass.
#[inline]
// The literals are exact by construction (`LN2_HI` has a short binary
// mantissa so `n·LN2_HI` is error-free; the polynomial coefficients are
// Cephes' verbatim) — clippy's shorter decimal spellings would hide that.
#[allow(clippy::excessive_precision)]
pub fn exp32(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5·2²³: every f32 in [2²³, 2²⁴) is an integer one ulp apart, so
    // adding the shifter rounds `x·log2(e)` (|·| < 2²²) to an integer,
    // ties to even, and leaves that integer in the low mantissa bits.
    const SHIFTER: f32 = 12_582_912.0;
    let x = x.clamp(-87.0, 88.0);
    // One add yields both `n` as a float and its integer bits. A `round`
    // followed by `n as i32` computes the same `n`, but the saturating
    // cast lowers to one scalar `cvttss2si` per lane.
    let t = x * LOG2E + SHIFTER;
    let n = t - SHIFTER;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // Cephes expf polynomial: e^r ≈ 1 + r + r²·p(r).
    let mut p = 1.987_569_1e-4f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 5.000_000_1e-1;
    let poly = p * r * r + r + 1.0;
    // `bits(t) − bits(SHIFTER)` is `n` in two's complement; wrapping ops
    // keep a NaN input (any bits) from tripping overflow checks, and its
    // NaN polynomial makes the product NaN whatever the scale.
    let n_bits = t.to_bits().wrapping_sub(SHIFTER.to_bits());
    let scale = f32::from_bits(n_bits.wrapping_add(127) << 23);
    poly * scale
}

/// A weight matrix packed once into the interleaved panel layout
/// consumed by [`gemm_bias_act_into`].
///
/// Logical shape is `(in_dim × out_dim)` row-major, like a layer weight
/// matrix. Physically the columns are split into `ceil(out_dim / 8)`
/// panels of [`LANES`] columns; within panel `p`, element
/// `data[(p·in_dim + k)·LANES + l]` is `w[k][p·LANES + l]` (zero for
/// padded lanes past `out_dim`).
#[derive(Debug, Clone)]
pub struct PackedF32 {
    in_dim: usize,
    out_dim: usize,
    data: Vec<f32>,
}

impl PackedF32 {
    /// Packs `w` with plain f64→f32 rounding.
    pub fn pack(w: &Matrix) -> Self {
        Self::pack_with(w, |v| v as f32)
    }

    /// Packs `w`, mapping every element through `quant` (e.g.
    /// [`bf16_truncate`] composed with a scale) — the hook for
    /// reduced-precision storage.
    pub fn pack_with(w: &Matrix, quant: impl Fn(f64) -> f32) -> Self {
        let (in_dim, out_dim) = w.shape();
        let panels = out_dim.div_ceil(LANES);
        let mut data = vec![0.0f32; panels * in_dim * LANES];
        for p in 0..panels {
            let j0 = p * LANES;
            let width = LANES.min(out_dim - j0);
            let panel = &mut data[p * in_dim * LANES..][..in_dim * LANES];
            for k in 0..in_dim {
                let row = w.row(k);
                for l in 0..width {
                    panel[k * LANES + l] = quant(row[j0 + l]);
                }
            }
        }
        Self {
            in_dim,
            out_dim,
            data,
        }
    }

    /// Shared (input) dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output (column) dimension before padding.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    fn panels(&self) -> usize {
        self.out_dim.div_ceil(LANES)
    }
}

/// Spills one panel's worth of row-block accumulators: bias add, scale
/// and activation over all [`LANES`] lanes (fixed trip count, so the
/// whole pass vectorizes), then a width-prefix copy into `out` — padded
/// lanes are computed on zeros and discarded.
#[inline(always)]
// A register-spill helper is all position, no abstraction: every
// argument is a loop-carried index or kernel operand, so bundling them
// into a struct would just move the argument list.
#[allow(clippy::too_many_arguments)]
fn spill_block<F: Fn(f32) -> f32>(
    accs: &[&[f32; LANES]],
    bias: &[f32],
    scale: f32,
    act: &F,
    out: &mut [f32],
    r: usize,
    n: usize,
    j0: usize,
) {
    let width = LANES.min(n - j0);
    let mut bv = [0.0f32; LANES];
    bv[..width].copy_from_slice(&bias[j0..j0 + width]);
    for (m, acc) in accs.iter().enumerate() {
        let mut vals = [0.0f32; LANES];
        for l in 0..LANES {
            vals[l] = act(acc[l] * scale + bv[l]);
        }
        out[(r + m) * n + j0..][..width].copy_from_slice(&vals[..width]);
    }
}

/// Fused layer kernel: `out = act(scale · (x @ W) + bias)`, written in a
/// single pass.
///
/// `x` is `(rows × in_dim)` row-major, `out` is `(rows × out_dim)`
/// row-major and fully overwritten. Accumulation is f32, over the shared
/// dimension in ascending order per element; the bias add, scale and
/// activation happen when the register accumulators spill, so each
/// output element is stored exactly once and never re-read.
///
/// # Panics
/// Panics if `x`, `bias` or `out` disagree with `w`'s dimensions.
pub fn gemm_bias_act_into<F>(
    x: &[f32],
    rows: usize,
    w: &PackedF32,
    bias: &[f32],
    scale: f32,
    act: F,
    out: &mut [f32],
) where
    F: Fn(f32) -> f32,
{
    let k = w.in_dim;
    let n = w.out_dim;
    assert_eq!(x.len(), rows * k, "gemm_bias_act_into: input length");
    assert_eq!(bias.len(), n, "gemm_bias_act_into: bias length");
    assert_eq!(out.len(), rows * n, "gemm_bias_act_into: output length");
    if rows == 0 || n == 0 {
        return;
    }
    let panels = w.panels();
    let mut r = 0;
    // Main kernel: MR input rows against two panels at a time. The dual
    // panel is what saturates the FMA units: four rows × one panel is
    // only 4 independent accumulation chains, not enough to cover FMA
    // latency (~4 cycles at 2/cycle needs ~8 live chains); pairing
    // panels doubles that to 8 chains per loop step and reuses each
    // broadcast input element across both, measured ~1.5× on the
    // 64×64 layer.
    while r + MR <= rows {
        let x0 = &x[r * k..(r + 1) * k];
        let x1 = &x[(r + 1) * k..(r + 2) * k];
        let x2 = &x[(r + 2) * k..(r + 3) * k];
        let x3 = &x[(r + 3) * k..(r + 4) * k];
        let mut p = 0;
        while p + 2 <= panels {
            let pa = &w.data[p * k * LANES..][..k * LANES];
            let pb = &w.data[(p + 1) * k * LANES..][..k * LANES];
            let mut a0 = [0.0f32; LANES];
            let mut a1 = [0.0f32; LANES];
            let mut a2 = [0.0f32; LANES];
            let mut a3 = [0.0f32; LANES];
            let mut b0 = [0.0f32; LANES];
            let mut b1 = [0.0f32; LANES];
            let mut b2 = [0.0f32; LANES];
            let mut b3 = [0.0f32; LANES];
            // `mul_add` is the only way to get hardware FMA from safe
            // Rust (the compiler never contracts `a*b + c` on its own);
            // with `target-cpu` lacking FMA it would fall back to slow
            // libm fma, but every AVX2 target this kernel cares about
            // has it. Fused rounding also tightens the accumulation.
            // Lockstep iterators (no per-step bounds checks) over the
            // shared dim, one 8-wide FMA per live row per panel per step.
            let was = pa.chunks_exact(LANES);
            let wbs = pb.chunks_exact(LANES);
            for (((((wa, wb), &v0), &v1), &v2), &v3) in was.zip(wbs).zip(x0).zip(x1).zip(x2).zip(x3)
            {
                for l in 0..LANES {
                    a0[l] = v0.mul_add(wa[l], a0[l]);
                    a1[l] = v1.mul_add(wa[l], a1[l]);
                    a2[l] = v2.mul_add(wa[l], a2[l]);
                    a3[l] = v3.mul_add(wa[l], a3[l]);
                    b0[l] = v0.mul_add(wb[l], b0[l]);
                    b1[l] = v1.mul_add(wb[l], b1[l]);
                    b2[l] = v2.mul_add(wb[l], b2[l]);
                    b3[l] = v3.mul_add(wb[l], b3[l]);
                }
            }
            spill_block(
                &[&a0, &a1, &a2, &a3],
                bias,
                scale,
                &act,
                out,
                r,
                n,
                p * LANES,
            );
            spill_block(
                &[&b0, &b1, &b2, &b3],
                bias,
                scale,
                &act,
                out,
                r,
                n,
                (p + 1) * LANES,
            );
            p += 2;
        }
        // Odd trailing panel: same per-element accumulation order, one
        // panel's worth of chains.
        while p < panels {
            let panel = &w.data[p * k * LANES..][..k * LANES];
            let mut a0 = [0.0f32; LANES];
            let mut a1 = [0.0f32; LANES];
            let mut a2 = [0.0f32; LANES];
            let mut a3 = [0.0f32; LANES];
            let wvs = panel.chunks_exact(LANES);
            for ((((wv, &v0), &v1), &v2), &v3) in wvs.zip(x0).zip(x1).zip(x2).zip(x3) {
                for l in 0..LANES {
                    a0[l] = v0.mul_add(wv[l], a0[l]);
                    a1[l] = v1.mul_add(wv[l], a1[l]);
                    a2[l] = v2.mul_add(wv[l], a2[l]);
                    a3[l] = v3.mul_add(wv[l], a3[l]);
                }
            }
            spill_block(
                &[&a0, &a1, &a2, &a3],
                bias,
                scale,
                &act,
                out,
                r,
                n,
                p * LANES,
            );
            p += 1;
        }
        r += MR;
    }
    // Remainder rows, one at a time (same per-element accumulation order).
    while r < rows {
        let xr = &x[r * k..(r + 1) * k];
        for p in 0..panels {
            let panel = &w.data[p * k * LANES..][..k * LANES];
            let mut acc = [0.0f32; LANES];
            for (wv, &v) in panel.chunks_exact(LANES).zip(xr) {
                for l in 0..LANES {
                    acc[l] = v.mul_add(wv[l], acc[l]);
                }
            }
            spill_block(&[&acc], bias, scale, &act, out, r, n, p * LANES);
        }
        r += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// f64 oracle of the fused kernel, computed with f32-rounded inputs
    /// but otherwise naive loops.
    fn oracle(x: &[f32], rows: usize, w: &Matrix, bias: &[f32], scale: f32) -> Vec<f32> {
        let (k, n) = w.shape();
        let mut out = vec![0.0f32; rows * n];
        for r in 0..rows {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += x[r * k + p] * (w.row(p)[j] as f32);
                }
                out[r * n + j] = acc * scale + bias[j];
            }
        }
        out
    }

    #[test]
    fn packed_layout_interleaves_panels() {
        // 2×10 matrix: two panels, second padded to 8 lanes.
        let w = Matrix::from_vec(2, 10, (0..20).map(f64::from).collect()).unwrap();
        let p = PackedF32::pack(&w);
        assert_eq!(p.panels(), 2);
        assert_eq!(p.data.len(), 2 * 2 * LANES);
        // Panel 0, k = 0 holds w[0][0..8]; k = 1 holds w[1][0..8].
        assert_eq!(&p.data[..8], &[0., 1., 2., 3., 4., 5., 6., 7.]);
        assert_eq!(&p.data[8..16], &[10., 11., 12., 13., 14., 15., 16., 17.]);
        // Panel 1 is zero-padded past column 10.
        assert_eq!(&p.data[16..24], &[8., 9., 0., 0., 0., 0., 0., 0.]);
        assert_eq!(&p.data[24..32], &[18., 19., 0., 0., 0., 0., 0., 0.]);
    }

    #[test]
    fn gemm_matches_naive_oracle_all_shapes() {
        let mut rng = StdRng::seed_from_u64(9);
        for &(rows, k, n) in &[
            (1, 1, 1),
            (1, 3, 64),
            (4, 64, 64),
            (5, 64, 64),
            (7, 3, 10),
            (61, 3, 64),
            (61, 64, 1),
            (8, 0, 4),
        ] {
            let w = init::uniform(k, n, -2.0, 2.0, &mut rng);
            let xin = init::uniform(rows, k, -2.0, 2.0, &mut rng);
            let x: Vec<f32> = xin.as_slice().iter().map(|&v| v as f32).collect();
            let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 1.0).collect();
            let packed = PackedF32::pack(&w);
            let mut out = vec![f32::NAN; rows * n];
            gemm_bias_act_into(&x, rows, &packed, &bias, 1.0, |v| v, &mut out);
            let want = oracle(&x, rows, &w, &bias, 1.0);
            for (idx, (got, exp)) in out.iter().zip(&want).enumerate() {
                let tol = 1e-4 * (1.0 + exp.abs());
                assert!(
                    (got - exp).abs() <= tol,
                    "({rows},{k},{n})[{idx}]: {got} vs {exp}"
                );
            }
        }
    }

    #[test]
    fn remainder_rows_match_main_kernel_bitwise() {
        // Row 4 computed via the MR block (rows 4..8) must equal row 4
        // computed via the remainder path (rows 0..5): per-row chains are
        // independent and accumulate in the same order.
        let mut rng = StdRng::seed_from_u64(10);
        let w = init::uniform(16, 24, -1.0, 1.0, &mut rng);
        let xin = init::uniform(8, 16, -1.0, 1.0, &mut rng);
        let x: Vec<f32> = xin.as_slice().iter().map(|&v| v as f32).collect();
        let bias = vec![0.125f32; 24];
        let packed = PackedF32::pack(&w);
        let mut full = vec![0.0f32; 8 * 24];
        gemm_bias_act_into(&x, 8, &packed, &bias, 1.0, |v| v, &mut full);
        let mut part = vec![0.0f32; 5 * 24];
        gemm_bias_act_into(&x[..5 * 16], 5, &packed, &bias, 1.0, |v| v, &mut part);
        assert_eq!(&full[4 * 24..5 * 24], &part[4 * 24..5 * 24]);
    }

    #[test]
    fn scale_rescales_accumulator_before_bias() {
        // Pack w/4 with scale 4: affine result must match the unscaled
        // kernel exactly (power-of-two scaling is lossless in binary fp).
        let mut rng = StdRng::seed_from_u64(11);
        let w = init::uniform(6, 9, -3.0, 3.0, &mut rng);
        let wq = Matrix::from_vec(6, 9, w.as_slice().iter().map(|v| v / 4.0).collect()).unwrap();
        let xin = init::uniform(3, 6, -1.0, 1.0, &mut rng);
        let x: Vec<f32> = xin.as_slice().iter().map(|&v| v as f32).collect();
        let bias = vec![-0.5f32; 9];
        let mut a = vec![0.0f32; 27];
        let mut b = vec![0.0f32; 27];
        gemm_bias_act_into(&x, 3, &PackedF32::pack(&w), &bias, 1.0, |v| v, &mut a);
        gemm_bias_act_into(&x, 3, &PackedF32::pack(&wq), &bias, 4.0, |v| v, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn activation_is_applied_at_spill() {
        let w = Matrix::from_vec(1, 2, vec![1.0, -1.0]).unwrap();
        let mut out = vec![0.0f32; 2];
        gemm_bias_act_into(
            &[2.0f32],
            1,
            &PackedF32::pack(&w),
            &[0.0, 0.0],
            1.0,
            |v| v.max(0.0),
            &mut out,
        );
        assert_eq!(out, vec![2.0, 0.0]);
    }

    #[test]
    fn exp32_stays_within_3e7_relative() {
        let mut worst = 0.0f64;
        let mut x = -87.0f64;
        while x <= 88.0 {
            // Compare against exp of the *f32-rounded* input: the input
            // rounding is the caller's error, not the kernel's.
            let xin = x as f32;
            let got = exp32(xin) as f64;
            let want = f64::from(xin).exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.0137;
        }
        assert!(worst < 3e-7, "worst relative error {worst:e}");
        // Saturation, not overflow/NaN, outside the clamped range.
        assert!(exp32(1e4).is_finite());
        assert_eq!(exp32(f32::NEG_INFINITY), exp32(-87.0));
        assert_eq!(exp32(0.0), 1.0);
    }

    #[test]
    fn bf16_truncate_drops_low_mantissa() {
        assert_eq!(bf16_truncate(1.0), 1.0);
        assert_eq!(bf16_truncate(-2.5), -2.5);
        let v = 1.000_061f32; // below the bf16 step above 1.0 (2^-8)
        let t = bf16_truncate(v);
        assert_eq!(t, 1.0);
        // Relative error bounded by 2^-7 (truncation) across magnitudes.
        for &v in &[
            std::f32::consts::PI,
            -0.001234,
            6.02e23,
            -2.7e-12,
            1.9999999,
        ] {
            let t = bf16_truncate(v);
            assert!(((t - v) / v).abs() <= 2.0f32.powi(-7));
        }
    }
}
