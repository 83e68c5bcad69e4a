//! `f32x8::exp32` against the formula it replaced, bit for bit.
//!
//! The kernel takes `n = round(x·log2 e)` and its integer bits from one
//! add of the 1.5·2²³ shifter. The oracle below is the earlier spelling:
//! `round_ties_even` followed by a saturating `n as i32` cast. The two
//! must agree on every non-NaN input, and map NaN to NaN.
//!
//! `strided_sweep_and_edges_match_round_and_cast` runs in every test
//! build. `every_f32_matches_round_and_cast` walks all 2³² bit patterns
//! and is ignored by default; run it in release:
//!
//! ```text
//! cargo test --release -p tensor --test exp32 -- --ignored
//! ```

use tensor::f32x8::exp32;

/// The `round_ties_even` + `as i32` form of [`exp32`], kept as the oracle.
#[allow(clippy::excessive_precision)]
fn exp32_round_and_cast(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let x = x.clamp(-87.0, 88.0);
    let n = (x * LOG2E).round_ties_even();
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.987_569_1e-4f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 5.000_000_1e-1;
    let poly = p * r * r + r + 1.0;
    let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
    poly * scale
}

/// Number of inputs per chunk: long enough for the kernel loop to run
/// in 8-lane vectors, short enough to stay in L1.
const CHUNK: usize = 1024;

/// Checks the inputs `bits(start), bits(start + stride), …` (`count` of
/// them, wrapping) chunk by chunk. Returns the first mismatch as
/// `(input bits, kernel bits, oracle bits)`.
fn first_mismatch(start: u32, stride: u32, count: u64) -> Option<(u32, u32, u32)> {
    let mut xs = [0.0f32; CHUNK];
    let mut got = [0.0f32; CHUNK];
    let mut want = [0.0f32; CHUNK];
    let mut next = start;
    let mut left = count;
    while left > 0 {
        let len = CHUNK.min(left as usize);
        for x in &mut xs[..len] {
            *x = f32::from_bits(next);
            next = next.wrapping_add(stride);
        }
        for (g, &x) in got[..len].iter_mut().zip(&xs[..len]) {
            *g = exp32(x);
        }
        for (w, &x) in want[..len].iter_mut().zip(&xs[..len]) {
            *w = exp32_round_and_cast(x);
        }
        for i in 0..len {
            let (g, w) = (got[i], want[i]);
            let same = if w.is_nan() {
                g.is_nan()
            } else {
                g.to_bits() == w.to_bits()
            };
            if !same {
                return Some((xs[i].to_bits(), g.to_bits(), w.to_bits()));
            }
        }
        left -= len as u64;
    }
    None
}

fn assert_no_mismatch(start: u32, stride: u32, count: u64) {
    if let Some((x, g, w)) = first_mismatch(start, stride, count) {
        panic!(
            "exp32({:e} = {x:#010x}) = {:e} ({g:#010x}), oracle {:e} ({w:#010x})",
            f32::from_bits(x),
            f32::from_bits(g),
            f32::from_bits(w)
        );
    }
}

/// The inputs a range reduction is most likely to get wrong: signed
/// zeros, subnormals, the smallest normals, the clamp bounds and their
/// neighbours, the infinities and NaNs, and every `x` within a few ulps
/// of a half-integer `x·log2 e` (where ties-to-even decides `n`).
fn edge_inputs() -> Vec<f32> {
    let mut v = vec![
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        -f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::EPSILON,
        -f32::EPSILON,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7f80_0001),
        f32::from_bits(0xff80_0001),
    ];
    for bound in [-87.0f32, 88.0] {
        for d in -4i32..=4 {
            v.push(f32::from_bits(bound.to_bits().wrapping_add_signed(d)));
        }
    }
    for k in -127..=127 {
        let tie = (k as f32 + 0.5) / std::f32::consts::LOG2_E;
        for d in -4i32..=4 {
            v.push(f32::from_bits(tie.to_bits().wrapping_add_signed(d)));
        }
    }
    v
}

#[test]
fn strided_sweep_and_edges_match_round_and_cast() {
    for x in edge_inputs() {
        assert_no_mismatch(x.to_bits(), 0, 1);
    }
    // 65 537 is odd, so 2¹⁶ steps from two starting points visit 2¹⁷
    // patterns spread over every exponent of both signs.
    for start in [0u32, 0x8000_1234] {
        assert_no_mismatch(start, 65_537, 1 << 16);
    }
}

#[test]
#[ignore = "all 2^32 inputs: ~20 s in release on two cores; scripts/check.sh runs it"]
fn every_f32_matches_round_and_cast() {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    let span = (1u64 << 32) / threads as u64;
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let count = if t + 1 == threads as u64 {
                (1u64 << 32) - t * span
            } else {
                span
            };
            s.spawn(move || assert_no_mismatch((t * span) as u32, 1, count));
        }
    });
}
