//! `exp64` against the platform `exp`, bit for bit.
//!
//! The port reproduces glibc's FMA `exp`, so on x86-64 Linux with glibc
//! and FMA its bits must equal [`f64::exp`]'s for every input: on the
//! main path by construction, elsewhere because it calls `f64::exp`.
//! Other platforms' `exp` may round differently, so the comparisons only
//! build there; the range test holds everywhere.
//!
//! `edges_match_platform_exp` and `strided_main_range_matches_platform_exp`
//! run in every test build. `billion_main_range_inputs_match_platform_exp`
//! walks 10⁹ main-path inputs and is ignored by default; run it in
//! release:
//!
//! ```text
//! cargo test --release -p tensor --test exp64 -- --ignored
//! ```

use tensor::exp64;

/// Smallest and largest bit patterns of the positive main range,
/// `2⁻⁵⁴ ≤ x < 512`.
const LO: u64 = 0x3c90_0000_0000_0000;
const HI: u64 = 0x4080_0000_0000_0000;
const SIGN: u64 = 1 << 63;

#[test]
fn range_test_is_glibcs() {
    let at = |x: f64| exp64::in_range(x);
    assert!(at(f64::from_bits(LO)) && at(-f64::from_bits(LO)));
    assert!(at(f64::from_bits(HI - 1)) && at(-f64::from_bits(HI - 1)));
    assert!(at(-1.0) && at(1e-10) && at(-40.0));
    for x in [
        f64::from_bits(LO - 1),
        f64::from_bits(HI),
        0.0,
        5e-324,
        512.0,
        710.0,
        f64::INFINITY,
        f64::NAN,
    ] {
        assert!(!at(x) && !at(-x), "{x:e} is outside the main path");
    }
}

#[cfg(all(
    target_arch = "x86_64",
    target_os = "linux",
    target_env = "gnu",
    target_feature = "fma"
))]
mod against_glibc {
    use super::*;

    /// Number of inputs per chunk: long enough for the kernel loop to
    /// run in vectors, short enough to stay in L1.
    const CHUNK: usize = 1024;

    fn assert_same(x: f64, got: f64) {
        let want = x.exp();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "exp64({x:e} = {:#018x}) = {got:e}, f64::exp = {want:e}",
            x.to_bits()
        );
    }

    /// The inputs `bits(start), bits(start + stride), …` (`count` of them,
    /// all on the main path), chunk by chunk through
    /// [`exp64::exp_in_range`], each compared with `f64::exp`.
    fn walk(start: u64, stride: u64, count: u64) {
        let mut xs = [0.0f64; CHUNK];
        let mut got = [0.0f64; CHUNK];
        let mut next = start;
        let mut left = count;
        while left > 0 {
            let len = CHUNK.min(left as usize);
            for x in &mut xs[..len] {
                *x = f64::from_bits(next);
                next += stride;
            }
            for (g, &x) in got[..len].iter_mut().zip(&xs[..len]) {
                *g = exp64::exp_in_range(x);
            }
            for (&x, &g) in xs[..len].iter().zip(&got[..len]) {
                assert!(exp64::in_range(x), "{x:e} left the main range");
                assert_same(x, g);
            }
            left -= len as u64;
        }
    }

    /// `x` and its `d` nearest neighbours on either side.
    fn around(x: f64, d: i64) -> impl Iterator<Item = f64> {
        (-d..=d).map(move |k| f64::from_bits(x.to_bits().wrapping_add_signed(k)))
    }

    /// Signed zeros, subnormals, both ends of the main range and their
    /// neighbours, where `exp` underflows to a subnormal (−708.4) or to
    /// zero (−745.2) or overflows (710), the infinities and NaN, and the
    /// inputs on either side of every `x` where the table index `ki & 127`
    /// wraps from 127 to 0 (`x = m·ln 2 − ln 2/256`).
    fn edge_inputs() -> Vec<f64> {
        let mut v = vec![
            0.0,
            5e-324,
            1e-300,
            511.999,
            512.0,
            708.4,
            745.2,
            710.0,
            f64::INFINITY,
            f64::NAN,
        ];
        v.extend(around(f64::from_bits(LO), 3));
        v.extend(around(f64::from_bits(HI), 3));
        for m in -1076i32..=1024 {
            let wrap = f64::from(m) * std::f64::consts::LN_2 - std::f64::consts::LN_2 / 256.0;
            v.extend(around(wrap, 4));
        }
        let negated: Vec<f64> = v.iter().map(|&x| -x).collect();
        v.extend(negated);
        v
    }

    #[test]
    fn edges_match_platform_exp() {
        let edges = edge_inputs();
        for &x in &edges {
            assert_same(x, exp64::exp(x));
        }
        // The inputs around the wrap points reach both end entries.
        let index = |x: f64| (x * (128.0 / std::f64::consts::LN_2)).round_ties_even() as i64 & 127;
        let indices: std::collections::BTreeSet<i64> = edges
            .iter()
            .filter(|&&x| exp64::in_range(x))
            .map(|&x| index(x))
            .collect();
        assert!(indices.contains(&0) && indices.contains(&127));
    }

    /// An odd stride visits 2¹⁶ patterns per sign, spread over every
    /// exponent of the main range.
    #[test]
    fn strided_main_range_matches_platform_exp() {
        const COUNT: u64 = 1 << 16;
        let stride = ((HI - LO) / COUNT) | 1;
        for sign in [0, SIGN] {
            walk(LO | sign, stride, COUNT);
        }
    }

    #[test]
    #[ignore = "10^9 inputs: ~4 s in release on two cores; scripts/check.sh runs it"]
    fn billion_main_range_inputs_match_platform_exp() {
        const COUNT: u64 = 500_000_000;
        let stride = ((HI - LO) / COUNT) | 1;
        std::thread::scope(|s| {
            for sign in [0, SIGN] {
                s.spawn(move || walk(LO | sign, stride, COUNT));
            }
        });
    }
}
