//! Shortest round-trip text for a finite `f64`, byte-identical to its
//! `{}` (`Display`) rendering, without going through `core::fmt`.
//!
//! Integral values below 2^53 print through an integer path. Every other
//! value runs Ryu's shortest-digit search (Adams, "Ryū: fast float-to-
//! string conversion", PLDI 2018): the value and both ends of its
//! rounding interval are scaled to a decimal exponent by a 64×128-bit
//! multiply against a power-of-five table, then decimal digits are
//! dropped while the interval still holds a shorter number. Two
//! departures from the Ryu reference make the bytes match `Display`:
//!
//! * an exact tie between the two shortest candidates rounds half *up*,
//!   as std does: `1125899906842624.25` prints `1125899906842624.3`,
//!   where Ryu's half-even gives `…624.2`. Ryu tracks whether vr's
//!   dropped digits are all zero only to detect that tie, so that
//!   tracking is gone and the last dropped digit alone decides;
//! * digits are laid out exponent-free, as `Display` does: `0.0000001`,
//!   `1000000000000000000000`, `1410`.
//!
//! The power-of-five tables are computed at compile time from exact
//! big-integer arithmetic. The tests below pin every output family that
//! can differ (ties, subnormals, binade edges, the integer boundary) to
//! `format!("{v}")`.

const MANTISSA_BITS: i32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Ryu works on 4·m so the interval ends are integers; `e2` is the
/// binary exponent of that scaled mantissa.
const MIN_E2: i32 = 1 - EXPONENT_BIAS - MANTISSA_BITS - 2;
const MAX_E2: i32 = 2046 - EXPONENT_BIAS - MANTISSA_BITS - 2;
/// Significant bits kept of every table entry.
const POW5_BITS: i32 = 125;
/// `e2 >= 0` indexes `pow5_inv` by `q <= log10_pow2(MAX_E2) - 1`.
const POW5_INV_LEN: usize = log10_pow2(MAX_E2) as usize;
/// `e2 < 0` indexes `pow5` by `-e2 - q`, largest at `MIN_E2`.
const POW5_LEN: usize = (-MIN_E2 - (log10_pow5(-MIN_E2) - 1)) as usize + 1;
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

/// Appends the `{}` text of the finite `v`.
pub(super) fn write(out: &mut Vec<u8>, v: f64) {
    debug_assert!(v.is_finite(), "non-finite values have no decimal text");
    if v.is_sign_negative() {
        out.push(b'-');
    }
    let a = v.abs();
    let mut buf = [0u8; 20];
    if a < TWO_POW_53 && (a as u64) as f64 == a {
        let start = render_u64(&mut buf, a as u64);
        out.extend_from_slice(&buf[start..]);
        return;
    }
    let (digits, exp) = shortest(a.to_bits());
    let start = render_u64(&mut buf, digits);
    let digits = &buf[start..];
    // Digits before the decimal point; `Display` never switches to an
    // exponent, so it pads with zeros on whichever side needs them.
    let point = digits.len() as i32 + exp;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    } else if (point as usize) < digits.len() {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + point as usize - digits.len(), b'0');
    }
}

/// Ryu's `d2d` for a positive, finite, non-zero bit pattern: the
/// shortest `digits` with `digits × 10^exp` inside the value's rounding
/// interval, the nearest such one, exact ties rounded up.
fn shortest(bits: u64) -> (u64, i32) {
    let mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let exponent = (bits >> MANTISSA_BITS) as i32;
    let (e2, m2) = if exponent == 0 {
        (MIN_E2, mantissa)
    } else {
        (
            exponent - EXPONENT_BIAS - MANTISSA_BITS - 2,
            (1 << MANTISSA_BITS) | mantissa,
        )
    };
    // Round-to-even parsing makes an even mantissa's interval closed.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The interval below a power of two is half as wide.
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);
    let tables = &TABLES;
    let (mut vr, mut vp, mut vm, e10);
    // Whether every digit dropped from vm so far is zero (vm exact).
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let k = POW5_BITS + pow5_bits(q) - 1;
        let shift = -e2 + q + k;
        let mul = tables.pow5_inv[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        // At most one of mv, mv + 2 and mv - 1 - mm_shift is a multiple
        // of 5; beyond q = 21 none can hold q factors of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = pow5_factor(mv - 1 - mm_shift) >= q;
            } else {
                vp -= u64::from(pow5_factor(mv + 2) >= q);
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let k = pow5_bits(i) - POW5_BITS;
        let shift = q - k;
        let mul = tables.pow5[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        if q <= 1 {
            // mv - 1 - mm_shift has a trailing zero bit iff mm_shift is
            // 1; mv + 2 always has one.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }
    let mut removed = 0;
    let output = if vm_trailing_zeros {
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            last = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        // vr + 1 when vr fell outside an open interval, or to round up.
        let below = vr == vm && (!accept_bounds || !vm_trailing_zeros);
        vr + u64::from(below || last >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `floor(m × mul / 2^shift)` for the 125-bit `mul` and `shift >= 64`.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// `ceil(log2(5^e))` for `e > 0` (1 at `e == 0`), valid for `e <= 3528`.
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))`, valid for `0 <= e <= 1650`.
const fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// `floor(log10(5^e))`, valid for `0 <= e <= 2620`.
const fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// How many times 5 divides the non-zero `v`.
fn pow5_factor(mut v: u64) -> i32 {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count
}

/// Writes `n`'s decimal digits right-aligned into `buf`; returns where
/// they start.
fn render_u64(buf: &mut [u8; 20], mut n: u64) -> usize {
    const PAIRS: [u8; 200] = {
        let mut t = [0; 200];
        let mut i = 0;
        while i < 100 {
            t[2 * i] = b'0' + (i / 10) as u8;
            t[2 * i + 1] = b'0' + (i % 10) as u8;
            i += 1;
        }
        t
    };
    let mut at = buf.len();
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = 2 * n as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

/// Ryu's `DOUBLE_POW5_SPLIT` and `DOUBLE_POW5_INV_SPLIT`, computed by the
/// compiler from exact integer arithmetic.
struct Tables {
    /// The top `POW5_BITS` bits of `5^i`.
    pow5: [u128; POW5_LEN],
    /// `floor(2^(bitlen(5^q) - 1 + POW5_BITS) / 5^q) + 1`.
    pow5_inv: [u128; POW5_INV_LEN],
}

static TABLES: Tables = Tables::build();

/// Every `pow5_inv` entry is read off `floor(2^INV_SCALE / 5^q)`, so
/// this is the largest `bitlen(5^q) - 1 + POW5_BITS` among them.
const INV_SCALE: i32 = pow5_bits(POW5_INV_LEN as i32 - 1) - 1 + POW5_BITS;

impl Tables {
    const fn build() -> Tables {
        let mut tables = Tables {
            pow5: [0; POW5_LEN],
            pow5_inv: [0; POW5_INV_LEN],
        };
        let mut pow5 = Big::pow2(0);
        let mut i = 0;
        while i < POW5_LEN {
            let bits = pow5.bits();
            assert!(bits == pow5_bits(i as i32), "pow5_bits is exact");
            tables.pow5[i] = pow5.shifted(POW5_BITS - bits);
            pow5.mul5();
            i += 1;
        }
        // floor(floor(x / 5) / 5) == floor(x / 25), so dividing
        // 2^INV_SCALE by 5 once per entry keeps floor(2^INV_SCALE / 5^q)
        // exact, and shifting it down keeps the floor of each entry.
        let mut inv = Big::pow2(INV_SCALE);
        let mut q = 0;
        while q < POW5_INV_LEN {
            let k = pow5_bits(q as i32) - 1 + POW5_BITS;
            tables.pow5_inv[q] = inv.shifted(k - INV_SCALE) + 1;
            inv.div5();
            q += 1;
        }
        tables
    }
}

/// Limbs for the table arithmetic: 2^INV_SCALE needs 799 bits and 5^325
/// 755.
const LIMBS: usize = 25;

/// A little-endian base-2^32 natural number, just wide enough to build
/// the tables exactly.
struct Big([u32; LIMBS]);

impl Big {
    const fn pow2(e: i32) -> Big {
        let mut limbs = [0; LIMBS];
        limbs[e as usize / 32] = 1 << (e % 32);
        Big(limbs)
    }

    const fn bits(&self) -> i32 {
        let mut top = LIMBS - 1;
        while top > 0 && self.0[top] == 0 {
            top -= 1;
        }
        32 * top as i32 + 32 - self.0[top].leading_zeros() as i32
    }

    const fn mul5(&mut self) {
        let mut carry = 0;
        let mut k = 0;
        while k < LIMBS {
            let x = self.0[k] as u64 * 5 + carry;
            self.0[k] = x as u32;
            carry = x >> 32;
            k += 1;
        }
        assert!(carry == 0, "table arithmetic overflowed LIMBS");
    }

    /// `self = floor(self / 5)`.
    const fn div5(&mut self) {
        let mut rem = 0;
        let mut k = LIMBS;
        while k > 0 {
            k -= 1;
            let x = (rem << 32) | self.0[k] as u64;
            self.0[k] = (x / 5) as u32;
            rem = x % 5;
        }
    }

    /// `floor(self × 2^shift)`, which must fit in 128 bits.
    const fn shifted(&self, shift: i32) -> u128 {
        let mut r = 0;
        let mut k = 0;
        while k < LIMBS {
            let at = 32 * k as i32 + shift;
            let limb = self.0[k] as u128;
            // Zero limbs can sit 128 or more bits up; skipping them keeps
            // every shift in range.
            if limb != 0 && at > -32 {
                r |= if at >= 0 { limb << at } else { limb >> -at };
            }
            k += 1;
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::write;

    fn render(v: f64) -> String {
        let mut out = Vec::new();
        write(&mut out, v);
        String::from_utf8(out).expect("ASCII digits")
    }

    /// `v` and `-v` render exactly as `{}` does.
    fn check(v: f64) {
        for x in [v, -v] {
            assert_eq!(render(x), format!("{x}"), "bits {:#018x}", x.to_bits());
        }
    }

    /// 2^k for every k with a finite f64, subnormals included.
    fn pow2(k: i32) -> f64 {
        if k >= -1022 {
            f64::from_bits(((k + 1023) as u64) << 52)
        } else {
            f64::from_bits(1 << (k + 1074))
        }
    }

    #[test]
    fn random_bit_patterns_match_display() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..300_000 {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let v = f64::from_bits(z ^ (z >> 31));
            if v.is_finite() {
                check(v);
            }
        }
    }

    /// Exact ties sit at a few binary digits past the decimal precision
    /// limit: small odd integers scaled by every power of two reach them.
    #[test]
    fn small_odd_integers_times_every_power_of_two_match_display() {
        for k in -1074..=1023 {
            for m in (1..256u32).step_by(2) {
                let v = f64::from(m) * pow2(k);
                if v.is_finite() {
                    check(v);
                }
            }
        }
    }

    /// Every value in [2^50, 2^51) is a multiple of 0.25, and each .25 and
    /// .75 lies exactly between two 17-digit candidates. Ryu's reference
    /// rounds the .25 ties to even; std, and this writer, round up.
    #[test]
    fn tie_family_two_pow_50_rounds_half_up() {
        let base = pow2(50);
        assert_eq!(render(base + 0.25), "1125899906842624.3");
        assert_eq!(render(base + 0.75), "1125899906842624.8");
        let span = 1u64 << 50;
        let starts = (0..1u64 << 16).chain(span - (1 << 16)..span);
        let strided = (0..1u64 << 16).map(|i| i * (span >> 16) + i % 997);
        for k in starts.chain(strided) {
            check(base + k as f64 + 0.25);
            check(base + k as f64 + 0.75);
        }
    }

    #[test]
    fn powers_of_two_and_their_neighbours_match_display() {
        for k in -1074..=1023 {
            let bits = pow2(k).to_bits();
            for b in [bits - 1, bits, bits + 1] {
                check(f64::from_bits(b));
            }
        }
    }

    #[test]
    fn integers_on_both_sides_of_two_pow_53_match_display() {
        let t = pow2(53);
        for d in 0..50_000u32 {
            let d = f64::from(d);
            check(t - d);
            check(t + 2.0 * d);
            check(4.0 * t + 8.0 * d);
        }
    }

    #[test]
    fn n_times_powers_of_ten_match_display() {
        let ns: [u64; 12] = [
            1,
            2,
            5,
            9,
            12,
            123,
            1_410,
            7_654_321,
            123_456_789_012_345,
            9_007_199_254_740_993,
            17_976_931_348_623_157,
            18_446_744_073_709_551_615,
        ];
        for k in -345..=310 {
            for n in ns {
                let v: f64 = format!("{n}e{k}").parse().expect("decimal literal");
                if v.is_finite() {
                    check(v);
                }
            }
        }
        assert_eq!(render(1e-7), "0.0000001");
        assert_eq!(render(1e21), "1000000000000000000000");
        assert_eq!(render(1410.0), "1410");
        assert_eq!(render(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn edge_values_match_display() {
        assert_eq!(render(-0.0), "-0");
        assert_eq!(render(0.0), "0");
        for v in [5e-324, f64::MIN_POSITIVE, f64::MAX, f64::EPSILON, 0.5, 1.0] {
            check(v);
        }
    }
}
