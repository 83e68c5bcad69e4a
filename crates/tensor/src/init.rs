//! Deterministic random matrix initialization.
//!
//! All generators take an explicit `&mut impl Rng` so callers control
//! seeding; nothing in this crate reaches for a global RNG. Gaussian
//! sampling uses the Box–Muller transform to avoid a dependency on
//! `rand_distr`.

use crate::matrix::Matrix;
use rand::Rng;

/// Matrix with entries drawn uniformly from `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut impl Rng) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.random_range(lo..hi)).collect();
    Matrix::from_vec(rows, cols, data).expect("generated length matches")
}

/// Samples one standard-normal value via the Box–Muller transform.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // u1 in (0, 1] so the log is finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Matrix with entries drawn from `N(mean, std^2)`.
pub fn normal(rows: usize, cols: usize, mean: f64, std: f64, rng: &mut impl Rng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| mean + std * standard_normal(rng))
        .collect();
    Matrix::from_vec(rows, cols, data).expect("generated length matches")
}

/// LeCun-normal initialization: `N(0, 1/fan_in)`.
///
/// This is the initialization self-normalizing networks (SELU) require to
/// keep activations in the self-normalizing regime (Klambauer et al. 2017).
pub fn lecun_normal(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let std = (1.0 / fan_in.max(1) as f64).sqrt();
    normal(fan_in, fan_out, 0.0, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = uniform(20, 20, -2.0, 3.0, &mut rng);
        assert!(m.as_slice().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }

    #[test]
    fn normal_has_expected_moments() {
        let mut rng = StdRng::seed_from_u64(8);
        let m = normal(100, 100, 5.0, 2.0, &mut rng);
        let mean = reduce::mean(m.as_slice());
        let std = reduce::std_dev(m.as_slice());
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((std - 2.0).abs() < 0.05, "std {std}");
    }

    #[test]
    fn lecun_normal_variance_scales_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = lecun_normal(100, 200, &mut rng);
        let var = reduce::variance(m.as_slice());
        assert!((var - 0.01).abs() < 0.002, "var {var}");
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = uniform(4, 4, 0.0, 1.0, &mut StdRng::seed_from_u64(42));
        let b = uniform(4, 4, 0.0, 1.0, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn box_muller_is_finite() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            assert!(standard_normal(&mut rng).is_finite());
        }
    }
}
