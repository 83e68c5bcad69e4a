//! Reductions over slices and matrices.

/// Sum of a slice (empty slices sum to 0).
pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// Arithmetic mean; returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    sum(xs) / xs.len() as f64
}

/// Population variance; returns `NaN` for an empty slice.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; returns `NaN` for an empty slice.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum value; `None` for an empty slice. NaNs are ignored.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().filter(|x| !x.is_nan()).reduce(f64::min)
}

/// Maximum value; `None` for an empty slice. NaNs are ignored.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().filter(|x| !x.is_nan()).reduce(f64::max)
}

/// Index of the minimum value; `None` for an empty slice.
pub fn argmin(xs: &[f64]) -> Option<usize> {
    xs.iter()
        .enumerate()
        .filter(|(_, x)| !x.is_nan())
        .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("NaN filtered"))
        .map(|(i, _)| i)
}

/// Drives a fixed-shape pairwise tree reduction over `n` slots,
/// accumulating the result into slot 0.
///
/// `combine(dst, src)` must fold slot `src` into slot `dst`. The call
/// sequence depends only on `n` — level by level, stride doubling:
/// `(0,1) (2,3) (4,5)…`, then `(0,2) (4,6)…`, then `(0,4)…` — so any
/// executor (a serial loop, worker threads, one combine per task) that
/// honors the emitted order performs the *identical* sequence of
/// floating-point additions. This is what makes the data-parallel
/// gradient reduction bitwise reproducible for every thread count: the
/// tree's shape is a function of the shard count alone.
///
/// Combines within one level are independent (disjoint slot pairs), so a
/// parallel executor may run a level's combines concurrently; levels must
/// stay ordered.
pub fn tree_combine(n: usize, mut combine: impl FnMut(usize, usize)) {
    let mut step = 1;
    while step < n {
        let mut dst = 0;
        while dst + step < n {
            combine(dst, dst + step);
            dst += 2 * step;
        }
        step *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_reductions() {
        let xs = [2.0, 4.0, 6.0];
        assert_eq!(sum(&xs), 12.0);
        assert_eq!(mean(&xs), 4.0);
        assert!((variance(&xs) - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(min(&xs), Some(2.0));
        assert_eq!(max(&xs), Some(6.0));
    }

    #[test]
    fn empty_behaviour() {
        assert_eq!(sum(&[]), 0.0);
        assert!(mean(&[]).is_nan());
        assert!(variance(&[]).is_nan());
        assert_eq!(min(&[]), None);
        assert_eq!(argmin(&[]), None);
    }

    #[test]
    fn arg_reductions() {
        let xs = [3.0, 1.0, 2.0, 1.0];
        assert_eq!(argmin(&xs), Some(1)); // first minimum wins
    }

    #[test]
    fn nan_is_skipped() {
        let xs = [f64::NAN, 2.0, 1.0];
        assert_eq!(min(&xs), Some(1.0));
        assert_eq!(argmin(&xs), Some(2));
    }

    #[test]
    fn constant_slice_has_zero_variance() {
        let xs = [5.0; 10];
        assert_eq!(variance(&xs), 0.0);
        assert_eq!(std_dev(&xs), 0.0);
    }

    /// Recursive specification of the pairwise tree: fold the first half
    /// and the second half independently, then combine their roots.
    fn tree_spec(base: usize, n: usize, pairs: &mut Vec<(usize, usize)>) {
        if n < 2 {
            return;
        }
        let mut half = 1;
        while half * 2 < n {
            half *= 2;
        }
        tree_spec(base, half, pairs);
        tree_spec(base + half, n - half, pairs);
        pairs.push((base, base + half));
    }

    #[test]
    fn tree_combine_touches_every_slot_exactly_once_as_src() {
        for n in 1..=17 {
            let mut seen_src = vec![false; n];
            let mut sum_reached_root = vec![false; n];
            sum_reached_root[0] = true;
            tree_combine(n, |dst, src| {
                assert!(dst < src, "tree combines fold right into left");
                assert!(src < n);
                assert!(!seen_src[src], "slot {src} consumed twice (n={n})");
                seen_src[src] = true;
            });
            assert_eq!(
                seen_src.iter().filter(|&&s| s).count(),
                n.saturating_sub(1),
                "every non-root slot is folded exactly once (n={n})"
            );
        }
    }

    #[test]
    fn tree_combine_matches_recursive_specification() {
        // The level-order loop must perform the same *set* of combines as
        // the recursive halving spec, and within any dst slot the same
        // src order (ascending strides) — i.e. the same reduction tree.
        for n in 1..=16 {
            let mut emitted = Vec::new();
            tree_combine(n, |d, s| emitted.push((d, s)));
            let mut spec = Vec::new();
            tree_spec(0, n, &mut spec);
            let mut a = emitted.clone();
            let mut b = spec.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "combine set diverged for n={n}");
            // Per-destination order is ascending in stride in both.
            for dst in 0..n {
                let ea: Vec<_> = emitted.iter().filter(|p| p.0 == dst).collect();
                let eb: Vec<_> = spec.iter().filter(|p| p.0 == dst).collect();
                assert_eq!(ea, eb, "per-slot fold order diverged for n={n}");
            }
        }
    }

    #[test]
    fn tree_combine_sums_are_deterministic_and_complete() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            let mut slots: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.1).collect();
            let expect: f64 = {
                let mut s = slots.clone();
                tree_combine(n, |d, src| {
                    let v = s[src];
                    s[d] += v;
                });
                s[0]
            };
            tree_combine(n, |d, src| {
                let v = slots[src];
                slots[d] += v;
            });
            assert_eq!(slots[0], expect);
        }
    }
}
