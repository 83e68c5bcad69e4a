//! Splitting a parallel iterator copies nothing: zipping two 1 M-element
//! slices allocates a few bookkeeping buffers per call, O(threads), and
//! summing a slice allocates nothing.
//!
//! Runs without libtest's harness (see `crates/nn/tests/common/mod.rs`):
//! the counting allocator counts every thread of the process.

#[path = "../../../crates/nn/tests/common/mod.rs"]
mod common;

use rayon::prelude::*;

fn main() {
    common::run(
        "zip_over_a_million_f64_allocates_per_thread_not_per_item",
        zip_over_a_million_f64_allocates_per_thread_not_per_item,
    );
}

fn zip_over_a_million_f64_allocates_per_thread_not_per_item() {
    const N: usize = 1 << 20;
    let mut a = vec![0.0f64; N];
    let b: Vec<f64> = (0..N).map(|i| i as f64).collect();
    // The first call starts the pool; count a later one.
    a.par_iter_mut()
        .zip(b.par_iter())
        .for_each(|(x, &y)| *x = y);

    let (bytes, allocs) = common::counted(|| {
        a.par_iter_mut()
            .zip(b.par_iter())
            .for_each(|(x, &y)| *x = 2.0 * y);
    });
    assert!(a.iter().zip(&b).all(|(&x, &y)| x == 2.0 * y));
    let threads = rayon::current_num_threads() as u64;
    let bound = 512 + 256 * threads;
    assert!(
        bytes <= bound,
        "the zip allocated {bytes} bytes in {allocs} allocations for {N} items \
         on {threads} threads (bound {bound})"
    );

    let mut total = 0.0;
    let (bytes, allocs) = common::counted(|| total = a.par_iter().sum::<f64>());
    assert_eq!(total, b.iter().map(|&y| 2.0 * y).sum::<f64>());
    assert_eq!(
        (bytes, allocs),
        (0, 0),
        "summing a slice allocated {bytes} bytes"
    );
}
