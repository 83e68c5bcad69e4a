//! Deterministic data-parallel training engine: fixed logical shards,
//! per-shard workspaces, and a fixed-shape pairwise gradient reduction.
//!
//! # Why results are bitwise identical for any thread count
//!
//! Floating-point addition is not associative, so "sum the per-row
//! gradients in whatever order the threads finish" would make training
//! results depend on scheduling. This engine removes every source of
//! order dependence from the specification itself:
//!
//! 1. **Fixed shards.** Each mini-batch is split into `TrainConfig::shards`
//!    contiguous *logical* shards by [`shard_bounds`] — a pure function of
//!    the batch's row count and the shard count. Thread count never enters.
//! 2. **Raw per-shard sums.** Every shard computes its forward pass, loss
//!    partial and *unscaled* parameter-gradient sums in its own
//!    `ShardSlot` (allocation-free in steady state, as in the serial
//!    engine). No cross-shard data is touched, so shards can run on any
//!    thread, in any order.
//! 3. **Pairwise tree reduction.** The shard partials are folded by
//!    `reduce` with [`tensor::reduce::tree_combine`], whose combine
//!    sequence depends only on the shard count. Whether one thread ran
//!    every shard or the step was split across the pool, the same
//!    floating-point additions happen in the same order.
//! 4. **Root-scaled update.** The combined sums are scaled by `1/batch`
//!    once, then the optimizer applies its update — all on one thread.
//!
//! `Trainer::fit` runs each step's shards as one parallel call on the
//! `rayon` pool: one contiguous run of shards per pool thread, and the
//! whole step inline on a pool of one thread. The call itself allocates a
//! few bookkeeping records; the shard loop allocates nothing, which
//! `tests/zero_alloc_sharded.rs` proves with a counting allocator.
//! `reference::fit` implements the same specification naively (fresh
//! allocations, explicit transposes), and the whole-fit parity proptests
//! in `train.rs` pin the two together bitwise.

use crate::loss::Loss;
use crate::network::Network;
use crate::workspace::Workspace;
use tensor::{ops, reduce, Matrix};

/// Default number of logical gradient shards per mini-batch.
///
/// Eight shards of a 64-row paper batch give 8-row shards — enough
/// parallelism for the core counts this project targets while keeping
/// per-shard matmuls above trivial size.
pub const DEFAULT_SHARDS: usize = 8;

/// Row range `(start, len)` of shard `shard` in a batch of `rows` rows
/// split into `shards` contiguous shards.
///
/// The first `rows % shards` shards get one extra row; with fewer rows
/// than shards the trailing shards are empty. Pure in `(rows, shards,
/// shard)` — the partition is identical no matter how many threads
/// execute it.
pub fn shard_bounds(rows: usize, shards: usize, shard: usize) -> (usize, usize) {
    let shards = shards.max(1);
    debug_assert!(shard < shards);
    let base = rows / shards;
    let rem = rows % shards;
    let start = shard * base + shard.min(rem);
    let len = base + usize::from(shard < rem);
    (start, len)
}

/// One shard's private buffers: a workspace plus gather targets for the
/// shard's feature/target rows, and the shard's raw loss partial.
pub(crate) struct ShardSlot {
    pub(crate) ws: Workspace,
    xb: Matrix,
    yb: Matrix,
    loss_total: f64,
}

impl ShardSlot {
    /// A slot sized for `net` with capacity for `rows` rows (the largest
    /// shard), so steady-state steps never resize.
    pub(crate) fn new(net: &Network, rows: usize) -> Self {
        Self {
            ws: Workspace::for_network(net, rows),
            xb: Matrix::zeros(rows, net.in_dim()),
            yb: Matrix::zeros(rows, net.out_dim()),
            loss_total: 0.0,
        }
    }

    /// Gathers the shard's rows (`idx` into `x`/`y`), runs the forward
    /// pass and leaves the raw gradient sums and loss partial in the slot.
    /// Allocation-free in steady state.
    pub(crate) fn step(
        &mut self,
        net: &Network,
        x: &Matrix,
        y: &Matrix,
        idx: &[usize],
        loss: Loss,
    ) {
        ops::gather_rows_into(x, idx, &mut self.xb);
        ops::gather_rows_into(y, idx, &mut self.yb);
        net.forward_ws(&self.xb, &mut self.ws);
        self.loss_total = net.shard_grads_ws(&self.yb, loss, &mut self.ws);
    }
}

/// Folds the first `n_eff` slots' gradients and loss partials into slot 0
/// with the fixed pairwise tree, returning the combined raw loss total.
/// Empty trailing shards (a batch smaller than the shard count) are
/// excluded so they can never perturb the sum.
pub(crate) fn reduce(slots: &mut [ShardSlot], n_eff: usize) -> f64 {
    reduce::tree_combine(n_eff, |dst, src| {
        debug_assert!(dst < src, "tree folds right slots into left");
        let (left, right) = slots.split_at_mut(src);
        left[dst].ws.combine_grads_from(&right[0].ws);
        left[dst].loss_total += right[0].loss_total;
    });
    slots[0].loss_total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bounds_partition_is_contiguous_and_complete() {
        for rows in 0..40 {
            for shards in 1..10 {
                let mut next = 0;
                let mut total = 0;
                for s in 0..shards {
                    let (start, len) = shard_bounds(rows, shards, s);
                    assert_eq!(start, next, "rows={rows} shards={shards} s={s}");
                    next = start + len;
                    total += len;
                }
                assert_eq!(total, rows);
                // Balanced: lengths differ by at most one, larger first.
                let lens: Vec<usize> = (0..shards)
                    .map(|s| shard_bounds(rows, shards, s).1)
                    .collect();
                let (mn, mx) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(mx - mn <= 1);
                assert!(lens.windows(2).all(|w| w[0] >= w[1]));
            }
        }
    }
}
