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
//!    [`crate::workspace::Workspace`] (zero-alloc per worker, as in the
//!    serial engine). No cross-shard data is touched, so shards can run
//!    on any thread, in any order.
//! 3. **Pairwise tree reduction.** The shard partials are folded with
//!    [`tensor::reduce::tree_combine`], whose combine sequence depends
//!    only on the shard count. Whether one thread executes the whole tree
//!    or the batch ran on eight workers, the same floating-point
//!    additions happen in the same order.
//! 4. **Root-scaled update.** The combined sums are scaled by `1/batch`
//!    once, then the optimizer applies its update — all on one thread.
//!
//! Worker threads are spawned once per fit (`std::thread::scope`) and
//! coordinate per batch over rendezvous channels; the thread-count-1 case
//! runs the identical code with zero workers, which is also the
//! configuration the counting-allocator proof in `tests/zero_alloc.rs`
//! exercises. `reference::fit` implements the same specification naively
//! (fresh allocations, explicit transposes), and the whole-fit parity
//! proptests in `train.rs` pin the two together bitwise.

use crate::loss::Loss;
use crate::network::Network;
use crate::workspace::Workspace;
use parking_lot::{Mutex, MutexGuard, RwLock};
use tensor::{ops, reduce, Matrix};

/// Default number of logical gradient shards per mini-batch.
///
/// Eight shards of a 64-row paper batch give 8-row shards — enough
/// parallelism for the core counts this project targets while keeping
/// per-shard matmuls above trivial size.
pub const DEFAULT_SHARDS: usize = 8;

/// Resolves the worker-thread count for a fit.
///
/// `requested > 0` wins; `0` means auto ([`obs::worker_threads`]: the
/// `DVFS_THREADS` environment variable if set to a positive integer,
/// otherwise the machine's available parallelism). The result is
/// clamped to `[1, shards]` — more threads than shards cannot help, and
/// the bitwise guarantee makes any value safe.
pub fn resolve_threads(requested: usize, shards: usize) -> usize {
    obs::worker_threads(requested).clamp(1, shards.max(1))
}

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

/// Shard range `start..end` owned by participant `p` of `participants`
/// (participant 0 is the coordinating thread). Same balanced contiguous
/// partition as [`shard_bounds`], applied to shard indices.
pub(crate) fn participant_range(
    shards: usize,
    participants: usize,
    p: usize,
) -> std::ops::Range<usize> {
    let (start, len) = shard_bounds(shards, participants.max(1), p);
    start..start + len
}

/// One shard's private buffers: a workspace plus gather targets for the
/// shard's feature/target rows, and the shard's raw loss partial.
pub(crate) struct ShardSlot {
    pub(crate) ws: Workspace,
    pub(crate) xb: Matrix,
    pub(crate) yb: Matrix,
    pub(crate) loss_total: f64,
}

/// A pool of per-shard workspaces, one mutex-guarded slot per logical
/// shard. Each slot is only ever touched by the one participant that
/// owns the shard during a step, and by the coordinator during
/// reduction; the mutexes exist to prove that to the borrow checker
/// without `unsafe`, and are uncontended by construction.
pub(crate) struct WorkspacePool {
    pub(crate) slots: Vec<Mutex<ShardSlot>>,
}

impl WorkspacePool {
    /// Builds `shards` slots sized for `net` with capacity for the
    /// largest shard (`rows` rows), so steady-state steps never resize.
    pub(crate) fn new(net: &Network, shards: usize, rows: usize) -> Self {
        let slots = (0..shards.max(1))
            .map(|_| {
                Mutex::new(ShardSlot {
                    ws: Workspace::for_network(net, rows),
                    xb: Matrix::zeros(rows, net.in_dim()),
                    yb: Matrix::zeros(rows, net.out_dim()),
                    loss_total: 0.0,
                })
            })
            .collect();
        Self { slots }
    }

    /// Folds the first `n_eff` slots' gradients and loss partials into
    /// slot 0 with the fixed pairwise tree, returning the combined raw
    /// loss total. Called from the coordinator only, after all
    /// participants finished the step; empty trailing shards (batch
    /// smaller than the shard count) are excluded so they can never
    /// perturb the sum.
    pub(crate) fn reduce(&self, n_eff: usize) -> f64 {
        reduce::tree_combine(n_eff, |dst, src| {
            debug_assert!(dst < src, "tree folds right slots into left");
            let mut d = self.slots[dst].lock();
            let s = self.slots[src].lock();
            d.ws.combine_grads_from(&s.ws);
            d.loss_total += s.loss_total;
        });
        self.slots[0].lock().loss_total
    }

    /// Locks slot 0 (the reduction root) for the optimizer update.
    pub(crate) fn slot0(&self) -> MutexGuard<'_, ShardSlot> {
        self.slots[0].lock()
    }
}

/// Descriptor of the batch currently being processed: a window into the
/// epoch's shuffled row order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StepDesc {
    pub(crate) start: usize,
    pub(crate) len: usize,
}

/// State shared between the coordinator and its workers for one fit.
///
/// Everything is behind locks so workers can borrow it immutably across
/// the whole fit while the coordinator mutates the network (updates) and
/// the row order (per-epoch shuffle) between steps. The rendezvous
/// channels in `Trainer::fit` guarantee workers only read while the
/// coordinator is parked waiting for them, so no lock is ever contended.
pub(crate) struct Shared<'a> {
    pub(crate) net: &'a RwLock<Network>,
    pub(crate) order: &'a RwLock<Vec<usize>>,
    pub(crate) step: &'a Mutex<StepDesc>,
    pub(crate) pool: &'a WorkspacePool,
    pub(crate) x: &'a Matrix,
    pub(crate) y: &'a Matrix,
    pub(crate) loss: Loss,
    pub(crate) shards: usize,
    pub(crate) participants: usize,
}

impl Shared<'_> {
    /// Runs participant `p`'s share of the current step: for each owned
    /// non-empty shard, gather the shard's rows, forward, and leave the
    /// raw gradient sums and loss partial in the shard's slot.
    /// Allocation-free in steady state.
    pub(crate) fn run_participant(&self, p: usize) {
        let net = self.net.read();
        let order = self.order.read();
        let desc = *self.step.lock();
        let chunk = &order[desc.start..desc.start + desc.len];
        for s in participant_range(self.shards, self.participants, p) {
            let (s_start, s_len) = shard_bounds(desc.len, self.shards, s);
            if s_len == 0 {
                continue;
            }
            let mut slot = self.pool.slots[s].lock();
            let ShardSlot {
                ws,
                xb,
                yb,
                loss_total,
            } = &mut *slot;
            let idx = &chunk[s_start..s_start + s_len];
            ops::gather_rows_into(self.x, idx, xb);
            ops::gather_rows_into(self.y, idx, yb);
            net.forward_ws(xb, ws);
            *loss_total = net.shard_grads_ws(yb, self.loss, ws);
        }
    }
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

    #[test]
    fn participant_ranges_cover_all_shards_exactly_once() {
        for shards in 1..12 {
            for participants in 1..12 {
                let mut seen = vec![0usize; shards];
                for p in 0..participants {
                    for s in participant_range(shards, participants, p) {
                        seen[s] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "shards={shards} p={participants}"
                );
            }
        }
    }

    #[test]
    fn resolve_threads_clamps_to_shards() {
        assert_eq!(resolve_threads(4, 8), 4);
        assert_eq!(resolve_threads(16, 8), 8);
        assert_eq!(resolve_threads(1, 8), 1);
        // Explicit requests beat the environment and are never zero.
        assert_eq!(resolve_threads(3, 2), 2);
        assert!(resolve_threads(0, 8) >= 1);
    }
}
