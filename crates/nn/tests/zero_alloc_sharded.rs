//! Proof that the *sharded* training step — the shard loop of the
//! deterministic data-parallel engine — is allocation-free in steady
//! state, measured with a counting global allocator.
//!
//! The loop below is exactly what `Trainer::fit` executes per mini-batch
//! (see `nn::engine`): gather each shard's rows, forward + raw backward
//! sums into that shard's private `Workspace`, fold the partials with the
//! fixed pairwise tree, scale once at the root and apply the optimizer
//! update. Each pool thread runs a contiguous run of these shard slots,
//! so proving the single-threaded shard loop allocation-free proves every
//! run allocation-free too. The `rayon` call that hands the runs to the
//! pool allocates its own bookkeeping per step; `tests/zero_alloc.rs`
//! bounds that.
//!
//! The counting allocator is process-global, so this file is a
//! `harness = false` target holding a single test, run on the main
//! thread by `common::run` (see `tests/common/mod.rs`).

mod common;

use common::counted;
use nn::activation::Activation;
use nn::engine::shard_bounds;
use nn::network::NetworkBuilder;
use nn::optimizer::OptimizerKind;
use nn::workspace::Workspace;
use nn::Loss;
use tensor::{ops, reduce, Matrix};

fn dataset(n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let x = tensor::init::uniform(n, 3, 0.0, 1.0, &mut rng);
    let y_vals: Vec<f64> = x
        .rows_iter()
        .map(|r| 0.5 * r[0] + r[1] * r[1] - 0.3 * r[2] + 0.1)
        .collect();
    (x, Matrix::col_vector(&y_vals))
}

/// One shard's private buffers — the engine's `ShardSlot`.
struct Shard {
    ws: Workspace,
    xb: Matrix,
    yb: Matrix,
    total: f64,
}

fn main() {
    common::run(
        "sharded_training_steps_are_allocation_free_after_warmup",
        sharded_training_steps_are_allocation_free_after_warmup,
    );
}

fn sharded_training_steps_are_allocation_free_after_warmup() {
    let (x, y) = dataset(512, 1);
    // The paper topology: 3 -> 64 -> 64 -> 64 -> 1, SELU, RMSprop.
    let mut net = NetworkBuilder::new(3)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .output(1, Activation::Linear)
        .seed(7)
        .build();
    let mut opt = OptimizerKind::paper_default().build();
    let batch = 64usize;
    let shards = 8usize;
    let max_shard_rows = shard_bounds(batch, shards, 0).1.max(1);
    let mut slots: Vec<Shard> = (0..shards)
        .map(|_| Shard {
            ws: Workspace::for_network(&net, max_shard_rows),
            xb: Matrix::zeros(max_shard_rows, x.cols()),
            yb: Matrix::zeros(max_shard_rows, y.cols()),
            total: 0.0,
        })
        .collect();
    let indices: Vec<usize> = (0..x.rows()).collect();

    // The engine's per-batch step, via the same public primitives the
    // shard runs call: shard gather -> forward -> raw sums -> tree fold ->
    // root scale + update.
    let step = |net: &mut nn::Network,
                opt: &mut nn::Optimizer,
                slots: &mut Vec<Shard>,
                chunk: &[usize]| {
        let rows = chunk.len();
        let n_eff = rows.min(shards).max(1);
        for (s, slot) in slots.iter_mut().enumerate().take(n_eff) {
            let (s_start, s_len) = shard_bounds(rows, shards, s);
            if s_len == 0 {
                continue;
            }
            let idx = &chunk[s_start..s_start + s_len];
            ops::gather_rows_into(&x, idx, &mut slot.xb);
            ops::gather_rows_into(&y, idx, &mut slot.yb);
            net.forward_ws(&slot.xb, &mut slot.ws);
            slot.total = net.shard_grads_ws(&slot.yb, Loss::Mse, &mut slot.ws);
        }
        reduce::tree_combine(n_eff, |dst, src| {
            let (left, right) = slots.split_at_mut(src);
            left[dst].ws.combine_grads_from(&right[0].ws);
            left[dst].total += right[0].total;
        });
        net.apply_combined_grads(opt, &mut slots[0].ws, rows);
    };

    // Warm-up: size every buffer and let the optimizer register its slots.
    for chunk in indices.chunks(batch).take(3) {
        step(&mut net, &mut opt, &mut slots, chunk);
    }

    // Steady state: full epochs of sharded steps must not touch the heap.
    let (bytes, allocs) = counted(|| {
        for _ in 0..5 {
            for chunk in indices.chunks(batch) {
                step(&mut net, &mut opt, &mut slots, chunk);
            }
        }
    });
    assert_eq!(
        (bytes, allocs),
        (0, 0),
        "sharded training steps allocated {bytes} bytes across {allocs} allocations"
    );
}
