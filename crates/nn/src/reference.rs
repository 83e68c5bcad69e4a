//! Naive allocating implementations of `predict` and `fit`: the oracle.
//!
//! This module implements the *same specification* as the workspace
//! engine — including the fixed-shard gradient reduction of
//! [`crate::engine`] — in the most transparent way possible: fresh
//! matrices for every intermediate, explicit transposes in backprop,
//! `select_rows` per shard, a `Vec` of per-shard gradients folded by the
//! same pairwise tree. It exists for two reasons:
//!
//! 1. **Correctness oracle.** The workspace path (serial or parallel at
//!    any thread count) must be *bitwise* identical to this one — same
//!    shard partition, same accumulation order everywhere; the parity
//!    proptests in `train.rs` compare the two end to end.
//! 2. **Benchmark baseline.** The `nn_training` and `prediction` criterion
//!    groups measure both paths so the speedup stays visible to future PRs.
//!
//! Production code should never call into this module.

use crate::loss::Loss;
use crate::network::Network;
use crate::train::{TrainConfig, TrainError, TrainingHistory};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tensor::{matmul, ops, Matrix};

/// Allocating inference pass: clone-chains `act(x W + b)` through every
/// layer, materializing each intermediate.
pub fn predict(network: &Network, x: &Matrix) -> Matrix {
    let mut a = x.clone();
    for l in network.layers() {
        let z = matmul::matmul(&a, l.weights()).expect("layer/input width mismatch");
        let mut out =
            ops::add_row_broadcast(&z, l.bias()).expect("bias shape verified at construction");
        for r in 0..out.rows() {
            l.activation().apply_row(out.row_mut(r));
        }
        a = out;
    }
    a
}

/// Per-layer forward state captured by the allocating training pass.
struct LayerState {
    input: Matrix,
    pre: Matrix,
    out: Matrix,
}

/// Allocating mini-batch training loop, replicating `Trainer::fit` step
/// for step: identical RNG consumption, split, batch order, shard
/// partition, reduction tree, optimizer slot ids and early-stopping
/// rule, but with fresh allocations for every shard and every
/// intermediate.
pub fn fit(
    network: &mut Network,
    config: &TrainConfig,
    x: &Matrix,
    y: &Matrix,
) -> Result<TrainingHistory, TrainError> {
    if x.rows() != y.rows() {
        return Err(TrainError::RowMismatch {
            x_rows: x.rows(),
            y_rows: y.rows(),
        });
    }
    if x.rows() == 0 {
        return Err(TrainError::EmptyDataset);
    }
    let start = std::time::Instant::now();
    let mut rng = StdRng::seed_from_u64(config.shuffle_seed);

    let mut indices: Vec<usize> = (0..x.rows()).collect();
    indices.shuffle(&mut rng);
    let n_val = ((x.rows() as f64) * config.validation_split).round() as usize;
    let n_val = n_val.min(x.rows().saturating_sub(1));
    let (val_idx, train_idx) = indices.split_at(n_val);
    let x_train = x.select_rows(train_idx);
    let y_train = y.select_rows(train_idx);
    let (x_val, y_val) = if n_val > 0 {
        (Some(x.select_rows(val_idx)), Some(y.select_rows(val_idx)))
    } else {
        (None, None)
    };

    let mut opt = config.optimizer.build();
    let mut history = TrainingHistory {
        train_loss: Vec::with_capacity(config.epochs),
        val_loss: Vec::with_capacity(config.epochs),
        train_seconds: 0.0,
    };
    let batch = config.batch_size.max(1);
    let mut order: Vec<usize> = (0..x_train.rows()).collect();
    let mut best_val = f64::INFINITY;
    let mut since_best = 0usize;

    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(batch) {
            epoch_loss += shard_step(
                network,
                &x_train,
                &y_train,
                chunk,
                config.loss,
                &mut opt,
                config.shards.max(1),
            );
            batches += 1;
        }
        history.train_loss.push(epoch_loss / batches.max(1) as f64);
        if let (Some(xv), Some(yv)) = (&x_val, &y_val) {
            let pred = predict(network, xv);
            let val = config.loss.value(&pred, yv);
            history.val_loss.push(val);
            if let Some(patience) = config.early_stop_patience {
                if val < best_val - 1e-12 {
                    best_val = val;
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best >= patience {
                        break;
                    }
                }
            }
        }
    }
    history.train_seconds = start.elapsed().as_secs_f64();
    Ok(history)
}

/// One sharded training step, implemented naively: the batch's rows are
/// partitioned by `engine::shard_bounds`, each shard's raw (unscaled)
/// gradient sums and loss partial are computed with fresh allocations
/// and explicit transposes, the per-shard results are folded with the
/// fixed pairwise tree (`tensor::reduce::tree_combine`), and the
/// combined sums are scaled by `1/rows` once before the optimizer
/// update. Returns the batch's mean loss.
///
/// This is the specification the workspace engine must match bitwise —
/// the whole-fit parity proptests in `train.rs` compare against it for
/// several thread counts.
pub fn shard_step(
    network: &mut Network,
    x: &Matrix,
    y: &Matrix,
    chunk: &[usize],
    loss: Loss,
    opt: &mut crate::optimizer::Optimizer,
    shards: usize,
) -> f64 {
    let rows = chunk.len();
    let n_eff = rows.min(shards).max(1);
    let mut totals = vec![0.0f64; n_eff];
    // Per shard, per layer: raw (grad_w, grad_b) sums.
    let mut grads: Vec<Vec<(Matrix, Matrix)>> = Vec::with_capacity(n_eff);

    // Indexing by shard keeps the loop in 1:1 correspondence with the
    // spec (`s` names the shard in both `shard_bounds` and `totals`).
    #[allow(clippy::needless_range_loop)]
    for s in 0..n_eff {
        let (s_start, s_len) = crate::engine::shard_bounds(rows, shards, s);
        let idx = &chunk[s_start..s_start + s_len];
        let xb = x.select_rows(idx);
        let yb = y.select_rows(idx);

        // Forward, capturing per-layer state.
        let mut states: Vec<LayerState> = Vec::with_capacity(network.layers().len());
        let mut a = xb.clone();
        for l in network.layers() {
            let z = matmul::matmul(&a, l.weights()).expect("layer/input width mismatch");
            let pre =
                ops::add_row_broadcast(&z, l.bias()).expect("bias shape verified at construction");
            let mut out = pre.clone();
            for r in 0..out.rows() {
                l.activation().apply_row(out.row_mut(r));
            }
            states.push(LayerState {
                input: a,
                pre,
                out: out.clone(),
            });
            a = out;
        }
        totals[s] = loss.total(&a, &yb);

        // Backward: raw sums, no per-shard averaging.
        let mut upstream = Matrix::zeros(0, 0);
        loss.shard_gradient_into(&a, &yb, &mut upstream);
        let mut grads_rev: Vec<(Matrix, Matrix)> = Vec::with_capacity(states.len());
        for (l, st) in network.layers().iter().zip(&states).rev() {
            let mut delta = Matrix::zeros(upstream.rows(), upstream.cols());
            for r in 0..upstream.rows() {
                l.activation().backward_row(
                    st.pre.row(r),
                    st.out.row(r),
                    upstream.row(r),
                    delta.row_mut(r),
                );
            }
            let grad_w =
                matmul::matmul(&st.input.transpose(), &delta).expect("shapes from forward");
            let grad_b = ops::sum_rows(&delta);
            upstream =
                matmul::matmul(&delta, &l.weights().transpose()).expect("shapes from forward");
            grads_rev.push((grad_w, grad_b));
        }
        grads_rev.reverse();
        grads.push(grads_rev);
    }

    // Fixed pairwise tree over the shard partials — the same fold
    // sequence the workspace pool executes.
    tensor::reduce::tree_combine(n_eff, |dst, src| {
        let (left, right) = grads.split_at_mut(src);
        for ((gw_d, gb_d), (gw_s, gb_s)) in left[dst].iter_mut().zip(right[0].iter()) {
            ops::add_assign(gw_d, gw_s).expect("same layer shapes");
            ops::add_assign(gb_d, gb_s).expect("same layer shapes");
        }
        totals[dst] += totals[src];
    });

    // Root scaling and the optimizer update, gradients-first as always.
    let inv = 1.0 / rows.max(1) as f64;
    for (gw, gb) in grads[0].iter_mut() {
        ops::scale_in_place(gw, inv);
        ops::scale_in_place(gb, inv);
    }
    opt.begin_step();
    for (i, (l, (gw, gb))) in network
        .layers_mut()
        .iter_mut()
        .zip(grads[0].iter())
        .enumerate()
    {
        opt.update(2 * i, l.weights_mut(), gw);
        opt.update(2 * i + 1, l.bias_mut(), gb);
    }
    totals[0] / (rows * y.cols()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::network::NetworkBuilder;

    #[test]
    fn reference_predict_matches_workspace_predict_bitwise() {
        let net = NetworkBuilder::new(3)
            .hidden(16, Activation::Selu)
            .hidden(16, Activation::Tanh)
            .output(2, Activation::Linear)
            .seed(42)
            .build();
        let mut rng = StdRng::seed_from_u64(9);
        let x = tensor::init::uniform(37, 3, -2.0, 2.0, &mut rng);
        let a = predict(&net, &x);
        let b = net.predict(&x);
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
