//! Mini-batch training loop with train/validation split and loss history.
//!
//! Mirrors the paper's procedure (Section 4.3): the dataset is split 80/20
//! into train and validation sets, trained with mini-batches of 64, and the
//! per-epoch train/validation losses are recorded — those curves are
//! Figure 6 of the paper.
//!
//! Every mini-batch is processed as [`TrainConfig::shards`] fixed logical
//! shards whose gradients are combined with a fixed-shape pairwise tree
//! (see [`crate::engine`]), so the trained network is bitwise identical
//! whatever the size of the `rayon` pool the shards run on — including a
//! pool of one thread (`DVFS_THREADS=1`), which runs every step inline.

use crate::engine::{self, ShardSlot};
use crate::loss::Loss;
use crate::network::Network;
use crate::optimizer::OptimizerKind;
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tensor::Matrix;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Mini-batch size (the paper uses 64).
    pub batch_size: usize,
    /// Optimizer configuration.
    pub optimizer: OptimizerKind,
    /// Loss function.
    pub loss: Loss,
    /// Fraction of rows held out for validation (paper: 0.2).
    pub validation_split: f64,
    /// Seed for shuffling and the train/validation split.
    pub shuffle_seed: u64,
    /// Stop early when the validation loss has not improved for this many
    /// epochs (None disables). The paper picked its epoch budgets by
    /// watching exactly this signal on Figure 6; early stopping automates
    /// it. Requires a non-zero validation split.
    pub early_stop_patience: Option<usize>,
    /// Number of fixed logical gradient shards per mini-batch. The
    /// trained network depends on this value (it defines the gradient
    /// reduction tree) but **not** on how many threads run the shards.
    /// Values `< 1` behave as 1.
    pub shards: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            batch_size: 64,
            optimizer: OptimizerKind::paper_default(),
            loss: Loss::Mse,
            validation_split: 0.2,
            shuffle_seed: 0,
            early_stop_patience: None,
            shards: engine::DEFAULT_SHARDS,
        }
    }
}

/// Per-epoch loss history produced by [`Trainer::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Mean training loss of each epoch.
    pub train_loss: Vec<f64>,
    /// Validation loss at the end of each epoch (empty if no split).
    pub val_loss: Vec<f64>,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
}

impl TrainingHistory {
    /// Epoch index (0-based) with the lowest validation loss, if any.
    pub fn best_epoch(&self) -> Option<usize> {
        tensor::reduce::argmin(&self.val_loss)
    }
}

/// Errors from the training loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// `x` and `y` row counts differ.
    RowMismatch {
        /// Rows in the feature matrix.
        x_rows: usize,
        /// Rows in the target matrix.
        y_rows: usize,
    },
    /// Dataset is empty.
    EmptyDataset,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::RowMismatch { x_rows, y_rows } => {
                write!(f, "x has {x_rows} rows but y has {y_rows}")
            }
            TrainError::EmptyDataset => write!(f, "cannot train on an empty dataset"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Drives mini-batch training of a [`Network`].
#[derive(Debug)]
pub struct Trainer {
    network: Network,
    config: TrainConfig,
}

impl Trainer {
    /// Wraps `network` with the given configuration.
    pub fn new(network: Network, config: TrainConfig) -> Self {
        Self { network, config }
    }

    /// The wrapped network (e.g. after training).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Consumes the trainer, returning the trained network.
    pub fn into_network(self) -> Network {
        self.network
    }

    /// Trains on `(x, y)` and returns the loss history.
    pub fn fit(&mut self, x: &Matrix, y: &Matrix) -> Result<TrainingHistory, TrainError> {
        if x.rows() != y.rows() {
            return Err(TrainError::RowMismatch {
                x_rows: x.rows(),
                y_rows: y.rows(),
            });
        }
        if x.rows() == 0 {
            return Err(TrainError::EmptyDataset);
        }
        obs::span!("fit");
        let loss_gauge = obs::global().gauge("train.loss");
        let val_gauge = obs::global().gauge("train.val_loss");
        // Loss curves also land on the flight-recorder timeline as
        // counter tracks, so a trace shows convergence next to the
        // epoch spans. Ids are interned once, off the epoch loop.
        let trace_loss = obs::trace::intern("train.loss");
        let trace_val = obs::trace::intern("train.val_loss");
        let start = std::time::Instant::now();
        let mut rng = StdRng::seed_from_u64(self.config.shuffle_seed);

        // Split rows into train / validation.
        let mut indices: Vec<usize> = (0..x.rows()).collect();
        indices.shuffle(&mut rng);
        let n_val = ((x.rows() as f64) * self.config.validation_split).round() as usize;
        let n_val = n_val.min(x.rows().saturating_sub(1));
        let (val_idx, train_idx) = indices.split_at(n_val);
        let x_train = x.select_rows(train_idx);
        let y_train = y.select_rows(train_idx);
        let (x_val, y_val) = if n_val > 0 {
            (Some(x.select_rows(val_idx)), Some(y.select_rows(val_idx)))
        } else {
            (None, None)
        };

        let mut opt = self.config.optimizer.build();
        let mut history = TrainingHistory {
            train_loss: Vec::with_capacity(self.config.epochs),
            val_loss: Vec::with_capacity(self.config.epochs),
            train_seconds: 0.0,
        };
        let batch = self.config.batch_size.max(1);
        let n_train = x_train.rows();
        let y_cols = y_train.cols();
        let mut best_val = f64::INFINITY;
        let mut since_best = 0usize;

        let shards = self.config.shards.max(1);
        let max_shard_rows = engine::shard_bounds(batch.min(n_train), shards, 0).1.max(1);
        // Each step is one parallel call over the shard slots: one
        // contiguous run of shards per pool thread.
        let run_len = shards.div_ceil(rayon::current_num_threads());
        obs::global()
            .gauge("train.threads")
            .set(shards.div_ceil(run_len) as f64);
        obs::global()
            .gauge("train.shard_size")
            .set(max_shard_rows as f64);
        // Each run of shards lands on the flight-recorder timeline as one
        // complete event on the thread that ran it.
        let trace_run = obs::trace::intern("shard_worker");

        // Persistent per-shard buffers: every slot's workspace and gather
        // targets are sized for the largest shard once and reused for
        // every step, so the shard loop performs no heap allocation in
        // steady state (tests/zero_alloc_sharded.rs proves this with a
        // counting allocator). The parallel call that runs it allocates
        // a few bookkeeping records per step (tests/zero_alloc.rs bounds
        // them).
        let mut slots: Vec<ShardSlot> = (0..shards)
            .map(|_| ShardSlot::new(&self.network, max_shard_rows))
            .collect();
        let mut ws_val = x_val
            .as_ref()
            .map(|xv| Workspace::for_network(&self.network, xv.rows()));
        let mut order: Vec<usize> = (0..n_train).collect();
        let loss = self.config.loss;

        for _ in 0..self.config.epochs {
            obs::span!("epoch");
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            let mut begin = 0usize;
            while begin < n_train {
                let len = batch.min(n_train - begin);
                let rows = &order[begin..begin + len];
                let (net, x, y) = (&self.network, &x_train, &y_train);
                slots
                    .par_chunks_mut(run_len)
                    .enumerate()
                    .for_each(|(run, run_slots)| {
                        let t0 = obs::trace::enabled().then(obs::trace::now_ns);
                        for (i, slot) in run_slots.iter_mut().enumerate() {
                            let (start, n) = engine::shard_bounds(len, shards, run * run_len + i);
                            if n > 0 {
                                slot.step(net, x, y, &rows[start..start + n], loss);
                            }
                        }
                        if let Some(t0) = t0 {
                            obs::trace::complete(trace_run, t0, &[]);
                        }
                    });
                let total = engine::reduce(&mut slots, len.min(shards));
                self.network
                    .apply_combined_grads(&mut opt, &mut slots[0].ws, len);
                epoch_loss += total / (len * y_cols) as f64;
                batches += 1;
                begin += len;
            }
            let mean_loss = epoch_loss / batches.max(1) as f64;
            loss_gauge.set(mean_loss);
            obs::trace::counter(trace_loss, mean_loss);
            history.train_loss.push(mean_loss);
            if let (Some(xv), Some(yv)) = (&x_val, &y_val) {
                let val = {
                    obs::span!("validate");
                    let ws = ws_val.as_mut().expect("validation workspace exists");
                    let pred = self.network.predict_into(xv, ws);
                    loss.value(pred, yv)
                };
                val_gauge.set(val);
                obs::trace::counter(trace_val, val);
                history.val_loss.push(val);
                if let Some(patience) = self.config.early_stop_patience {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::network::NetworkBuilder;

    fn dataset(n: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = tensor::init::uniform(n, 3, 0.0, 1.0, &mut rng);
        let y_vals: Vec<f64> = x
            .rows_iter()
            .map(|r| 0.5 * r[0] + r[1] * r[1] - 0.3 * r[2] + 0.1)
            .collect();
        (x, Matrix::col_vector(&y_vals))
    }

    fn paper_net(seed: u64) -> Network {
        NetworkBuilder::new(3)
            .hidden(64, Activation::Selu)
            .hidden(64, Activation::Selu)
            .hidden(64, Activation::Selu)
            .output(1, Activation::Linear)
            .seed(seed)
            .build()
    }

    #[test]
    fn fit_records_history_lengths() {
        let (x, y) = dataset(200, 1);
        let mut t = Trainer::new(
            paper_net(1),
            TrainConfig {
                epochs: 5,
                ..TrainConfig::default()
            },
        );
        let h = t.fit(&x, &y).unwrap();
        assert_eq!(h.train_loss.len(), 5);
        assert_eq!(h.val_loss.len(), 5);
        assert!(h.train_seconds > 0.0);
    }

    #[test]
    fn training_reduces_loss() {
        let (x, y) = dataset(500, 2);
        let mut t = Trainer::new(
            paper_net(2),
            TrainConfig {
                epochs: 30,
                ..TrainConfig::default()
            },
        );
        let h = t.fit(&x, &y).unwrap();
        let first = h.train_loss[0];
        let last = *h.train_loss.last().unwrap();
        assert!(last < first / 5.0, "loss went {first} -> {last}");
        // Validation tracks training (no catastrophic overfit on this toy).
        assert!(*h.val_loss.last().unwrap() < h.val_loss[0]);
    }

    #[test]
    fn row_mismatch_is_error() {
        let (x, _) = dataset(10, 3);
        let y = Matrix::zeros(5, 1);
        let mut t = Trainer::new(paper_net(3), TrainConfig::default());
        assert_eq!(
            t.fit(&x, &y),
            Err(TrainError::RowMismatch {
                x_rows: 10,
                y_rows: 5
            })
        );
    }

    #[test]
    fn empty_dataset_is_error() {
        let x = Matrix::zeros(0, 3);
        let y = Matrix::zeros(0, 1);
        let mut t = Trainer::new(paper_net(4), TrainConfig::default());
        assert_eq!(t.fit(&x, &y), Err(TrainError::EmptyDataset));
    }

    #[test]
    fn zero_validation_split_trains_on_everything() {
        let (x, y) = dataset(50, 5);
        let mut t = Trainer::new(
            paper_net(5),
            TrainConfig {
                epochs: 2,
                validation_split: 0.0,
                ..TrainConfig::default()
            },
        );
        let h = t.fit(&x, &y).unwrap();
        assert!(h.val_loss.is_empty());
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = dataset(100, 6);
        let cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        let mut t1 = Trainer::new(paper_net(6), cfg);
        let mut t2 = Trainer::new(paper_net(6), cfg);
        let h1 = t1.fit(&x, &y).unwrap();
        let h2 = t2.fit(&x, &y).unwrap();
        assert_eq!(h1.train_loss, h2.train_loss);
        let probe = Matrix::row_vector(&[0.2, 0.4, 0.6]);
        assert_eq!(t1.network().predict(&probe), t2.network().predict(&probe));
    }

    #[test]
    fn early_stopping_halts_before_the_budget() {
        let (x, y) = dataset(300, 9);
        let mut t = Trainer::new(
            paper_net(9),
            TrainConfig {
                epochs: 200,
                early_stop_patience: Some(3),
                ..TrainConfig::default()
            },
        );
        let h = t.fit(&x, &y).unwrap();
        assert!(
            h.train_loss.len() < 200,
            "ran all {} epochs",
            h.train_loss.len()
        );
        // The history still records one validation loss per executed epoch.
        assert_eq!(h.train_loss.len(), h.val_loss.len());
    }

    #[test]
    fn early_stopping_needs_a_validation_split_to_trigger() {
        let (x, y) = dataset(100, 10);
        let mut t = Trainer::new(
            paper_net(10),
            TrainConfig {
                epochs: 8,
                validation_split: 0.0,
                early_stop_patience: Some(1),
                ..TrainConfig::default()
            },
        );
        // No validation set -> the patience counter never advances.
        let h = t.fit(&x, &y).unwrap();
        assert_eq!(h.train_loss.len(), 8);
    }

    #[test]
    fn best_epoch_finds_minimum() {
        let h = TrainingHistory {
            train_loss: vec![3.0, 2.0, 1.0],
            val_loss: vec![3.0, 1.5, 2.0],
            train_seconds: 0.1,
        };
        assert_eq!(h.best_epoch(), Some(1));
    }

    #[test]
    fn fit_records_spans_and_loss_gauges() {
        let (x, y) = dataset(100, 11);
        let mut t = Trainer::new(
            paper_net(11),
            TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
        );
        t.fit(&x, &y).unwrap();
        let fit = obs::span::stat("fit").expect("fit span recorded");
        assert!(fit.count >= 1);
        let epoch = obs::span::stat("fit/epoch").expect("epoch spans recorded");
        assert!(epoch.count >= 3);
        // Other tests train concurrently, so only shape-check the shared
        // gauges: the last written loss is finite and positive.
        let loss = obs::global().gauge("train.loss").get();
        assert!(loss.is_finite() && loss > 0.0, "train.loss gauge = {loss}");
    }

    #[test]
    fn trained_network_round_trips_through_json() {
        let (x, y) = dataset(120, 12);
        let mut t = Trainer::new(
            paper_net(12),
            TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
        );
        t.fit(&x, &y).unwrap();
        let net = t.into_network();
        // Training state lives in the trainer's workspaces, never in the
        // network: the JSON is the parameters alone, and a restored
        // network re-serializes and predicts identically.
        let json = net.to_json();
        let back = Network::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json);
        let probe = Matrix::row_vector(&[0.3, 0.6, 0.9]);
        assert_eq!(net.predict(&probe), back.predict(&probe));
    }

    #[test]
    fn early_stop_triggers_at_the_epoch_the_patience_rule_dictates() {
        let (x, y) = dataset(300, 13);
        let patience = 3usize;
        let mut t = Trainer::new(
            paper_net(13),
            TrainConfig {
                epochs: 200,
                early_stop_patience: Some(patience),
                ..TrainConfig::default()
            },
        );
        let h = t.fit(&x, &y).unwrap();
        let executed = h.val_loss.len();
        assert!(executed < 200, "expected an early stop, ran {executed}");
        // Re-derive the stop epoch from the recorded curve with the same
        // strict-improvement rule (val < best - 1e-12) and check they agree.
        let mut best = f64::INFINITY;
        let mut since_best = 0usize;
        let mut stop_after = None;
        for (e, &v) in h.val_loss.iter().enumerate() {
            if v < best - 1e-12 {
                best = v;
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= patience {
                    stop_after = Some(e);
                    break;
                }
            }
        }
        assert_eq!(
            stop_after,
            Some(executed - 1),
            "fit stopped at a different epoch than its recorded curve implies"
        );
    }

    #[test]
    fn best_epoch_agrees_with_recorded_val_loss_minimum() {
        let (x, y) = dataset(250, 14);
        let mut t = Trainer::new(
            paper_net(14),
            TrainConfig {
                epochs: 40,
                early_stop_patience: Some(5),
                ..TrainConfig::default()
            },
        );
        let h = t.fit(&x, &y).unwrap();
        let manual = h
            .val_loss
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i);
        assert_eq!(h.best_epoch(), manual);
        assert!(h.best_epoch().is_some());
    }

    #[test]
    fn patience_without_validation_split_is_deterministically_ignored() {
        let (x, y) = dataset(100, 15);
        let cfg = TrainConfig {
            epochs: 6,
            validation_split: 0.0,
            early_stop_patience: Some(1),
            ..TrainConfig::default()
        };
        // Patience needs a validation signal; without one it is ignored and
        // the full epoch budget runs — identically on every invocation.
        let mut t1 = Trainer::new(paper_net(15), cfg);
        let mut t2 = Trainer::new(paper_net(15), cfg);
        let h1 = t1.fit(&x, &y).unwrap();
        let h2 = t2.fit(&x, &y).unwrap();
        assert_eq!(h1.train_loss.len(), 6);
        assert!(h1.val_loss.is_empty());
        assert_eq!(h1.train_loss, h2.train_loss);
    }

    mod parity {
        use super::*;
        use crate::reference;
        use proptest::prelude::*;

        /// The workspace-path `fit` must be *bitwise* identical to the
        /// naive allocating oracle — same loss curves, same final weights,
        /// same predictions — for any seed, batch size and split. This
        /// runs on the test process's pool; `tests/thread_counts.rs` in
        /// the root package repeats these cases at other pool sizes.
        fn assert_fit_parity(cfg: TrainConfig, net_seed: u64, data_seed: u64, rows: usize) {
            assert_fit_parity_on(paper_tiny(net_seed), cfg, data_seed, rows);
        }

        /// [`assert_fit_parity`] from an explicit starting network.
        fn assert_fit_parity_on(base: Network, cfg: TrainConfig, data_seed: u64, rows: usize) {
            let (x, y) = dataset(rows, data_seed);
            let mut net_ref = base.clone();
            let h_ref = reference::fit(&mut net_ref, &cfg, &x, &y).unwrap();

            let mut t = Trainer::new(base, cfg);
            let h_ws = t.fit(&x, &y).unwrap();
            let net_ws = t.into_network();

            assert_eq!(h_ref.train_loss, h_ws.train_loss, "train loss diverged");
            assert_eq!(h_ref.val_loss, h_ws.val_loss, "val loss diverged");
            for (lr, lw) in net_ref.layers().iter().zip(net_ws.layers()) {
                assert_eq!(
                    lr.weights().as_slice(),
                    lw.weights().as_slice(),
                    "weights diverged"
                );
                assert_eq!(lr.bias().as_slice(), lw.bias().as_slice(), "bias diverged");
            }
            let probe = Matrix::row_vector(&[0.1, 0.5, 0.9]);
            assert_eq!(
                reference::predict(&net_ref, &probe).as_slice(),
                net_ws.predict(&probe).as_slice(),
                "predictions diverged"
            );
        }

        fn paper_tiny(seed: u64) -> Network {
            NetworkBuilder::new(3)
                .hidden(16, Activation::Selu)
                .hidden(16, Activation::Selu)
                .output(1, Activation::Linear)
                .seed(seed)
                .build()
        }

        #[test]
        fn fit_matches_reference_with_paper_defaults() {
            assert_fit_parity(
                TrainConfig {
                    epochs: 4,
                    ..TrainConfig::default()
                },
                1,
                2,
                200,
            );
        }

        /// The paper's 3×64 SELU topology, where every hidden product is
        /// 64 wide (the 16-wide nets above never reach that width). 200
        /// rows give 160 training rows: two full 64-row batches of 8-row
        /// shards and a 32-row tail batch of 4-row shards.
        #[test]
        fn fit_matches_reference_on_paper_topology() {
            assert_fit_parity_on(
                super::paper_net(5),
                TrainConfig {
                    epochs: 3,
                    ..TrainConfig::default()
                },
                6,
                200,
            );
        }

        #[test]
        fn fit_matches_reference_with_early_stopping() {
            assert_fit_parity(
                TrainConfig {
                    epochs: 30,
                    early_stop_patience: Some(2),
                    ..TrainConfig::default()
                },
                3,
                4,
                150,
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]
            #[test]
            fn fit_matches_reference_bitwise(
                net_seed in 0u64..50,
                data_seed in 0u64..50,
                batch_size in 1usize..96,
                rows in 20usize..160,
                split_idx in 0usize..3,
                epochs in 1usize..4,
            ) {
                assert_fit_parity(
                    TrainConfig {
                        epochs,
                        batch_size,
                        validation_split: [0.0, 0.2, 0.5][split_idx],
                        shuffle_seed: data_seed ^ 0x5eed,
                        ..TrainConfig::default()
                    },
                    net_seed,
                    data_seed,
                    rows,
                );
            }
        }
    }

    #[test]
    fn single_row_dataset_trains() {
        let x = Matrix::row_vector(&[0.1, 0.2, 0.3]);
        let y = Matrix::col_vector(&[1.0]);
        let mut t = Trainer::new(
            paper_net(7),
            TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
        );
        // Validation split rounds to 0 held-out rows (min keeps 1 train row).
        let h = t.fit(&x, &y).unwrap();
        assert_eq!(h.train_loss.len(), 2);
    }
}
