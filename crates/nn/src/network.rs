//! A feedforward network: a stack of dense layers with backprop.

use crate::activation::Activation;
use crate::layer::Dense;
use crate::loss::Loss;
use crate::optimizer::Optimizer;
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tensor::Matrix;

/// A feedforward neural network (multi-layer perceptron).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Dense>,
}

impl Network {
    /// Builds a network from explicit layers.
    ///
    /// # Panics
    /// Panics if consecutive layer dimensions do not chain.
    pub fn new(layers: Vec<Dense>) -> Self {
        for w in layers.windows(2) {
            assert_eq!(
                w[0].out_dim(),
                w[1].in_dim(),
                "layer output {} does not feed next layer input {}",
                w[0].out_dim(),
                w[1].in_dim()
            );
        }
        Self { layers }
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable layer access for the in-crate reference implementation.
    pub(crate) fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Dense::in_dim)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Dense::out_dim)
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights().len() + l.bias().len())
            .sum()
    }

    /// Inference forward pass (no caches touched).
    ///
    /// Runs through a pooled [`Workspace`] ([`Workspace::with_pooled`]),
    /// so repeated calls are allocation-free apart from the returned
    /// output matrix.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        if self.layers.is_empty() {
            return x.clone();
        }
        Workspace::with_pooled(self, |ws| self.predict_into(x, ws).clone())
    }

    /// Inference forward pass into a caller-provided workspace, returning a
    /// borrow of the output buffer. Fully allocation-free once the
    /// workspace has warmed up. Bitwise-identical to [`Network::predict`].
    pub fn predict_into<'w>(&self, x: &Matrix, ws: &'w mut Workspace) -> &'w Matrix {
        ws.ensure(self, x.rows());
        if self.layers.is_empty() {
            ws.input.resize_to(x.rows(), x.cols());
            ws.input.copy_from(x);
            return &ws.input;
        }
        for i in 0..self.layers.len() {
            let (done, rest) = ws.layers.split_at_mut(i);
            let cur = &mut rest[0];
            let input_i: &Matrix = if i == 0 { x } else { &done[i - 1].out };
            self.layers[i].apply_into(input_i, &mut cur.out);
        }
        ws.output()
    }

    /// Training forward pass into a caller-provided workspace. The input is
    /// copied into the workspace and every layer's activation and
    /// activation derivative are retained for [`Network::shard_grads_ws`].
    /// Allocation-free once the workspace has warmed up.
    pub fn forward_ws(&self, x: &Matrix, ws: &mut Workspace) {
        ws.ensure(self, x.rows());
        ws.input.resize_to(x.rows(), x.cols());
        ws.input.copy_from(x);
        for i in 0..self.layers.len() {
            let (done, rest) = ws.layers.split_at_mut(i);
            let cur = &mut rest[0];
            let input_i: &Matrix = if i == 0 { &ws.input } else { &done[i - 1].out };
            self.layers[i].forward_into(input_i, &mut cur.pre, &mut cur.out);
        }
    }

    /// Sharded backprop: computes the *raw* (unscaled) parameter-gradient
    /// sums and loss partial for one shard of a mini-batch, leaving them
    /// in `ws` without touching any parameter. Must follow a
    /// [`Network::forward_ws`] call on the same shard and workspace.
    ///
    /// This is the per-worker kernel of the deterministic data-parallel
    /// engine (see [`crate::engine`]): each shard's sums are later folded
    /// with [`Workspace::combine_grads_from`] along a fixed pairwise tree
    /// and applied once via [`Network::apply_combined_grads`]. Returns the
    /// shard's raw loss sum (no normalization). Allocation-free once the
    /// workspace has warmed up.
    pub fn shard_grads_ws(&self, target: &Matrix, loss: Loss, ws: &mut Workspace) -> f64 {
        let n = self.layers.len();
        let Workspace {
            layers: lws,
            input,
            loss_grad,
            ..
        } = ws;
        let pred: &Matrix = lws.last().map_or(&*input, |lw| &lw.out);
        let total = loss.total(pred, target);
        loss.shard_gradient_into(pred, target, loss_grad);
        for i in (0..n).rev() {
            let (left, right) = lws.split_at_mut(i);
            let (cur, after) = right.split_first_mut().expect("layer workspace exists");
            let upstream: &Matrix = if i == n - 1 {
                loss_grad
            } else {
                &after[0].down
            };
            let input_i: &Matrix = if i == 0 { input } else { &left[i - 1].out };
            let down = if i == 0 { None } else { Some(&mut cur.down) };
            self.layers[i].backward_sums_into(
                input_i,
                &cur.pre,
                &cur.out,
                upstream,
                &mut cur.delta,
                &mut cur.grad_w,
                &mut cur.grad_b,
                down,
            );
        }
        total
    }

    /// Applies one optimizer step from tree-combined raw gradient sums:
    /// scales every layer's `grad_w`/`grad_b` in `ws` by `1/batch_rows`
    /// (the root scaling of the shard reduction — exactly one division
    /// per element for the whole batch), then updates every parameter
    /// with the usual slot ids. `ws` is the reduction root produced by
    /// folding all shard workspaces together.
    pub fn apply_combined_grads(
        &mut self,
        opt: &mut Optimizer,
        ws: &mut Workspace,
        batch_rows: usize,
    ) {
        let inv = 1.0 / batch_rows.max(1) as f64;
        for lw in ws.layers.iter_mut() {
            tensor::ops::scale_in_place(&mut lw.grad_w, inv);
            tensor::ops::scale_in_place(&mut lw.grad_b, inv);
        }
        opt.begin_step();
        for (i, (l, lw)) in self.layers.iter_mut().zip(ws.layers.iter()).enumerate() {
            opt.update(2 * i, l.weights_mut(), &lw.grad_w);
            opt.update(2 * i + 1, l.bias_mut(), &lw.grad_b);
        }
    }

    /// Serializes the network to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("network serializes")
    }

    /// Deserializes a network from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Fluent builder for [`Network`] with seeded initialization.
///
/// See the crate-level docs for the paper's 3x64 SELU configuration.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    in_dim: usize,
    specs: Vec<(usize, Activation)>,
    seed: u64,
}

impl NetworkBuilder {
    /// Starts a builder for a network with `in_dim` input features.
    pub fn new(in_dim: usize) -> Self {
        Self {
            in_dim,
            specs: Vec::new(),
            seed: 0,
        }
    }

    /// Appends a hidden layer of `width` neurons.
    pub fn hidden(mut self, width: usize, activation: Activation) -> Self {
        self.specs.push((width, activation));
        self
    }

    /// Appends the output layer (call last).
    pub fn output(mut self, width: usize, activation: Activation) -> Self {
        self.specs.push((width, activation));
        self
    }

    /// Sets the RNG seed used for weight initialization.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Initializes the network.
    ///
    /// # Panics
    /// Panics if no layers were specified.
    pub fn build(self) -> Network {
        assert!(!self.specs.is_empty(), "network needs at least one layer");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut layers = Vec::with_capacity(self.specs.len());
        let mut fan_in = self.in_dim;
        for (width, act) in self.specs {
            layers.push(Dense::init(fan_in, width, act, &mut rng));
            fan_in = width;
        }
        Network::new(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizerKind;
    use crate::train::{TrainConfig, Trainer};

    fn tiny_net(seed: u64) -> Network {
        NetworkBuilder::new(2)
            .hidden(8, Activation::Selu)
            .hidden(8, Activation::Selu)
            .output(1, Activation::Linear)
            .seed(seed)
            .build()
    }

    #[test]
    fn builder_chains_dimensions() {
        let net = tiny_net(0);
        assert_eq!(net.in_dim(), 2);
        assert_eq!(net.out_dim(), 1);
        assert_eq!(net.layers().len(), 3);
        assert_eq!(net.num_params(), 2 * 8 + 8 + 8 * 8 + 8 + 8 + 1);
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let a = tiny_net(7);
        let b = tiny_net(7);
        let c = tiny_net(8);
        let x = Matrix::row_vector(&[0.3, -0.4]);
        assert_eq!(a.predict(&x), b.predict(&x));
        assert_ne!(a.predict(&x), c.predict(&x));
    }

    #[test]
    #[should_panic(expected = "does not feed")]
    fn mismatched_layers_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        let l1 = Dense::init(2, 4, Activation::Relu, &mut rng);
        let l2 = Dense::init(5, 1, Activation::Linear, &mut rng);
        let _ = Network::new(vec![l1, l2]);
    }

    /// Full-batch training through [`Trainer::fit`]: one step per epoch on
    /// every row, no validation hold-out — the workspace kernels the
    /// trainer shards each step across.
    fn full_batch(epochs: usize, rows: usize, optimizer: OptimizerKind) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: rows,
            optimizer,
            validation_split: 0.0,
            ..TrainConfig::default()
        }
    }

    /// End-to-end: a small net must fit y = x0 + 2*x1 almost exactly.
    #[test]
    fn learns_linear_function() {
        let adam = OptimizerKind::Adam {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let x = tensor::init::uniform(256, 2, -1.0, 1.0, &mut rng);
        let y_vals: Vec<f64> = x.rows_iter().map(|r| r[0] + 2.0 * r[1]).collect();
        let y = Matrix::col_vector(&y_vals);

        let mut trainer = Trainer::new(tiny_net(1), full_batch(400, x.rows(), adam));
        let history = trainer.fit(&x, &y).unwrap();
        let last = *history.train_loss.last().unwrap();
        assert!(last < 1e-3, "final loss {last}");
    }

    /// SELU + RMSprop (the paper's recipe) learns a nonlinear target.
    #[test]
    fn learns_nonlinear_function_with_paper_recipe() {
        let net = NetworkBuilder::new(2)
            .hidden(16, Activation::Selu)
            .hidden(16, Activation::Selu)
            .output(1, Activation::Linear)
            .seed(3)
            .build();
        let mut rng = StdRng::seed_from_u64(4);
        let x = tensor::init::uniform(512, 2, -1.0, 1.0, &mut rng);
        let y_vals: Vec<f64> = x
            .rows_iter()
            .map(|r| (r[0] * r[1]).tanh() + 0.5 * r[0])
            .collect();
        let y = Matrix::col_vector(&y_vals);

        let first = Loss::Mse.value(&net.predict(&x), &y);
        let cfg = full_batch(600, x.rows(), OptimizerKind::paper_default());
        let mut trainer = Trainer::new(net, cfg);
        let history = trainer.fit(&x, &y).unwrap();
        let last = *history.train_loss.last().unwrap();
        assert!(last < first / 10.0, "loss went {first} -> {last}");
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let net = tiny_net(6);
        let x = Matrix::row_vector(&[0.1, 0.9]);
        let json = net.to_json();
        let back = Network::from_json(&json).unwrap();
        assert_eq!(net.predict(&x), back.predict(&x));
    }
}
