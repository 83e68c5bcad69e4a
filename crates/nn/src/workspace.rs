//! Reusable training/inference buffers: the heart of the zero-allocation
//! engine.
//!
//! A [`Workspace`] owns every intermediate matrix a forward/backward pass
//! needs — per-layer activations and activation derivatives, deltas,
//! parameter gradients, downstream gradients, plus the batch input and
//! the loss gradient. Buffers are sized from the network topology once;
//! every kernel resizes the buffers it writes to the batch at hand via
//! [`Matrix::resize_to`] (never reallocating within capacity), so
//! steady-state training steps perform **zero heap allocations** — see
//! `tests/zero_alloc.rs` for the counting-allocator proof.
//!
//! The workspace path is bitwise-identical to the allocating oracle in
//! [`crate::reference`]: every `_into` kernel it drives accumulates in the
//! same order as its allocating sibling (see the `tensor` crate docs),
//! which the parity proptests in `train.rs` assert end to end.

use crate::network::Network;
use crate::pool::Pool;
use tensor::Matrix;

/// The workspaces [`Workspace::with_pooled`] hands out.
static POOL: Pool<Workspace> = Pool::new();

/// Per-layer scratch buffers. Each kernel sizes the rows of the buffers
/// it writes to its batch; column counts are fixed by the layer shape.
#[derive(Debug, Clone)]
pub(crate) struct LayerWs {
    /// What backprop needs of the pre-activation `z = x W + b`,
    /// `(batch x out_dim)`: the derivative `act'(z)` for an elementwise
    /// activation, written by the training forward pass together with
    /// `out`; `z` itself for softmax. Inference leaves it untouched.
    pub(crate) pre: Matrix,
    /// Activation `a = act(z)`, `(batch x out_dim)`.
    pub(crate) out: Matrix,
    /// `dL/dz = dL/da ⊙ act'(z)` (softmax: the row Jacobian applied),
    /// `(batch x out_dim)`.
    pub(crate) delta: Matrix,
    /// `dL/dx` propagated to the previous layer, `(batch x in_dim)`.
    pub(crate) down: Matrix,
    /// `dL/dW`, `(in_dim x out_dim)` — fixed shape.
    pub(crate) grad_w: Matrix,
    /// `dL/db`, `(1 x out_dim)` — fixed shape.
    pub(crate) grad_b: Matrix,
}

/// Reusable buffers for [`Network::forward_ws`] / [`Network::shard_grads_ws`]
/// / [`Network::predict_into`].
///
/// Create one per training loop (or use [`Workspace::with_pooled`] for
/// ad-hoc inference) and pass it to every step; the first steps size the
/// buffers, after which no step allocates.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// `(in_dim, out_dim)` per layer — the topology the buffers were built
    /// for. A mismatch on `ensure` triggers a rebuild.
    topo: Vec<(usize, usize)>,
    /// One [`LayerWs`] per layer. After [`Network::forward_ws`] each holds
    /// the layer's activation and activation derivative;
    /// [`Network::shard_grads_ws`] consumes them into deltas and raw
    /// gradient sums.
    pub(crate) layers: Vec<LayerWs>,
    /// Copy of the current batch input, `(batch x in_dim)`.
    pub(crate) input: Matrix,
    /// `dL/dpred` seed for backprop, `(batch x out_dim)`.
    pub(crate) loss_grad: Matrix,
}

impl Workspace {
    /// Builds a workspace sized for `net` with an initial batch of `batch`
    /// rows. The batch dimension grows on demand; passing the largest batch
    /// up front avoids any later reallocation.
    pub fn for_network(net: &Network, batch: usize) -> Self {
        let mut ws = Self {
            topo: Vec::new(),
            layers: Vec::new(),
            input: Matrix::zeros(batch, net.in_dim()),
            loss_grad: Matrix::zeros(batch, net.out_dim()),
        };
        ws.rebuild(net, batch);
        ws
    }

    /// Makes the workspace match `net`'s topology, rebuilding it from
    /// scratch with `rows` rows on a change. Row counts are left alone:
    /// each kernel resizes the buffers it writes to its own batch, so a
    /// one-row call between two larger batches touches only the buffers
    /// that call writes.
    pub fn ensure(&mut self, net: &Network, rows: usize) {
        if !self.fits(net) {
            self.rebuild(net, rows);
        }
    }

    /// Whether the buffers were built for `net`'s topology.
    fn fits(&self, net: &Network) -> bool {
        self.topo.len() == net.layers().len()
            && self
                .topo
                .iter()
                .zip(net.layers())
                .all(|(&(i, o), l)| i == l.in_dim() && o == l.out_dim())
    }

    fn rebuild(&mut self, net: &Network, rows: usize) {
        self.topo = net
            .layers()
            .iter()
            .map(|l| (l.in_dim(), l.out_dim()))
            .collect();
        self.layers = self
            .topo
            .iter()
            .map(|&(in_dim, out_dim)| LayerWs {
                pre: Matrix::zeros(rows, out_dim),
                out: Matrix::zeros(rows, out_dim),
                delta: Matrix::zeros(rows, out_dim),
                down: Matrix::zeros(rows, in_dim),
                grad_w: Matrix::zeros(in_dim, out_dim),
                grad_b: Matrix::zeros(1, out_dim),
            })
            .collect();
        self.input.resize_to(rows, net.in_dim());
        self.loss_grad.resize_to(rows, net.out_dim());
    }

    /// The activations of the final layer after a forward pass — the
    /// network output. For a layerless network this is the (copied) input.
    pub fn output(&self) -> &Matrix {
        self.layers.last().map_or(&self.input, |lw| &lw.out)
    }

    /// Folds another workspace's parameter-gradient buffers into this
    /// one: `grad_w += src.grad_w`, `grad_b += src.grad_b` per layer.
    ///
    /// One combine step of the fixed-shard gradient reduction (see
    /// `tensor::reduce::tree_combine` and `crate::engine`): plain
    /// left-to-right elementwise adds, so the reduction's floating-point
    /// sequence is a function of the tree shape alone. Both workspaces
    /// must be built for the same topology.
    pub fn combine_grads_from(&mut self, src: &Workspace) {
        debug_assert_eq!(self.topo, src.topo, "combining mismatched workspaces");
        for (dst, s) in self.layers.iter_mut().zip(&src.layers) {
            tensor::ops::add_assign(&mut dst.grad_w, &s.grad_w).expect("same topology");
            tensor::ops::add_assign(&mut dst.grad_b, &s.grad_b).expect("same topology");
        }
    }

    /// Runs `f` with a workspace built for `net`'s topology, taken from
    /// a small process-wide pool and put back afterwards; the pool builds
    /// one when none of its free workspaces fits. Repeated inference with
    /// the same topology reuses the buffers, so it is allocation-free, and
    /// the pool holds only as many workspaces as calls ever ran at once,
    /// however many threads make them.
    pub fn with_pooled<R>(net: &Network, f: impl FnOnce(&mut Workspace) -> R) -> R {
        let mut ws = POOL
            .take(|ws| ws.fits(net))
            .unwrap_or_else(|| Workspace::for_network(net, 1));
        let out = f(&mut ws);
        POOL.put(ws);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::network::NetworkBuilder;
    use rand::SeedableRng;

    fn net() -> Network {
        NetworkBuilder::new(3)
            .hidden(8, Activation::Selu)
            .output(2, Activation::Linear)
            .seed(0)
            .build()
    }

    #[test]
    fn for_network_sizes_buffers_from_topology() {
        let ws = Workspace::for_network(&net(), 16);
        assert_eq!(ws.layers.len(), 2);
        assert_eq!(ws.layers[0].pre.shape(), (16, 8));
        assert_eq!(ws.layers[0].down.shape(), (16, 3));
        assert_eq!(ws.layers[0].grad_w.shape(), (3, 8));
        assert_eq!(ws.layers[1].grad_b.shape(), (1, 2));
        assert_eq!(ws.input.shape(), (16, 3));
        assert_eq!(ws.loss_grad.shape(), (16, 2));
    }

    #[test]
    fn smaller_batches_reuse_the_buffers() {
        let n = net();
        let mut ws = Workspace::for_network(&n, 32);
        let ptr = ws.layers[0].pre.as_slice().as_ptr();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        n.forward_ws(&tensor::init::uniform(7, 3, -1.0, 1.0, &mut rng), &mut ws);
        assert_eq!(ws.layers[0].pre.shape(), (7, 8));
        assert_eq!(ws.layers[0].pre.as_slice().as_ptr(), ptr);
        n.forward_ws(&tensor::init::uniform(32, 3, -1.0, 1.0, &mut rng), &mut ws);
        assert_eq!(ws.layers[0].pre.shape(), (32, 8));
        assert_eq!(ws.layers[0].pre.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn ensure_rebuilds_on_topology_change() {
        let mut ws = Workspace::for_network(&net(), 4);
        let other = NetworkBuilder::new(5)
            .output(1, Activation::Linear)
            .seed(0)
            .build();
        ws.ensure(&other, 4);
        assert_eq!(ws.layers.len(), 1);
        assert_eq!(ws.layers[0].grad_w.shape(), (5, 1));
    }

    #[test]
    fn pooled_workspace_fits_and_is_reused_across_threads() {
        // A topology no other test builds, so no other test's calls
        // take this test's workspace from the shared pool.
        let n = NetworkBuilder::new(7)
            .hidden(5, Activation::Selu)
            .output(3, Activation::Linear)
            .seed(0)
            .build();
        let p1 = Workspace::with_pooled(&n, |ws| {
            assert!(ws.fits(&n));
            ws.ensure(&n, 8);
            ws.layers[0].pre.as_slice().as_ptr() as usize
        });
        let p2 = std::thread::spawn(move || {
            Workspace::with_pooled(&n, |ws| ws.layers[0].pre.as_slice().as_ptr() as usize)
        })
        .join()
        .unwrap();
        assert_eq!(p1, p2, "another thread built a second workspace");
    }
}
