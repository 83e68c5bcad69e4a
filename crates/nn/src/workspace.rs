//! Reusable training/inference buffers: the heart of the zero-allocation
//! engine.
//!
//! A [`Workspace`] owns every intermediate matrix a forward/backward pass
//! needs — per-layer pre-activations, activations, deltas, parameter
//! gradients, downstream gradients, plus the batch input and the loss
//! gradient. Buffers are sized from the network topology once and resized
//! (never reallocated, once capacity is reached) via
//! [`Matrix::resize_to`] as batch dimensions change, so steady-state
//! training steps perform **zero heap allocations** — see
//! `tests/zero_alloc.rs` for the counting-allocator proof.
//!
//! The workspace path is bitwise-identical to the allocating oracle in
//! [`crate::reference`]: every `_into` kernel it drives accumulates in the
//! same order as its allocating sibling (see the `tensor` crate docs),
//! which the parity proptests in `train.rs` assert end to end.

use crate::network::Network;
use std::cell::RefCell;
use tensor::Matrix;

/// Per-layer scratch buffers. Row counts track the current batch; column
/// counts are fixed by the layer shape.
#[derive(Debug, Clone)]
pub(crate) struct LayerWs {
    /// Pre-activation `z = x W + b`, `(batch x out_dim)`.
    pub(crate) pre: Matrix,
    /// Activation `a = act(z)`, `(batch x out_dim)`.
    pub(crate) out: Matrix,
    /// `dL/dz`, `(batch x out_dim)`.
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
/// Create one per training loop (or use [`Workspace::with_thread_local`]
/// for ad-hoc inference) and pass it to every step; the first steps size
/// the buffers, after which no step allocates.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// `(in_dim, out_dim)` per layer — the topology the buffers were built
    /// for. A mismatch on `ensure` triggers a rebuild.
    topo: Vec<(usize, usize)>,
    /// Row count the batch-sized buffers are currently shaped for. Lets
    /// [`Workspace::ensure`] return immediately on the steady-state path
    /// (same topology, same batch) instead of re-deriving every layer
    /// shape and re-resizing every buffer per call.
    rows: usize,
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
            rows: 0,
            layers: Vec::new(),
            input: Matrix::zeros(batch, net.in_dim()),
            loss_grad: Matrix::zeros(batch, net.out_dim()),
        };
        ws.rebuild(net, batch);
        ws
    }

    /// Makes the workspace match `net`'s topology with row capacity for
    /// `rows`. Rebuilds from scratch on a topology change; otherwise only
    /// adjusts the row dimension of the batch-sized buffers (allocation-free
    /// within existing capacity). When both the topology and the batch size
    /// match the previous call — the steady state of every inference and
    /// training loop — this is a two-comparison early return.
    pub fn ensure(&mut self, net: &Network, rows: usize) {
        let matches = self.topo.len() == net.layers().len()
            && self
                .topo
                .iter()
                .zip(net.layers())
                .all(|(&(i, o), l)| i == l.in_dim() && o == l.out_dim());
        if !matches {
            self.rebuild(net, rows);
            return;
        }
        if rows == self.rows {
            return;
        }
        self.rows = rows;
        for lw in &mut self.layers {
            let out_dim = lw.grad_w.cols();
            let in_dim = lw.grad_w.rows();
            lw.pre.resize_to(rows, out_dim);
            lw.out.resize_to(rows, out_dim);
            lw.delta.resize_to(rows, out_dim);
            lw.down.resize_to(rows, in_dim);
        }
    }

    fn rebuild(&mut self, net: &Network, rows: usize) {
        self.rows = rows;
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

    /// Runs `f` with this thread's cached workspace, creating (or
    /// rebuilding, on topology change) it on first use. Subsequent calls
    /// with the same topology reuse the buffers, so repeated inference from
    /// the same thread is allocation-free.
    ///
    /// # Panics
    /// Panics if `f` re-enters `with_thread_local` on the same thread (the
    /// workspace is exclusively borrowed for the duration of `f`).
    pub fn with_thread_local<R>(net: &Network, f: impl FnOnce(&mut Workspace) -> R) -> R {
        thread_local! {
            static TL_WS: RefCell<Option<Workspace>> = const { RefCell::new(None) };
        }
        TL_WS.with(|cell| {
            let mut slot = cell.borrow_mut();
            let ws = slot.get_or_insert_with(|| Workspace::for_network(net, 1));
            f(ws)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::network::NetworkBuilder;

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
    fn ensure_resizes_rows_without_reallocating() {
        let n = net();
        let mut ws = Workspace::for_network(&n, 32);
        let ptr = ws.layers[0].pre.as_slice().as_ptr();
        ws.ensure(&n, 7);
        assert_eq!(ws.layers[0].pre.shape(), (7, 8));
        assert_eq!(ws.layers[0].pre.as_slice().as_ptr(), ptr);
        ws.ensure(&n, 32);
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
    fn thread_local_reuses_across_calls() {
        let n = net();
        let p1 = Workspace::with_thread_local(&n, |ws| {
            ws.ensure(&n, 8);
            ws.layers[0].pre.as_slice().as_ptr() as usize
        });
        let p2 = Workspace::with_thread_local(&n, |ws| {
            ws.ensure(&n, 8);
            ws.layers[0].pre.as_slice().as_ptr() as usize
        });
        assert_eq!(p1, p2);
    }
}
