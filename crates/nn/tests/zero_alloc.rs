//! Proof that the workspace training path is allocation-free in steady
//! state, measured with a counting global allocator.
//!
//! This file intentionally holds a single `#[test]`: the counting allocator
//! is process-global, so any concurrently running test would pollute the
//! counters.

use nn::activation::Activation;
use nn::network::NetworkBuilder;
use nn::optimizer::OptimizerKind;
use nn::train::{TrainConfig, Trainer};
use nn::workspace::Workspace;
use nn::{reference, Loss};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tensor::{ops, Matrix};

struct CountingAllocator;

static ENABLED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) && new_size > layout.size() {
            BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting on, returning (bytes, allocations).
fn counted(f: impl FnOnce()) -> (u64, u64) {
    BYTES.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
    f();
    ENABLED.store(false, Ordering::SeqCst);
    (
        BYTES.load(Ordering::Relaxed),
        ALLOCS.load(Ordering::Relaxed),
    )
}

fn dataset(n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let x = tensor::init::uniform(n, 3, 0.0, 1.0, &mut rng);
    let y_vals: Vec<f64> = x
        .rows_iter()
        .map(|r| 0.5 * r[0] + r[1] * r[1] - 0.3 * r[2] + 0.1)
        .collect();
    (x, Matrix::col_vector(&y_vals))
}

#[test]
fn training_steps_are_allocation_free_after_warmup() {
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
    let mut ws = Workspace::for_network(&net, batch);
    let mut xb = Matrix::zeros(batch, x.cols());
    let mut yb = Matrix::zeros(batch, y.cols());
    let indices: Vec<usize> = (0..x.rows()).collect();

    // The trainer's step with the whole batch in one shard: forward, raw
    // gradient sums, then the root's 1/batch scaling and update (a
    // one-shard reduction tree has nothing to fold).
    let mut step = |net: &mut nn::Network, chunk: &[usize]| {
        ops::gather_rows_into(&x, chunk, &mut xb);
        ops::gather_rows_into(&y, chunk, &mut yb);
        net.forward_ws(&xb, &mut ws);
        net.shard_grads_ws(&yb, Loss::Mse, &mut ws);
        net.apply_combined_grads(&mut opt, &mut ws, chunk.len());
    };

    // Warm-up: size every buffer and let the optimizer register its slots.
    for chunk in indices.chunks(batch).take(3) {
        step(&mut net, chunk);
    }

    // Steady state: N full gather + forward + backward + update steps must
    // not touch the heap at all.
    let (bytes, allocs) = counted(|| {
        for _ in 0..5 {
            for chunk in indices.chunks(batch) {
                step(&mut net, chunk);
            }
        }
    });
    assert_eq!(
        (bytes, allocs),
        (0, 0),
        "training steps allocated {bytes} bytes across {allocs} allocations"
    );

    // Inference through a caller-provided workspace is allocation-free too
    // (one warm call first: 512 rows exceeds the 64-row training capacity,
    // so the buffers grow exactly once).
    let _ = net.predict_into(&x, &mut ws);
    let (bytes, allocs) = counted(|| {
        for _ in 0..10 {
            let _ = net.predict_into(&x, &mut ws);
        }
    });
    assert_eq!(
        (bytes, allocs),
        (0, 0),
        "predict_into allocated {bytes} bytes across {allocs} allocations"
    );

    // Whole-fit comparison: the workspace Trainer must allocate far less
    // per epoch than the allocating reference path. (Trainer::fit still
    // allocates at startup — splits, history — plus obs span bookkeeping,
    // so this is a per-epoch ratio bound rather than a strict zero.)
    let cfg = TrainConfig {
        epochs: 4,
        ..TrainConfig::default()
    };
    let warm = NetworkBuilder::new(3)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .output(1, Activation::Linear)
        .seed(8)
        .build();
    // Warm both paths once so one-time registrations don't skew the count.
    let mut warm_ws = Trainer::new(warm.clone(), cfg);
    warm_ws.fit(&x, &y).unwrap();
    let mut warm_ref = warm.clone();
    reference::fit(&mut warm_ref, &cfg, &x, &y).unwrap();

    let mut trainer = Trainer::new(warm.clone(), cfg);
    let (ws_bytes, _) = counted(|| {
        trainer.fit(&x, &y).unwrap();
    });
    let mut ref_net = warm.clone();
    let (ref_bytes, _) = counted(|| {
        reference::fit(&mut ref_net, &cfg, &x, &y).unwrap();
    });

    let ws_per_epoch = ws_bytes as f64 / cfg.epochs as f64;
    let ref_per_epoch = ref_bytes as f64 / cfg.epochs as f64;
    obs::global()
        .gauge("train.alloc_bytes_per_epoch")
        .set(ws_per_epoch);
    assert!(
        ws_per_epoch * 5.0 < ref_per_epoch,
        "workspace path should allocate >=5x less per epoch: \
         workspace {ws_per_epoch:.0} B/epoch vs reference {ref_per_epoch:.0} B/epoch"
    );
}
