//! Proof that the f64 inference engine — the served 61-state sweep and
//! its one-row anchor prediction — is allocation-free in steady state,
//! measured with a counting global allocator.
//!
//! `InferenceEngine` promises allocation-free calls once its thread-local
//! scratch and the caller's output vector are warm. At `Precision::F64`
//! both calls run `Network`'s own kernels: `predict_into` through the
//! thread's cached `Workspace`, `predict_one_into` through thread-local
//! row buffers whose result is copied into `out`.
//!
//! This file intentionally holds a single `#[test]`: the counting
//! allocator is process-global, so any concurrently running test would
//! pollute the counters.

use nn::activation::Activation;
use nn::network::NetworkBuilder;
use nn::{InferenceEngine, Precision};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tensor::Matrix;

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

#[test]
fn f64_engine_sweep_and_one_row_are_allocation_free_after_warmup() {
    // The paper topology: 3 -> 64 -> 64 -> 64 -> 1, SELU.
    let net = NetworkBuilder::new(3)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .output(1, Activation::Linear)
        .seed(7)
        .build();
    let engine = InferenceEngine::compile(&net, Precision::F64);
    // One row per clock of the 61-state GA100 grid at fixed activities,
    // the feature layout of a served sweep.
    let rows: Vec<Vec<f64>> = (0..61)
        .map(|i| vec![0.6, 0.3, (510.0 + 15.0 * i as f64) / 1410.0])
        .collect();
    let x = Matrix::from_rows(&rows).unwrap();
    let mut sweep = Vec::new();
    let mut one = Vec::new();

    // Warm-up: size the thread-local workspace, the row buffers and both
    // output vectors.
    engine.predict_into(&x, &mut sweep);
    engine.predict_one_into(x.row(60), &mut one);

    let (bytes, allocs) = counted(|| {
        for r in 0..61 {
            engine.predict_into(&x, &mut sweep);
            engine.predict_one_into(x.row(r), &mut one);
        }
    });
    assert_eq!(
        (bytes, allocs),
        (0, 0),
        "f64 predict_into + predict_one_into allocated {bytes} bytes across {allocs} allocations"
    );
    // Still the same answers: the one-row path equals the sweep's row.
    assert_eq!(one.as_slice(), &sweep[60..61]);
}
