//! Proof that an f64 prediction sweep allocates only the vectors it
//! returns, measured with a counting global allocator.
//!
//! Every request that misses the profile cache (each `unseen-apps`
//! request of the benchmark) runs one power sweep, one time sweep and
//! one anchor prediction at the default clock. The feature rows are
//! written in place into a reused matrix and the engines run through
//! thread-local buffers, so the two returned curves are the only heap
//! allocations.
//!
//! This file intentionally holds a single `#[test]`: the counting
//! allocator is process-global, so any concurrently running test would
//! pollute the counters.

use dvfs_core::models::{ModelConfig, PowerTimeModels, PredictEngines};
use gpu_model::{DeviceSpec, DvfsGrid};
use nn::{Precision, TrainingHistory};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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
fn f64_sweep_allocates_only_its_two_returned_curves() {
    // Untrained paper-topology networks: the allocation pattern does not
    // depend on the weights.
    let history = TrainingHistory {
        train_loss: Vec::new(),
        val_loss: Vec::new(),
        train_seconds: 0.0,
    };
    let models = PowerTimeModels {
        power: ModelConfig::paper_power().build_network(),
        time: ModelConfig::paper_time().build_network(),
        power_history: history.clone(),
        time_history: history,
    };
    let engines = PredictEngines::compile(&models, Precision::F64);
    let spec = DeviceSpec::ga100();
    let freqs = DvfsGrid::for_spec(&spec).used();
    assert_eq!(freqs.len(), 61);

    let sweep = |fp: f64, dram: f64| {
        let power = engines.predict_power_w_batch(&spec, fp, dram, &freqs);
        let time = engines.predict_time_ratio_batch(&spec, fp, dram, &freqs);
        let anchor = engines.predict_time_ratio(&spec, fp, dram, spec.max_core_mhz);
        (power, time, anchor)
    };
    // Warm-up: size the thread-local feature matrix, workspace and row
    // buffers.
    let warm = sweep(0.5, 0.5);

    let mut last = None;
    let (bytes, allocs) = counted(|| last = Some(sweep(0.5, 0.5)));
    let returned = 2 * freqs.len() * std::mem::size_of::<f64>();
    assert_eq!(
        (bytes, allocs),
        (returned as u64, 2),
        "a sweep allocated {bytes} bytes across {allocs} allocations; \
         only the power and time curves ({returned} bytes, 2 allocations) should"
    );
    let last = last.unwrap();
    assert_eq!(last.0, warm.0);
    assert_eq!(last.1, warm.1);
    assert_eq!(last.2.to_bits(), warm.2.to_bits());
}
