//! The counting global allocator and single-test runner shared by the
//! allocation tests (`zero_alloc*.rs` here, `dvfs-core`'s
//! `sweep_allocs.rs` and the `rayon` stand-in's `zip_allocs.rs`).
//!
//! The allocator counts the allocations of every thread in the process,
//! which is what `zero_alloc.rs`'s whole-fit comparison needs: it must see
//! `Trainer::fit`'s worker threads. Under libtest that also counts the
//! harness's main thread, which on a loaded host is still doing its
//! bookkeeping for the test it just spawned when the counted window
//! opens. So each of these files is a `harness = false` target whose
//! `main` hands its one test to [`run`]: the test runs on the main thread
//! and no other thread exists unless the test starts it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

struct CountingAllocator;

static ENABLED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics that
// never allocate.
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
pub fn counted(f: impl FnOnce()) -> (u64, u64) {
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

/// Runs `test`, the target's only test, on the calling thread and reports
/// it in libtest's format, so `cargo test` lists it like any other test.
/// Takes libtest's arguments: name filters (substring, or whole name with
/// `--exact`), `--skip`, `--list` and `--ignored` (the test is not
/// ignored, so nothing runs); other options are accepted and have no
/// effect. Exits with status 101 if the test panics, as libtest does.
pub fn run(name: &str, test: fn()) {
    let (mut filters, mut skips) = (Vec::new(), Vec::new());
    let (mut exact, mut list, mut ignored_only) = (false, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exact" => exact = true,
            "--list" => list = true,
            "--ignored" => ignored_only = true,
            "--skip" => skips.extend(args.next()),
            "--color" | "--format" | "--test-threads" | "--logfile" | "-Z" => {
                args.next();
            }
            a if a.starts_with('-') => {}
            _ => filters.push(arg),
        }
    }
    let matches = |f: &String| {
        if exact {
            f == name
        } else {
            name.contains(f.as_str())
        }
    };
    let selected = !ignored_only
        && (filters.is_empty() || filters.iter().any(matches))
        && !skips.iter().any(|s| name.contains(s.as_str()));
    if list {
        if selected {
            println!("{name}: test");
        }
        return;
    }
    println!(
        "\nrunning {} test{}",
        u8::from(selected),
        if selected { "" } else { "s" }
    );
    let started = Instant::now();
    let passed = !selected || std::panic::catch_unwind(test).is_ok();
    let verdict = if passed { "ok" } else { "FAILED" };
    if selected {
        println!("test {name} ... {verdict}");
    }
    if !passed {
        println!("\nfailures:\n    {name}");
    }
    println!(
        "\ntest result: {verdict}. {} passed; {} failed; 0 ignored; 0 measured; {} filtered out; finished in {:.2}s\n",
        u8::from(selected && passed),
        u8::from(!passed),
        u8::from(!selected),
        started.elapsed().as_secs_f64()
    );
    if !passed {
        std::process::exit(101);
    }
}
