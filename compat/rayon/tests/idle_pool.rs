//! An idle pool costs no CPU: its workers block instead of spinning. The
//! only test in its binary, so nothing else runs in the process while it
//! measures.

use rayon::prelude::*;
use std::time::Duration;

/// On-CPU time of every thread of this process so far, in nanoseconds
/// (the first field of each `/proc/self/task/*/schedstat`).
fn process_cpu_ns() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .map(|task| {
            let path = task.expect("task entry").path().join("schedstat");
            let stat = std::fs::read_to_string(&path).expect("per-thread schedstat");
            stat.split_whitespace()
                .next()
                .and_then(|ns| ns.parse::<u64>().ok())
                .expect("schedstat starts with on-CPU nanoseconds")
        })
        .sum()
}

#[test]
fn an_idle_pool_burns_no_cpu() {
    // Start the pool, then let its workers go back to waiting.
    let total: u64 = (0..10_000u64).into_par_iter().map(|x| x * x).sum();
    assert_eq!(total, (0..10_000u64).map(|x| x * x).sum::<u64>());
    std::thread::sleep(Duration::from_millis(50));

    let before = process_cpu_ns();
    std::thread::sleep(Duration::from_millis(200));
    let spent_ms = (process_cpu_ns() - before) as f64 / 1e6;
    assert!(
        spent_ms < 10.0,
        "{spent_ms:.2} ms of CPU over a 200 ms sleep with {} pool workers",
        rayon::current_num_threads() - 1
    );
}
