//! `DVFS_THREADS` sizes the pool. The pool size is fixed at first use, so
//! each setting runs in a child process: this test binary, re-run on the
//! one ignored test below.

use rayon::prelude::*;
use std::process::Command;

/// Threads of this process named like the pool's workers.
fn pool_workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter(|task| {
            task.as_ref().is_ok_and(|t| {
                std::fs::read_to_string(t.path().join("comm"))
                    .is_ok_and(|name| name.starts_with("rayon-pool-"))
            })
        })
        .count()
}

/// Makes a parallel call, then prints the pool's size and how many pool
/// worker threads this process has. Ignored in a normal run; the tests
/// below run it in a child process.
#[test]
#[ignore = "run in a child process by the tests of this file"]
fn child_reports_its_pool() {
    let total: u64 = (0..10_000u64).into_par_iter().map(|x| x * x).sum();
    assert_eq!(total, (0..10_000u64).map(|x| x * x).sum::<u64>());
    // A new thread names itself once it runs, so give the workers up to
    // two seconds to show up under their names.
    let expected = rayon::current_num_threads() - 1;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    let mut workers = pool_workers();
    while workers != expected && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
        workers = pool_workers();
    }
    println!(
        "pool: threads={} workers={workers}",
        rayon::current_num_threads()
    );
}

/// Runs [`child_reports_its_pool`] in a child process with `DVFS_THREADS`
/// set to `threads` (removed for `None`) and returns what it printed:
/// `(current_num_threads, pool worker threads)`.
fn child_pool(threads: Option<&str>) -> (usize, usize) {
    let mut cmd = Command::new(std::env::current_exe().expect("this test binary"));
    cmd.args([
        "child_reports_its_pool",
        "--exact",
        "--ignored",
        "--nocapture",
    ]);
    match threads {
        Some(value) => cmd.env("DVFS_THREADS", value),
        None => cmd.env_remove("DVFS_THREADS"),
    };
    let out = cmd.output().expect("spawn the child test");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "child failed: {stdout}");
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("pool: "))
        .unwrap_or_else(|| panic!("child printed no pool line: {stdout}"));
    let field = |key: &str| -> usize {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {key} in `{line}`"))
    };
    (field("threads="), field("workers="))
}

#[test]
fn dvfs_threads_1_runs_parallel_calls_on_the_calling_thread() {
    assert_eq!(child_pool(Some("1")), (1, 0));
}

#[test]
fn dvfs_threads_sets_the_pool_size() {
    assert_eq!(child_pool(Some(" 3 ")), (3, 2));
}

#[test]
fn without_dvfs_threads_the_pool_spans_every_core() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(child_pool(None), (cores, cores - 1));
    // 0 and garbage mean the same as unset.
    assert_eq!(child_pool(Some("0")), (cores, cores - 1));
    assert_eq!(child_pool(Some("many")), (cores, cores - 1));
}
