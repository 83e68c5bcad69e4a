//! Guard for the deterministic data-parallel training engine: on a
//! 4-thread pool the whole-fit wall time must beat a 1-thread pool by
//! ≥1.8× (min-to-min over several attempts, the same statistic
//! `BENCH_nn.json` records).
//!
//! The `rayon` pool's size is fixed per process, so each side is timed in
//! a child process: this test binary, re-run on the ignored test below at
//! `DVFS_THREADS=1` and at `DVFS_THREADS=4`.
//!
//! The guard only engages on hosts with ≥4 available cores — on smaller
//! boxes (such as single-core CI containers) the 4-thread pool can only
//! add coordination overhead, so the test logs and exits. Either way it
//! asserts the two children trained bitwise-identical networks, so the
//! speedup never comes at the price of reproducibility.

use nn::activation::Activation;
use nn::network::{Network, NetworkBuilder};
use nn::train::{TrainConfig, Trainer};
use std::process::Command;
use tensor::Matrix;

fn dataset(n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let x = tensor::init::uniform(n, 3, 0.0, 1.0, &mut rng);
    let y_vals: Vec<f64> = x
        .rows_iter()
        .map(|r| 0.5 * r[0] + r[1] * r[1] - 0.3 * r[2] + 0.1)
        .collect();
    (x, Matrix::col_vector(&y_vals))
}

fn paper_net() -> Network {
    NetworkBuilder::new(3)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .output(1, Activation::Linear)
        .seed(7)
        .build()
}

/// FNV-1a over the bits of every weight and bias of `net`.
fn digest(net: &Network) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for layer in net.layers() {
        for x in layer
            .weights()
            .as_slice()
            .iter()
            .chain(layer.bias().as_slice())
        {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Times a 5-epoch fit three times on this process's pool and prints the
/// minimum wall time and the trained network's digest (every attempt
/// trains the same network). Ignored in a normal run; the test below runs
/// it in child processes.
#[test]
#[ignore = "run in a child process by the test of this file"]
fn child_times_the_fit() {
    let (x, y) = dataset(512, 11);
    let net = paper_net();
    let cfg = TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    };
    let mut best = f64::INFINITY;
    let mut fitted = None;
    for _ in 0..3 {
        let mut trainer = Trainer::new(net.clone(), cfg);
        let t0 = std::time::Instant::now();
        trainer.fit(&x, &y).unwrap();
        best = best.min(t0.elapsed().as_secs_f64());
        fitted = Some(trainer.into_network());
    }
    let fitted = fitted.expect("at least one attempt");
    println!("fit: seconds={best} digest={:016x}", digest(&fitted));
}

/// Runs [`child_times_the_fit`] at `DVFS_THREADS=threads` and returns its
/// minimum fit time and network digest.
fn child_fit(threads: usize) -> (f64, String) {
    let out = Command::new(std::env::current_exe().expect("this test binary"))
        .args(["child_times_the_fit", "--exact", "--ignored", "--nocapture"])
        .env("DVFS_THREADS", threads.to_string())
        .output()
        .expect("spawn the child test");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child at DVFS_THREADS={threads} failed: {stdout}"
    );
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("fit: seconds="))
        .unwrap_or_else(|| panic!("child printed no fit line: {stdout}"));
    let (seconds, digest) = line.split_once(" digest=").expect("seconds, then digest");
    (seconds.parse().expect("seconds"), digest.to_string())
}

#[test]
fn parallel_fit_speedup_guard() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Identity always holds, whatever the host looks like.
    let (t_serial, net_serial) = child_fit(1);
    let (t_parallel, net_parallel) = child_fit(4);
    assert_eq!(
        net_serial, net_parallel,
        "parallel fit diverged from serial"
    );

    if cores < 4 {
        eprintln!(
            "parallel_fit_speedup_guard: host has {cores} core(s) < 4 — \
             speedup assertion skipped (serial {t_serial:.3}s, parallel {t_parallel:.3}s)"
        );
        return;
    }
    let speedup = t_serial / t_parallel;
    assert!(
        speedup >= 1.8,
        "parallel fit speedup {speedup:.2}x < 1.8x at 4 threads \
         (serial min {t_serial:.3}s, parallel min {t_parallel:.3}s)"
    );
}
