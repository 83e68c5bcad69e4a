//! Parallel-scaling probe for the deterministic data-parallel training
//! engine: fits the paper topology (3 -> 64 -> 64 -> 64 -> 1, SELU,
//! RMSprop, batch 64) on 512 synthetic rows on `rayon` pools of 1/2/4/8
//! threads and prints min-of-3 wall times plus the speedup over the serial
//! run. The pool's size is fixed per process, so each row comes from a
//! child process: this example re-run with the argument `row` at that
//! `DVFS_THREADS`. The final networks are asserted bitwise identical
//! across all pool sizes, so whatever the host, only speed may vary —
//! never the model.
//!
//! ```bash
//! cargo run --release -p bench --example scaling
//! ```

use nn::activation::Activation;
use nn::network::{Network, NetworkBuilder};
use nn::train::{TrainConfig, Trainer};
use std::process::Command;
use tensor::Matrix;

/// Times the fit three times on this process's pool and prints the
/// minimum wall time and an FNV-1a digest of the trained weights.
fn row() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let x = tensor::init::uniform(512, 3, 0.0, 1.0, &mut rng);
    let y_vals: Vec<f64> = x
        .rows_iter()
        .map(|r| 0.5 * r[0] + r[1] * r[1] - 0.3 * r[2] + 0.1)
        .collect();
    let y = Matrix::col_vector(&y_vals);
    let net: Network = NetworkBuilder::new(3)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .output(1, Activation::Linear)
        .seed(7)
        .build();
    let cfg = TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    };
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let mut trainer = Trainer::new(net.clone(), cfg);
        let t0 = std::time::Instant::now();
        trainer.fit(&x, &y).expect("synthetic dataset is valid");
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(trainer.into_network());
    }
    let fitted = last.expect("at least one attempt ran");
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for layer in fitted.layers() {
        for v in layer
            .weights()
            .as_slice()
            .iter()
            .chain(layer.bias().as_slice())
        {
            for b in v.to_bits().to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    println!("{best} {digest:016x}");
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("row") {
        row();
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host cores: {cores}");
    println!("{:>7}  {:>10}  {:>8}", "threads", "min fit", "speedup");

    let mut baseline = None;
    let mut serial_digest = None;
    for threads in [1usize, 2, 4, 8] {
        let out = Command::new(std::env::current_exe().expect("this example"))
            .arg("row")
            .env("DVFS_THREADS", threads.to_string())
            .output()
            .expect("spawn a row");
        assert!(out.status.success(), "row at {threads} threads failed");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 row");
        let (seconds, digest) = stdout
            .trim()
            .split_once(' ')
            .expect("min fit seconds, then digest");
        let best: f64 = seconds.parse().expect("seconds");
        let serial = serial_digest.get_or_insert_with(|| digest.to_string());
        assert_eq!(
            digest, serial,
            "fit at {threads} threads diverged from serial"
        );
        let base = *baseline.get_or_insert(best);
        println!(
            "{:>7}  {:>8.1}ms  {:>7.2}x",
            threads,
            best * 1e3,
            base / best
        );
    }
    println!("networks bitwise identical across all thread counts: yes");
}
