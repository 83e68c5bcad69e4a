//! The offline phase computes the same bits at every pool size.
//!
//! `Trainer::fit`'s shards and the collection campaign's workloads run on
//! the `rayon` pool, whose size `DVFS_THREADS` fixes once per process. So
//! each size runs in a child process: this test binary, re-run on the
//! ignored test below at `DVFS_THREADS` = 1, 2, 3, 4 and 8. Each child
//! requires `Trainer::fit` to equal `nn::reference::fit` bit for bit (loss
//! curves, weights and biases) on the three fixed parity cases of `nn`'s
//! `train.rs` and a seeded spread of its proptest's batch sizes, row counts
//! and splits, and the concurrent campaign to equal the serial loop. It
//! prints a digest of everything it computed, and every child must print
//! the same one.

use gpu_dvfs::gpu::{DeviceSpec, DvfsGrid, MetricSample, PhasedWorkload, SignatureBuilder};
use gpu_dvfs::nn::{reference, Activation, Network, NetworkBuilder, TrainConfig, Trainer};
use gpu_dvfs::telemetry::backend::BackendError;
use gpu_dvfs::telemetry::{CollectionCampaign, GpuBackend, LaunchConfig, SimulatorBackend};
use gpu_dvfs::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::Command;

/// The pool sizes the children run at: serial, the two-vCPU default,
/// uneven runs of shards (3), one shard pair per thread (4), and more
/// threads than shards (8).
const POOL_SIZES: [usize; 5] = [1, 2, 3, 4, 8];

/// FNV-1a over the bits of everything a child computes.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.bytes(&(xs.len() as u64).to_le_bytes());
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The synthetic regression of `nn`'s training tests.
fn dataset(n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = gpu_dvfs::tensor::init::uniform(n, 3, 0.0, 1.0, &mut rng);
    let y: Vec<f64> = x
        .rows_iter()
        .map(|r| 0.5 * r[0] + r[1] * r[1] - 0.3 * r[2] + 0.1)
        .collect();
    (x, Matrix::col_vector(&y))
}

fn net(width: usize, hidden: usize, seed: u64) -> Network {
    let mut b = NetworkBuilder::new(3);
    for _ in 0..hidden {
        b = b.hidden(width, Activation::Selu);
    }
    b.output(1, Activation::Linear).seed(seed).build()
}

/// Fits `base` on `rows` rows through `Trainer::fit` and through the
/// reference, requires the same bits and adds them to `digest`.
fn fit_matches_reference(
    digest: &mut Digest,
    base: Network,
    cfg: TrainConfig,
    data_seed: u64,
    rows: usize,
) {
    let case = format!("{cfg:?}, data seed {data_seed}, {rows} rows");
    let (x, y) = dataset(rows, data_seed);
    let mut net_ref = base.clone();
    let h_ref = reference::fit(&mut net_ref, &cfg, &x, &y).unwrap();
    let mut trainer = Trainer::new(base, cfg);
    let h = trainer.fit(&x, &y).unwrap();
    let fitted = trainer.into_network();
    assert_eq!(
        bits(&h.train_loss),
        bits(&h_ref.train_loss),
        "train loss: {case}"
    );
    assert_eq!(bits(&h.val_loss), bits(&h_ref.val_loss), "val loss: {case}");
    digest.floats(&h.train_loss);
    digest.floats(&h.val_loss);
    for (l, l_ref) in fitted.layers().iter().zip(net_ref.layers()) {
        let (w, b) = (l.weights().as_slice(), l.bias().as_slice());
        assert_eq!(bits(w), bits(l_ref.weights().as_slice()), "weights: {case}");
        assert_eq!(bits(b), bits(l_ref.bias().as_slice()), "biases: {case}");
        digest.floats(w);
        digest.floats(b);
    }
}

/// The simulator without its concurrent-profiling capability, so a
/// campaign on it takes the serial apply-then-profile loop.
struct SerialOnly<'a>(&'a SimulatorBackend);

impl GpuBackend for SerialOnly<'_> {
    fn spec(&self) -> &DeviceSpec {
        self.0.spec()
    }
    fn grid(&self) -> &DvfsGrid {
        self.0.grid()
    }
    fn set_app_clock(&self, mhz: f64) -> Result<(), BackendError> {
        self.0.set_app_clock(mhz)
    }
    fn app_clock(&self) -> f64 {
        self.0.app_clock()
    }
    fn run_profiled(&self, workload: &PhasedWorkload, run: u32) -> MetricSample {
        self.0.run_profiled(workload, run)
    }
}

/// Seven workloads: uneven pieces at every pool size above one.
fn workloads() -> Vec<PhasedWorkload> {
    (0..7)
        .map(|i| {
            let sig = SignatureBuilder::new(format!("w{i}"))
                .flops(1e11 * f64::from(3 * i + 1))
                .bytes(1e13 / f64::from(2 * i + 1))
                .build();
            PhasedWorkload::single(sig)
        })
        .collect()
}

/// Runs every case at this process's pool size and prints the pool size
/// and the digest. Ignored in a normal run; the test below runs it in
/// child processes.
#[test]
#[ignore = "run in a child process by the test of this file"]
fn child_digests_the_offline_phase() {
    let mut fits = Digest::new();
    let defaults = |epochs| TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    // The fixed parity cases: paper defaults, the paper's 3×64 topology
    // (two full 64-row batches and a 32-row tail) and early stopping.
    fit_matches_reference(&mut fits, net(16, 2, 1), defaults(4), 2, 200);
    fit_matches_reference(&mut fits, net(64, 3, 5), defaults(3), 6, 200);
    let early = TrainConfig {
        early_stop_patience: Some(2),
        ..defaults(30)
    };
    fit_matches_reference(&mut fits, net(16, 2, 3), early, 4, 150);
    // The proptest's ranges, every split, and batches smaller than the
    // shard count (empty trailing shards) in the first three cases.
    let mut rng = StdRng::seed_from_u64(0x7ead_c0de);
    for case in 0..12usize {
        let batch_size = match case {
            0..=2 => [1, 3, 5][case],
            _ => rng.random_range(1usize..96),
        };
        let data_seed = rng.random_range(0u64..50);
        let cfg = TrainConfig {
            epochs: rng.random_range(1usize..4),
            batch_size,
            validation_split: [0.0, 0.2, 0.5][case % 3],
            shuffle_seed: data_seed ^ 0x5eed,
            ..TrainConfig::default()
        };
        let base = net(16, 2, rng.random_range(0u64..50));
        let rows = rng.random_range(20usize..160);
        fit_matches_reference(&mut fits, base, cfg, data_seed, rows);
    }

    let sim = SimulatorBackend::ga100();
    let cfg = LaunchConfig {
        runs: 2,
        ..LaunchConfig::default()
    };
    let concurrent = CollectionCampaign::new(&sim, cfg.clone())
        .collect(&workloads())
        .unwrap();
    let serial = CollectionCampaign::new(&SerialOnly(&sim), cfg)
        .collect(&workloads())
        .unwrap();
    assert_eq!(
        concurrent, serial,
        "concurrent campaign diverged from serial"
    );
    let mut campaign = Digest::new();
    campaign.bytes(format!("{concurrent:?}").as_bytes());

    println!(
        "offline: pool={} fits={:016x} campaign={:016x}",
        rayon::current_num_threads(),
        fits.0,
        campaign.0
    );
}

/// Runs [`child_digests_the_offline_phase`] at `DVFS_THREADS=threads` and
/// returns its pool size and digests.
fn child(threads: usize) -> (usize, String) {
    let out = Command::new(std::env::current_exe().expect("this test binary"))
        .args([
            "child_digests_the_offline_phase",
            "--exact",
            "--ignored",
            "--nocapture",
        ])
        .env("DVFS_THREADS", threads.to_string())
        .output()
        .expect("spawn the child test");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child at DVFS_THREADS={threads} failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("offline: pool="))
        .unwrap_or_else(|| panic!("child printed no digest: {stdout}"));
    let (pool, digests) = line.split_once(' ').expect("pool size, then digests");
    (pool.parse().expect("pool size"), digests.to_string())
}

#[test]
fn every_pool_size_computes_the_same_bits() {
    let runs: Vec<(usize, String)> = POOL_SIZES.iter().map(|&t| child(t)).collect();
    for (&threads, (pool, digests)) in POOL_SIZES.iter().zip(&runs) {
        assert_eq!(*pool, threads, "DVFS_THREADS={threads} sized the pool");
        assert_eq!(
            digests, &runs[0].1,
            "DVFS_THREADS={threads} computed different bits from DVFS_THREADS=1"
        );
    }
}
