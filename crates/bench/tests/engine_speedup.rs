//! Speed guards for the 61-state sweep, each a ratio of two timings
//! taken in this process (min-to-min over attempts that alternate
//! between the two sides), so a slower or faster host moves both sides:
//!
//! 1. the vectorized SELU pass (`Activation::apply_slice`) against the
//!    per-element scalar loop (`Activation::apply`) over the same stored
//!    pre-activations of the sweep's three hidden layers, ≥ 1.1×: the
//!    same branch-free loop run one element at a time measured 0.62–0.68×
//!    the per-element loop, so a pass that stops vectorizing fails here;
//! 2. the packed f32 engine's sweep against the f64 workspace
//!    `predict_into` path, ≥ 1.6×.
//!
//! Twelve release runs on a 2-vCPU Xeon (AVX-512, glibc 2.36) read
//! 1.27–1.34× (median 1.29×) for the first and 1.85–2.05× (median 1.95×)
//! for the second; the floors sit below both minima.
//!
//! Timing ratios are only meaningful with optimizations on, so the
//! guards log and return under a debug build (`cargo test -q` tier-1
//! runs); `scripts/check.sh` runs them in release. Either way the test
//! asserts the f64 engine mode reproduces the workspace path bitwise, so
//! the speedup never comes at the price of correctness.

use nn::activation::Activation;
use nn::network::{Network, NetworkBuilder};
use nn::{InferenceEngine, Precision, Workspace};
use tensor::Matrix;

fn paper_net() -> Network {
    NetworkBuilder::new(3)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .output(1, Activation::Linear)
        .seed(21)
        .build()
}

fn sweep_input() -> Matrix {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(13);
    tensor::init::uniform(61, 3, 0.0, 1.0, &mut rng)
}

/// Minimum wall time per call of `a` and of `b`, over `attempts`
/// attempts of `iters` calls each. The attempts alternate between the
/// two, so a slow spell on a shared host lands on both sides of the
/// ratio instead of on every attempt of one.
fn min_seconds_interleaved(
    mut a: impl FnMut(),
    mut b: impl FnMut(),
    iters: usize,
    attempts: usize,
) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_secs_f64() / iters as f64
    };
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..attempts {
        best_a = best_a.min(time(&mut a));
        best_b = best_b.min(time(&mut b));
    }
    (best_a, best_b)
}

#[test]
fn selu_pass_vectorizes_and_fused_f32_sweep_beats_f64() {
    let net = paper_net();
    let x = sweep_input();

    // Correctness leg, valid in any build: the f64 engine is the
    // workspace path (bitwise), and the f32 engine tracks it closely.
    let mut ws = Workspace::for_network(&net, x.rows());
    let reference = net.predict_into(&x, &mut ws).as_slice().to_vec();
    let engine_f64 = InferenceEngine::compile(&net, Precision::F64);
    let engine_f32 = InferenceEngine::compile(&net, Precision::F32);
    let mut out = Vec::new();
    engine_f64.predict_into(&x, &mut out);
    assert_eq!(out, reference, "f64 engine diverged from workspace path");
    engine_f32.predict_into(&x, &mut out);
    for (got, want) in out.iter().zip(&reference) {
        assert!(
            (got - want).abs() <= 1e-4 + 1e-4 * want.abs(),
            "f32 engine outside documented bound: {got} vs {want}"
        );
    }

    if cfg!(debug_assertions) {
        eprintln!("engine_speedup: debug build, timing guards skipped");
        return;
    }

    const ITERS: usize = 100;
    const ATTEMPTS: usize = 10;
    let selu: Vec<Vec<f64>> = bench::pre_activations(&net, &x)
        .into_iter()
        .filter_map(|(act, z)| (act == Activation::Selu).then_some(z))
        .collect();
    let (mut pass_buf, mut loop_buf) = (vec![0.0; selu[0].len()], vec![0.0; selu[0].len()]);
    let (t_pass, t_scalar) = min_seconds_interleaved(
        || {
            for z in &selu {
                pass_buf.copy_from_slice(z);
                Activation::Selu.apply_slice(&mut pass_buf);
                std::hint::black_box(&mut pass_buf);
            }
        },
        || {
            for z in &selu {
                loop_buf.copy_from_slice(z);
                for v in loop_buf.iter_mut() {
                    *v = Activation::Selu.apply(*v);
                }
                std::hint::black_box(&mut loop_buf);
            }
        },
        ITERS,
        ATTEMPTS,
    );
    let (t_workspace, t_engine) = min_seconds_interleaved(
        || {
            let y = net.predict_into(&x, &mut ws);
            std::hint::black_box(y.as_slice()[0]);
        },
        || {
            engine_f32.predict_into(&x, &mut out);
            std::hint::black_box(out[0]);
        },
        ITERS,
        ATTEMPTS,
    );
    let pass_speedup = t_scalar / t_pass;
    let engine_speedup = t_workspace / t_engine;
    eprintln!(
        "engine_speedup: SELU passes {:.1} µs, scalar loop {:.1} µs ({pass_speedup:.2}x); \
         workspace {:.1} µs, fused f32 {:.1} µs ({engine_speedup:.2}x)",
        t_pass * 1e6,
        t_scalar * 1e6,
        t_workspace * 1e6,
        t_engine * 1e6
    );
    assert!(
        pass_speedup >= 1.1,
        "the SELU slice pass must be ≥1.1× faster than the per-element loop \
         (pass {:.1} µs, loop {:.1} µs, {pass_speedup:.2}x)",
        t_pass * 1e6,
        t_scalar * 1e6
    );
    assert!(
        engine_speedup >= 1.6,
        "fused f32 sweep must be ≥1.6× faster than predict_into \
         (workspace {:.1} µs, engine {:.1} µs, {engine_speedup:.2}x)",
        t_workspace * 1e6,
        t_engine * 1e6
    );
}
