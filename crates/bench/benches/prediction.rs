//! Criterion benches for the online prediction phase: the batched sweep
//! and the cache-aware path over the full 61-state GA100 DVFS grid, a
//! miss into a full profile-cache shard, the reply rendering a served
//! fragment-cache miss pays, and the network forward pass behind them
//! at every engine precision.

use criterion::{criterion_group, criterion_main, Criterion};
use dvfs_core::cache::{CacheHandle, NormalizedProfile, ShardedProfileCache};
use dvfs_core::dataset::Dataset;
use dvfs_core::models::PowerTimeModels;
use dvfs_core::predictor::Predictor;
use dvfs_core::serve::protocol::fast;
use gpu_model::{DeviceSpec, DvfsGrid, MetricSample, NoiseModel, SignatureBuilder};
use nn::activation::Activation;
use nn::network::NetworkBuilder;
use nn::{reference, InferenceEngine, Precision};
use std::hint::black_box;

/// A small but representative training campaign: enough coverage that the
/// trained networks behave like the real ones, cheap enough that the bench
/// binary starts in seconds.
fn trained_models(spec: &DeviceSpec) -> PowerTimeModels {
    let nm = NoiseModel::default_bench();
    let sigs = [
        SignatureBuilder::new("c1")
            .flops(2e13)
            .bytes(2e11)
            .kappa_compute(0.9)
            .build(),
        SignatureBuilder::new("m1")
            .flops(2e11)
            .bytes(2e13)
            .kappa_memory(0.85)
            .build(),
        SignatureBuilder::new("x1").flops(8e12).bytes(3e12).build(),
        SignatureBuilder::new("x2")
            .flops(4e12)
            .bytes(8e11)
            .kappa_compute(0.5)
            .build(),
    ];
    let grid = DvfsGrid::for_spec(spec);
    let mut samples = Vec::new();
    for sig in &sigs {
        for &f in grid.used().iter().step_by(4) {
            samples.push(gpu_model::sample::measure(spec, sig, f, 0, &nm));
        }
        samples.push(gpu_model::sample::measure(
            spec,
            sig,
            spec.max_core_mhz,
            0,
            &nm,
        ));
    }
    PowerTimeModels::train(&Dataset::from_samples(spec, &samples).unwrap())
}

fn reference_sample(spec: &DeviceSpec) -> MetricSample {
    let sig = SignatureBuilder::new("unseen")
        .flops(1.5e13)
        .bytes(1.0e12)
        .build();
    gpu_model::sample::measure(spec, &sig, spec.max_core_mhz, 0, &NoiseModel::none())
}

fn bench_prediction(c: &mut Criterion) {
    let spec = DeviceSpec::ga100();
    let models = trained_models(&spec);
    let predictor = Predictor::new(&models, spec.clone());
    let freqs = DvfsGrid::for_spec(&spec).used();
    assert_eq!(freqs.len(), 61);
    let reference = reference_sample(&spec);

    let mut group = c.benchmark_group("predict_61_states");
    group.bench_function("batched", |b| {
        b.iter(|| predictor.predict_from_reference(black_box(&reference), black_box(&freqs)))
    });
    let cache = ShardedProfileCache::new(16, 1);
    let one = std::slice::from_ref(&reference);
    // Warm the single entry so the steady-state (hit) path is measured.
    let _ = predictor.predict_batch_cached(&cache, one, &freqs);
    group.bench_function("cached_hit", |b| {
        b.iter(|| predictor.predict_batch_cached(&cache, black_box(one), black_box(&freqs)))
    });
    group.finish();

    // A miss into a full 2048-entry shard (the daemon's shard size on two
    // cores: 4096 entries over two shards): one lookup, one LRU eviction,
    // one insert of a 61-state profile. The fill hands back a prepared
    // profile, so the row times the cache, not the sweep.
    let normalized = NormalizedProfile {
        power_w: vec![250.0; freqs.len()],
        time_ratio: vec![1.0; freqs.len()],
        ratio_at_max: 1.0,
    };
    let shard = ShardedProfileCache::new(2048, 1);
    let mut next = 0u64;
    let mut fresh_key = || {
        next += 1;
        // A new 1e-3 activity bucket each call, over a 1000 × 1000 grid.
        let (fp, dram) = (
            (next % 1000) as f64 * 1e-3,
            (next / 1000 % 1000) as f64 * 1e-3,
        );
        shard.key(&spec, fp, dram, &freqs)
    };
    for _ in 0..2048 {
        shard.get_or_insert_with(fresh_key(), || normalized.clone());
    }
    let mut group = c.benchmark_group("profile_cache");
    group.bench_function("insert_evict_2048", |b| {
        b.iter(|| {
            let key = fresh_key();
            shard.get_or_insert_with(black_box(key), || normalized.clone())
        })
    });
    group.finish();
    assert_eq!(shard.len(), 2048, "the shard stayed full");

    // What `dvfs serve` renders on a fragment-cache miss, into a reused
    // buffer: all four 61-entry float arrays of one profile when its
    // cache key has no head yet, and for a fresh run of a key that has
    // one, a copy of the stored head (frequencies and power) plus the
    // body (times and energies).
    let profile = predictor.predict_from_reference(&reference, &freqs);
    let mut tail = Vec::new();
    let mut head = Vec::new();
    fast::write_profile_head(&mut head, &profile);
    let mut group = c.benchmark_group("serve_render");
    group.bench_function("profile_tail_61", |b| {
        b.iter(|| {
            tail.clear();
            fast::write_profile_tail(&mut tail, black_box(&profile));
            tail.len()
        })
    });
    group.bench_function("profile_body_61", |b| {
        b.iter(|| {
            tail.clear();
            tail.extend_from_slice(black_box(&head));
            fast::write_profile_body(&mut tail, black_box(&profile));
            tail.len()
        })
    });
    group.finish();
}

/// A raw paper-topology network evaluated over a 61-row feature matrix
/// (one DVFS sweep): the allocating reference oracle, the f64 sweep's
/// SELU passes alone (`selu_pass`), then the compiled engine at each
/// precision. `engine_f64` runs the workspace kernels and is bitwise
/// identical to the oracle; `engine_f32` and `engine_bf16` run one packed
/// GEMM per layer over all 61 rows, f32 lanes or bf16-truncated weights
/// with f32 accumulation.
fn bench_nn_forward(c: &mut Criterion) {
    let net = NetworkBuilder::new(3)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .output(1, Activation::Linear)
        .seed(21)
        .build();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(13);
    let x = tensor::init::uniform(61, 3, 0.0, 1.0, &mut rng);

    let mut group = c.benchmark_group("nn_forward_61_states");
    group.bench_function("reference_alloc", |b| {
        b.iter(|| reference::predict(&net, black_box(&x)))
    });
    // The f64 sweep's three SELU passes alone: each hidden layer's stored
    // pre-activations copied into the layer-sized buffer, then the pass.
    let selu: Vec<Vec<f64>> = bench::pre_activations(&net, &x)
        .into_iter()
        .filter_map(|(act, z)| (act == Activation::Selu).then_some(z))
        .collect();
    let mut buf = vec![0.0; selu[0].len()];
    group.bench_function("selu_pass", |b| {
        b.iter(|| {
            for z in &selu {
                buf.copy_from_slice(black_box(z));
                Activation::Selu.apply_slice(&mut buf);
            }
            buf[0]
        })
    });
    let mut out = Vec::new();
    for precision in [Precision::F64, Precision::F32, Precision::Bf16] {
        let engine = InferenceEngine::compile(&net, precision);
        group.bench_function(format!("engine_{}", precision.name()), |b| {
            b.iter(|| {
                engine.predict_into(black_box(&x), &mut out);
                out[0]
            })
        });
    }
    group.finish();
}

/// Guards the self-instrumentation budget: the cached-hit request path adds
/// one `Instant` pair plus one histogram record, which must stay well under
/// 10% of the ~1 µs cached lookup it wraps (i.e. double-digit nanoseconds).
fn bench_obs_overhead(c: &mut Criterion) {
    let hist = obs::global().histogram("bench.overhead_ns");
    let mut group = c.benchmark_group("obs_overhead");
    group.bench_function("instant_pair_plus_record", |b| {
        b.iter(|| {
            let t0 = std::time::Instant::now();
            hist.record_duration(black_box(t0.elapsed()));
        })
    });
    group.bench_function("counter_inc", |b| {
        let requests = obs::global().counter("bench.requests");
        b.iter(|| requests.inc())
    });
    group.bench_function("span_enter_exit", |b| {
        b.iter(|| obs::span::Span::enter(black_box("bench-span")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_prediction,
    bench_nn_forward,
    bench_obs_overhead
);
criterion_main!(benches);
