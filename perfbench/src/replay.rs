//! In-process replay of a workload's stream through the public calls a
//! serve handler and worker make, in their order, with a span around each
//! layer's call:
//!
//! 1. `FrameReader::next_frame` (frame decode),
//! 2. `fast::parse_request`,
//! 3. the `Dispatcher` handoff (`push_batch` then `pop_batch_into`),
//! 4. the fragment-cache key (`CacheHandle::key`),
//! 5. on a fragment miss, `Predictor::predict_batch_cached`, whose cache
//!    lookup and engine sweep are timed apart through a `CacheHandle`
//!    wrapper (exact repeats make no predictor call, as in the daemon),
//!    then `fast::write_profile_tail` into the new fragment,
//! 6. `select_optimal`,
//! 7. reply composition and the `obs` histogram records,
//! 8. the `ReplyTable` round trip (`begin`, `fill`, `wait_collect`),
//! 9. `write_frames_vectored` into an in-memory sink.
//!
//! Everything runs on one thread, so the spans give each call's cost
//! without the daemon's socket and thread hand-offs; `wake_ns` measures
//! the hand-off to a parked worker on its own.

use crate::spans;
use crate::stream::Req;
use gpu_dvfs::core::cache::{CacheHandle, CacheKey, NormalizedProfile, ShardedProfileCache};
use gpu_dvfs::core::models::PowerTimeModels;
use gpu_dvfs::core::objective::select_optimal;
use gpu_dvfs::core::predictor::{PredictedProfile, Predictor};
use gpu_dvfs::core::serve::framing::{write_frames_vectored, FrameReader, DEFAULT_MAX_FRAME};
use gpu_dvfs::core::serve::journal::profile_digest;
use gpu_dvfs::core::serve::protocol::{fast, parse_objective};
use gpu_dvfs::core::serve::{Dispatcher, EnergyLedger, ReplyTable, Request, ServeConfig};
use gpu_dvfs::core::snapshot::{ModelSnapshot, SnapshotMeta};
use gpu_dvfs::gpu::{DeviceSpec, DvfsGrid};
use gpu_dvfs::obs::{Counter, Histogram, MetricsRegistry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The size at which a daemon worker clears its fragment cache
/// (`FRAGMENT_CACHE_MAX` in `core::serve::server`, private there).
const FRAGMENT_CACHE_MAX: usize = 8192;

/// What `dvfs serve` runs with by default, derived the way it derives
/// them: one worker per available core, the next power of two in LRU
/// shards, and `ServeConfig`'s cache capacity and batch size.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub workers: usize,
    pub shards: usize,
    pub capacity: usize,
    pub max_batch: usize,
}

impl ServeShape {
    pub fn of_this_host() -> Self {
        let workers = std::thread::available_parallelism().map_or(2, usize::from);
        let defaults = ServeConfig::default();
        Self {
            workers,
            shards: workers.next_power_of_two(),
            capacity: defaults.cache_capacity,
            max_batch: defaults.max_batch,
        }
    }
}

/// Warm-ups with more distinct activity buckets than this fill the LRU
/// with a stand-in profile instead of sweeping the engine for each: the
/// entries only need to occupy (and be evicted from) the cache.
const REAL_WARMUP_BUCKETS: usize = 512;

/// Whether [`Replay::warm`] serves `warmup` for real (rather than filling
/// the LRU with a stand-in profile).
pub fn serves_warmup(warmup: &[Req]) -> bool {
    let buckets: std::collections::HashSet<_> = warmup
        .iter()
        .map(|r| crate::stream::bucket(r.fp, r.dram))
        .collect();
    buckets.len() <= REAL_WARMUP_BUCKETS
}

/// A `CacheHandle` that puts a span around each cache call and, inside a
/// lookup, around the engine sweep that fills a miss.
struct TimedCache {
    inner: ShardedProfileCache,
    req: AtomicU64,
    fills: AtomicU64,
}

impl CacheHandle for TimedCache {
    fn key(&self, spec: &DeviceSpec, fp: f64, dram: f64, freqs: &[f64]) -> CacheKey {
        let _s = spans::begin("cache.key", self.req.load(Ordering::Relaxed));
        self.inner.key(spec, fp, dram, freqs)
    }

    fn quantize(&self, activity: f64) -> f64 {
        self.inner.quantize(activity)
    }

    fn get_or_insert_with<F: FnOnce() -> NormalizedProfile>(
        &self,
        key: CacheKey,
        fill: F,
    ) -> NormalizedProfile {
        let req = self.req.load(Ordering::Relaxed);
        let span = spans::begin("cache.hit", req);
        let mut filled = false;
        let value = self.inner.get_or_insert_with(key, || {
            filled = true;
            let _e = spans::begin("engine.sweep", req);
            fill()
        });
        if filled {
            self.fills.fetch_add(1, Ordering::Relaxed);
            span.rename("cache.insert_evict");
        }
        value
    }
}

/// A worker's cached reply fragment, as the daemon keeps it.
struct Fragment {
    profile: PredictedProfile,
    tail: Vec<u8>,
    /// Never read here; computed because the daemon computes it on every
    /// fragment insert.
    _digest: u64,
}

/// Per-call counts the spans do not carry.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub frames: u64,
    pub fast_path: u64,
    pub reply_bytes: u64,
}

/// One replay's state: fresh caches, queues and reply slots, as a newly
/// started daemon has.
pub struct Replay<'m> {
    predictor: Predictor<'m>,
    spec: DeviceSpec,
    freqs: Vec<f64>,
    cache: TimedCache,
    /// Each daemon worker's own fragment cache; requests go to the
    /// workers in turn, as the dispatcher's round robin spreads
    /// one-request bursts.
    fragments: Vec<HashMap<(CacheKey, u64), Fragment>>,
    worker: usize,
    max_batch: usize,
    dispatch: Dispatcher<u64>,
    table: ReplyTable,
    ledger: EnergyLedger,
    requests: Counter,
    latency: Histogram,
    predict_latency: Histogram,
    batch_len: Histogram,
    prefix: Vec<u8>,
    reader: FrameReader,
    frame: Vec<u8>,
    popped: Vec<u64>,
    scratch: Vec<u8>,
    replies: Vec<Vec<u8>>,
    sink: Vec<u8>,
    pub counts: Counts,
}

impl<'m> Replay<'m> {
    pub fn new(snapshot: &'m ModelSnapshot, shape: ServeShape) -> Self {
        let registry = MetricsRegistry::new();
        let mut prefix = Vec::new();
        prefix.extend_from_slice(fast::RESPONSE_OK_HEAD);
        fast::write_f64(&mut prefix, 1.0);
        prefix.extend_from_slice(fast::RESPONSE_PROFILE_HEAD);
        Self {
            predictor: Predictor::with_engines(
                &snapshot.models,
                &snapshot.engines,
                snapshot.spec.clone(),
            ),
            spec: snapshot.spec.clone(),
            freqs: DvfsGrid::for_spec(&snapshot.spec).used(),
            cache: TimedCache {
                inner: ShardedProfileCache::new(shape.capacity, shape.shards),
                req: AtomicU64::new(0),
                fills: AtomicU64::new(0),
            },
            fragments: (0..shape.workers).map(|_| HashMap::new()).collect(),
            worker: 0,
            max_batch: shape.max_batch,
            dispatch: Dispatcher::new(shape.workers),
            table: ReplyTable::new(),
            ledger: EnergyLedger::new(),
            requests: registry.counter("serve.requests"),
            latency: registry.histogram("serve.request_ns"),
            predict_latency: registry.histogram("predict.request_ns"),
            batch_len: registry.histogram("serve.batch_len"),
            prefix,
            reader: FrameReader::new(),
            frame: Vec::new(),
            popped: Vec::new(),
            scratch: Vec::new(),
            replies: Vec::new(),
            sink: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// Brings the caches to the state the daemon's warm-up leaves: every
    /// warm-up request served, or, for warm-ups of many distinct buckets,
    /// the LRU filled in the same order with a stand-in profile.
    pub fn warm(&mut self, warmup: &[Req]) {
        if serves_warmup(warmup) {
            for r in warmup {
                self.serve(r, &r.payload());
            }
            return;
        }
        let stand_in = NormalizedProfile {
            power_w: vec![0.0; self.freqs.len()],
            time_ratio: vec![1.0; self.freqs.len()],
            ratio_at_max: 1.0,
        };
        for r in warmup {
            let key = self.cache.inner.key(&self.spec, r.fp, r.dram, &self.freqs);
            self.cache
                .inner
                .get_or_insert_with(key, || stand_in.clone());
        }
    }

    /// Serves one request frame the way the daemon's handler and worker
    /// do, recording spans when recording is on.
    pub fn serve(&mut self, req: &Req, payload: &[u8]) {
        let id = req.id;
        self.cache.req.store(id, Ordering::Relaxed);
        let t0 = Instant::now();
        let _request = spans::begin("request", id);
        // Handler: the socket read (not timed) lands one frame; decode it.
        let mut wire = Vec::with_capacity(payload.len() + 4);
        wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wire.extend_from_slice(payload);
        self.reader
            .fill(&mut wire.as_slice())
            .expect("reading from memory cannot fail");
        {
            let _s = spans::begin("framing.decode", id);
            let frame = self
                .reader
                .next_frame(DEFAULT_MAX_FRAME)
                .expect("frame within the size limit")
                .expect("one whole frame was buffered");
            self.frame.clear();
            self.frame.extend_from_slice(frame);
        }
        self.counts.frames += 1;
        let request = {
            let _s = spans::begin("protocol.parse", id);
            fast::parse_request(&self.frame)
        };
        let request: Request = match request {
            Some(r) => {
                self.counts.fast_path += 1;
                r
            }
            None => std::str::from_utf8(&self.frame)
                .ok()
                .and_then(|text| serde_json::from_str(text).ok())
                .expect("the stream sends valid requests"),
        };
        {
            let _s = spans::begin("dispatch.handoff", id);
            self.dispatch.push_batch(std::iter::once(id));
            self.dispatch.pop_batch_into(
                self.worker,
                self.max_batch,
                Duration::ZERO,
                &mut self.popped,
            );
        }
        let worker = self.worker;
        self.worker = (worker + 1) % self.fragments.len();
        let fragments = &mut self.fragments[worker];
        debug_assert_eq!(self.popped, [id]);

        // Worker: fragment cache, then the predictor on a fragment miss.
        let fp = request.fp_active.unwrap_or(0.0);
        let dram = request.dram_active.unwrap_or(0.0);
        let exec = request.exec_time.unwrap_or(0.0);
        let key = (
            self.cache.key(&self.spec, fp, dram, &self.freqs),
            exec.to_bits(),
        );
        let hit = fragments.contains_key(&key);
        if !hit {
            let reference = crate::oracle::reference(req, &self.spec);
            let profile = {
                let span = spans::begin("predictor.hit", id);
                let fills = self.cache.fills.load(Ordering::Relaxed);
                let profile = self
                    .predictor
                    .predict_batch_cached(
                        &self.cache,
                        std::slice::from_ref(&reference),
                        &self.freqs,
                    )
                    .remove(0);
                if self.cache.fills.load(Ordering::Relaxed) > fills {
                    span.rename("predictor.miss");
                }
                profile
            };
            let key = (
                self.cache.key(&self.spec, fp, dram, &self.freqs),
                exec.to_bits(),
            );
            let mut tail = Vec::new();
            {
                let _s = spans::begin("protocol.profile_tail", id);
                fast::write_profile_tail(&mut tail, &profile);
            }
            let _s = spans::begin("fragment.insert", id);
            let digest = profile_digest(&profile);
            if fragments.len() >= FRAGMENT_CACHE_MAX {
                fragments.clear();
            }
            fragments.entry(key).or_insert(Fragment {
                profile,
                tail,
                _digest: digest,
            });
        }
        let fragment = &fragments[&key];
        let selection = request.objective.as_deref().map(|name| {
            let objective = parse_objective(name).expect("the stream names valid objectives");
            let _s = spans::begin("objective.select", id);
            select_optimal(
                &fragment.profile.frequencies,
                &fragment.profile.energy_j,
                &fragment.profile.time_s,
                objective,
                request.threshold,
            )
        });
        {
            let _s = spans::begin("reply.compose", id);
            let profile = &fragment.profile;
            if let Some(s) = &selection {
                let max = profile.max_freq_index();
                self.ledger
                    .record(profile.energy_j[max] - profile.energy_j[s.index]);
            }
            self.scratch.clear();
            self.scratch.extend_from_slice(&self.prefix);
            fast::write_json_str(&mut self.scratch, request.workload.as_deref().unwrap_or(""));
            self.scratch.extend_from_slice(&fragment.tail);
            self.scratch
                .extend_from_slice(fast::RESPONSE_SELECTION_HEAD);
            match &selection {
                Some(s) => fast::write_selection(&mut self.scratch, s),
                None => self.scratch.extend_from_slice(b"null"),
            }
            self.scratch.extend_from_slice(fast::RESPONSE_TAIL);
        }
        self.counts.reply_bytes += self.scratch.len() as u64;
        {
            // The worker's records for a one-job batch: batch length, the
            // fragment hit's predict latency (a miss records it inside the
            // predictor), and the request latency.
            let _s = spans::begin("obs.record", id);
            self.batch_len.record(1);
            if hit {
                self.predict_latency.record_duration(t0.elapsed());
            }
            self.requests.inc();
            self.latency.record_duration(t0.elapsed());
        }
        {
            let _s = spans::begin("reply.roundtrip", id);
            let generation = self.table.begin(1);
            self.table.fill(generation, 0, &mut self.scratch);
            self.table
                .wait_collect(generation, &mut self.replies, Duration::from_secs(1));
        }
        {
            let _s = spans::begin("framing.writev", id);
            write_frames_vectored(&mut self.sink, &[self.replies[0].as_slice()])
                .expect("writing to memory cannot fail");
        }
        self.sink.clear();
    }
}

/// Median time for a job pushed to the `Dispatcher` to reach a worker
/// parked in `pop_batch_into`, ns.
pub fn wake_ns(samples: usize, max_batch: usize) -> f64 {
    let dispatch: Dispatcher<Instant> = Dispatcher::new(1);
    let mut waits = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let mut out = Vec::new();
            let mut waits = Vec::with_capacity(samples);
            while waits.len() < samples {
                dispatch.pop_batch_into(0, max_batch, Duration::from_millis(25), &mut out);
                waits.extend(out.drain(..).map(|t| t.elapsed().as_nanos() as f64));
            }
            waits
        });
        for _ in 0..samples {
            // Long enough for the worker to park again.
            std::thread::sleep(Duration::from_micros(500));
            dispatch.push(Instant::now());
        }
        worker.join().expect("wake worker panicked")
    });
    crate::stats::median(&mut waits)
}

/// Engine costs on 61-row sweeps for the given activity pairs (both
/// models): the served f64 sweep, and its parts through the public layer
/// calls.
#[derive(Debug, Default, Clone)]
pub struct EngineCosts {
    /// `PredictEngines` power and time sweeps plus the anchor row, ns.
    pub sweep_ns: f64,
    /// `Dense::infer` per layer index, summed over both models, ns.
    pub layer_ns: Vec<f64>,
    /// `tensor::matmul::matmul_into` over all layers, ns.
    pub gemm_ns: f64,
    /// `Activation::apply_row` over all layers, ns.
    pub act_ns: f64,
    /// Computed from the layer shapes, not measured.
    pub flops_per_sweep: f64,
    pub bytes_per_sweep: f64,
    pub sweeps: usize,
}

pub fn engine_costs(snapshot: &ModelSnapshot, points: &[(f64, f64)], sweeps: usize) -> EngineCosts {
    use gpu_dvfs::core::dataset::Dataset;
    use gpu_dvfs::tensor::{matmul, Matrix};
    let spec = &snapshot.spec;
    let freqs = DvfsGrid::for_spec(spec).used();
    let nets = [&snapshot.models.power, &snapshot.models.time];
    let depth = nets[0].layers().len();
    let mut c = EngineCosts {
        layer_ns: vec![0.0; depth],
        sweeps,
        ..EngineCosts::default()
    };
    for i in 0..sweeps {
        let (fp, dram) = points[i % points.len()];
        let t = Instant::now();
        let power = snapshot
            .engines
            .predict_power_w_batch(spec, fp, dram, &freqs);
        let time = snapshot
            .engines
            .predict_time_ratio_batch(spec, fp, dram, &freqs);
        let anchor = snapshot
            .engines
            .predict_time_ratio(spec, fp, dram, spec.max_core_mhz);
        c.sweep_ns += t.elapsed().as_nanos() as f64;
        std::hint::black_box((power, time, anchor));

        let rows: Vec<Vec<f64>> = freqs
            .iter()
            .map(|&f| Dataset::feature_row(fp, dram, f / spec.max_core_mhz))
            .collect();
        for net in nets {
            let mut x = Matrix::from_rows(&rows).expect("rectangular features");
            for (k, layer) in net.layers().iter().enumerate() {
                let t = Instant::now();
                let y = layer.infer(&x);
                c.layer_ns[k] += t.elapsed().as_nanos() as f64;
                let mut z = Matrix::zeros(x.rows(), layer.out_dim());
                let t = Instant::now();
                matmul::matmul_into(&x, layer.weights(), &mut z).expect("layer shapes agree");
                c.gemm_ns += t.elapsed().as_nanos() as f64;
                let bias = layer.bias().as_slice();
                for r in 0..z.rows() {
                    for (v, b) in z.row_mut(r).iter_mut().zip(bias) {
                        *v += b;
                    }
                }
                let t = Instant::now();
                for r in 0..z.rows() {
                    layer.activation().apply_row(z.row_mut(r));
                }
                c.act_ns += t.elapsed().as_nanos() as f64;
                std::hint::black_box(&z);
                x = y;
            }
        }
    }
    let n = sweeps.max(1) as f64;
    c.sweep_ns /= n;
    c.gemm_ns /= n;
    c.act_ns /= n;
    for v in &mut c.layer_ns {
        *v /= n;
    }
    // Rows per sweep: the full grid through both models, plus the time
    // model's one-row anchor at the default clock.
    for (net, rows) in [(nets[0], freqs.len()), (nets[1], freqs.len() + 1)] {
        for layer in net.layers() {
            let (i, o) = (layer.in_dim() as f64, layer.out_dim() as f64);
            let r = rows as f64;
            c.flops_per_sweep += 2.0 * r * i * o;
            c.bytes_per_sweep += 8.0 * (i * o + o + r * i + r * o);
        }
    }
    c
}

/// `PowerTimeModels::from_json` plus `ModelSnapshot::new`, ms (median of
/// `reps`).
pub fn snapshot_load_ms(models_json: &str, spec: &DeviceSpec, reps: usize) -> f64 {
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let models = PowerTimeModels::from_json(models_json).expect("models parse");
            let snap = ModelSnapshot::new(models, spec.clone(), SnapshotMeta::default());
            std::hint::black_box(&snap);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&mut ms)
}
