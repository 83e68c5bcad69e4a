//! The online prediction phase (paper Figure 2, right half).
//!
//! An unseen application is executed **once, at the default (maximum)
//! frequency**, to acquire its features and reference time. The trained
//! models then predict its power and execution time at every DVFS state,
//! energy follows as `E(f) = P(f) * T(f)` (Equation 8), and the objective
//! function selects the optimal frequency.

use crate::cache::{CacheHandle, NormalizedProfile};
use crate::models::{PowerTimeModels, PredictEngines};
use crate::objective::{select_optimal, Objective, Selection};
use gpu_model::{DeviceSpec, MetricSample, PhasedWorkload};
use nn::Precision;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use telemetry::{GpuBackend, Profiler};

/// Predicted (or measured) per-frequency profile of one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictedProfile {
    /// Application name.
    pub workload: String,
    /// The swept frequencies, ascending (MHz).
    pub frequencies: Vec<f64>,
    /// Power at each frequency, watts.
    pub power_w: Vec<f64>,
    /// Absolute execution time at each frequency, seconds.
    pub time_s: Vec<f64>,
    /// Energy at each frequency, joules.
    pub energy_j: Vec<f64>,
}

impl PredictedProfile {
    /// Builds a profile from per-frequency power and time, deriving
    /// energy as `E(f) = P(f) * T(f)` (Equation 8).
    ///
    /// # Panics
    /// Panics unless `frequencies` is non-empty and strictly ascending
    /// (so the last entry really is the default clock that
    /// [`PredictedProfile::max_freq_index`], normalized times, and the
    /// savings accounting all key off), and all three vectors have the
    /// same length.
    pub fn new(
        workload: String,
        frequencies: Vec<f64>,
        power_w: Vec<f64>,
        time_s: Vec<f64>,
    ) -> Self {
        assert!(
            !frequencies.is_empty(),
            "profile requires at least one frequency"
        );
        assert!(
            frequencies.windows(2).all(|w| w[0] < w[1]),
            "profile frequencies must be strictly ascending (last = default clock)"
        );
        assert_eq!(
            frequencies.len(),
            power_w.len(),
            "one power value per frequency"
        );
        assert_eq!(
            frequencies.len(),
            time_s.len(),
            "one time value per frequency"
        );
        let energy_j = power_w.iter().zip(&time_s).map(|(&p, &t)| p * t).collect();
        Self {
            workload,
            frequencies,
            power_w,
            time_s,
            energy_j,
        }
    }

    /// Normalized times `T(f) / T(f_max)` (Figure 8's y-axis).
    pub fn normalized_time(&self) -> Vec<f64> {
        let t_max = *self.time_s.last().expect("non-empty profile");
        self.time_s.iter().map(|&t| t / t_max).collect()
    }

    /// Selects the optimal frequency under `objective` and `threshold`.
    pub fn select(&self, objective: Objective, threshold: Option<f64>) -> Selection {
        select_optimal(
            &self.frequencies,
            &self.energy_j,
            &self.time_s,
            objective,
            threshold,
        )
    }

    /// Index of the maximum (default) frequency.
    pub fn max_freq_index(&self) -> usize {
        self.frequencies.len() - 1
    }

    /// Energy saving (fraction) at `index` relative to the default clock.
    pub fn energy_saving_at(&self, index: usize) -> f64 {
        let e_max = self.energy_j[self.max_freq_index()];
        (e_max - self.energy_j[index]) / e_max
    }

    /// Execution-time change (fraction) at `index` relative to the default
    /// clock; positive = slower.
    pub fn time_change_at(&self, index: usize) -> f64 {
        let t_max = self.time_s[self.max_freq_index()];
        (self.time_s[index] - t_max) / t_max
    }
}

/// The online predictor: compiled models bound to a device spec.
pub struct Predictor<'a> {
    /// The engines every sweep runs on: f64 engines compiled by
    /// [`Predictor::new`], or a snapshot's engines borrowed by
    /// [`Predictor::with_engines`] (in reduced-precision modes, the
    /// quality-gated fast path).
    engines: Cow<'a, PredictEngines>,
    spec: DeviceSpec,
    /// Request-latency histogram (`predict.request_ns` in the global
    /// registry). The handle is fetched once here so the per-request
    /// record is a few relaxed atomics — no registry lock on the hot
    /// path, keeping instrumentation overhead well under the cached-hit
    /// microsecond budget.
    latency: obs::Histogram,
    /// Interned flight-recorder ids, resolved once here for the same
    /// reason: the per-request trace event is slot writes only.
    trace_request: u32,
    trace_arg_workload: u32,
    trace_arg_hit: u32,
}

impl<'a> Predictor<'a> {
    /// Creates a predictor for `spec`, compiling `models` into f64
    /// engines (bitwise identical to the training crate's forward pass).
    pub fn new(models: &PowerTimeModels, spec: DeviceSpec) -> Self {
        Self::bind(
            Cow::Owned(PredictEngines::compile(models, Precision::F64)),
            spec,
        )
    }

    /// Creates a predictor that runs every sweep on already-compiled
    /// `engines` (the serve hot path binds its snapshot's engines here,
    /// so nothing is compiled per binding).
    ///
    /// `models` is not read: the engines carry their own frozen copy of
    /// both networks. The argument stays so that existing callers, which
    /// pass a snapshot's models and engines side by side, need no change.
    pub fn with_engines(
        _models: &'a PowerTimeModels,
        engines: &'a PredictEngines,
        spec: DeviceSpec,
    ) -> Self {
        Self::bind(Cow::Borrowed(engines), spec)
    }

    fn bind(engines: Cow<'a, PredictEngines>, spec: DeviceSpec) -> Self {
        Self {
            engines,
            spec,
            latency: obs::global().histogram("predict.request_ns"),
            trace_request: obs::trace::intern("predict.request"),
            trace_arg_workload: obs::trace::intern("workload"),
            trace_arg_hit: obs::trace::intern("hit"),
        }
    }

    /// Emits the per-request timeline event: a complete span from
    /// `t0_ns`, tagged with the workload and — on the cached path —
    /// whether the profile cache hit.
    fn trace_request_event(&self, t0_ns: u64, workload: &str, hit: Option<bool>) {
        if !obs::trace::enabled() {
            return;
        }
        let wl = (
            self.trace_arg_workload,
            obs::trace::ArgValue::Str(obs::trace::intern(workload)),
        );
        match hit {
            Some(hit) => obs::trace::complete(
                self.trace_request,
                t0_ns,
                &[wl, (self.trace_arg_hit, obs::trace::ArgValue::Bool(hit))],
            ),
            None => obs::trace::complete(self.trace_request, t0_ns, &[wl]),
        }
    }

    /// Builds the predicted profile from a default-clock measurement.
    ///
    /// `reference` must have been taken at the device's maximum frequency —
    /// this is the paper's single profiling run.
    ///
    /// # Panics
    /// Panics if the reference sample was not taken at the default clock.
    pub fn predict_from_reference(
        &self,
        reference: &MetricSample,
        frequencies: &[f64],
    ) -> PredictedProfile {
        assert_eq!(
            reference.sm_app_clock, self.spec.max_core_mhz,
            "online phase requires a default-clock reference run"
        );
        let t0 = std::time::Instant::now();
        let t0_ns = obs::trace::now_ns();
        let fp = reference.fp_active();
        let dram = reference.dram_active;
        let normalized = self.normalized_profile(fp, dram, frequencies);
        let profile = self.anchor_profile(&normalized, reference, frequencies);
        self.latency.record_duration(t0.elapsed());
        self.trace_request_event(t0_ns, &reference.workload, None);
        profile
    }

    /// Runs both models once each over the whole sweep: one `F x 3`
    /// feature matrix and one batched engine pass per model, plus the
    /// time ratio at the default clock that anchors absolute times.
    ///
    /// A grid that ends at the default clock (every
    /// [`gpu_model::DvfsGrid::used`] grid does) already holds that ratio
    /// in its last row: a batch row is bitwise equal to the one-row pass
    /// in every precision mode, so only other grids run the extra row.
    fn normalized_profile(
        &self,
        fp_active: f64,
        dram_active: f64,
        frequencies: &[f64],
    ) -> NormalizedProfile {
        let spec = &self.spec;
        let engines = &self.engines;
        let power_w = engines.predict_power_w_batch(spec, fp_active, dram_active, frequencies);
        let time_ratio =
            engines.predict_time_ratio_batch(spec, fp_active, dram_active, frequencies);
        let ratio_at_max = match time_ratio.last() {
            Some(&ratio) if frequencies.last() == Some(&spec.max_core_mhz) => ratio,
            _ => engines.predict_time_ratio(spec, fp_active, dram_active, spec.max_core_mhz),
        };
        NormalizedProfile {
            power_w,
            time_ratio,
            ratio_at_max,
        }
    }

    /// Converts a normalized profile to absolute time/energy, anchoring
    /// on the reference run's measured default-clock time.
    fn anchor_profile(
        &self,
        normalized: &NormalizedProfile,
        reference: &MetricSample,
        frequencies: &[f64],
    ) -> PredictedProfile {
        let anchor = reference.exec_time / normalized.ratio_at_max.max(1e-9);
        let time_s = normalized.time_ratio.iter().map(|&r| anchor * r).collect();
        PredictedProfile::new(
            reference.workload.clone(),
            frequencies.to_vec(),
            normalized.power_w.clone(),
            time_s,
        )
    }

    /// One request of [`Predictor::predict_batch_cached`].
    fn predict_from_reference_cached<C: CacheHandle>(
        &self,
        cache: &C,
        reference: &MetricSample,
        frequencies: &[f64],
    ) -> PredictedProfile {
        assert_eq!(
            reference.sm_app_clock, self.spec.max_core_mhz,
            "online phase requires a default-clock reference run"
        );
        let t0 = std::time::Instant::now();
        let t0_ns = obs::trace::now_ns();
        let key = cache.key(
            &self.spec,
            reference.fp_active(),
            reference.dram_active,
            frequencies,
        );
        let fp = cache.quantize(reference.fp_active());
        let dram = cache.quantize(reference.dram_active);
        let mut missed = false;
        let normalized = cache.get_or_insert_with(key, || {
            missed = true;
            self.normalized_profile(fp, dram, frequencies)
        });
        let profile = self.anchor_profile(&normalized, reference, frequencies);
        self.latency.record_duration(t0.elapsed());
        self.trace_request_event(t0_ns, &reference.workload, Some(!missed));
        profile
    }

    /// Like [`Predictor::predict_from_reference`] for each of
    /// `references`, in order, but consults `cache` first (a
    /// [`crate::cache::ShardedProfileCache`], or anything else
    /// implementing [`CacheHandle`]). On a hit the two forward passes are skipped
    /// entirely and only the per-request time anchor is recomputed. On a
    /// miss the profile is predicted from the *quantized* activities (so
    /// the cached entry is independent of request order and of cache
    /// capacity) and inserted; repeated applications in the batch hit
    /// after their first prediction.
    ///
    /// Runs sequentially on the calling thread: the `dvfs serve` daemon
    /// runs one batch per serving state, and callers that want a fan-out
    /// run one-element batches from their own workers against a shared
    /// cache.
    ///
    /// # Panics
    /// Panics if any reference was not taken at the default clock.
    pub fn predict_batch_cached<C: CacheHandle>(
        &self,
        cache: &C,
        references: &[MetricSample],
        frequencies: &[f64],
    ) -> Vec<PredictedProfile> {
        references
            .iter()
            .map(|reference| self.predict_from_reference_cached(cache, reference, frequencies))
            .collect()
    }

    /// Full online phase against a backend: profiles `workload` once at the
    /// default clock, then predicts across the backend's used grid.
    ///
    /// On backends with a pure profiling path the reference run goes
    /// through [`GpuBackend::profile_at_clock`] — no device clock state
    /// is touched, so concurrent online predictions on a shared backend
    /// cannot race each other (the sample is bitwise identical to the
    /// apply-then-profile sequence).
    pub fn predict_online<B: GpuBackend + ?Sized>(
        &self,
        backend: &B,
        workload: &PhasedWorkload,
    ) -> PredictedProfile {
        let reference = match backend.profile_at_clock(workload, self.spec.max_core_mhz, 0) {
            Some(sample) => sample,
            None => {
                backend.reset_clock();
                Profiler::new(backend).profile_run(workload, 0).sample
            }
        };
        self.predict_from_reference(&reference, &backend.grid().used())
    }

    /// Feeds a measured ground-truth profile for a prediction this
    /// predictor made into the global model-quality monitors (rolling
    /// power/time MAPE, drift alerts — see [`obs::quality`]). Call it
    /// whenever a predicted workload is later measured across the grid
    /// (or at any subset of it).
    ///
    /// # Panics
    /// Panics if the two profiles cover different frequency lists.
    pub fn observe_ground_truth(&self, measured: &PredictedProfile, predicted: &PredictedProfile) {
        crate::evaluation::record_ground_truth(measured, predicted);
    }
}

/// Builds the *measured* profile of a workload by sweeping the grid on the
/// backend (ground truth for evaluation; one run per frequency).
///
/// On backends that support concurrent profiling, the per-frequency
/// sweep fans across the rayon pool via the side-effect-free
/// [`GpuBackend::profile_at_clock`] path, preserving the ascending
/// frequency order (results are bitwise identical to the serial
/// apply-then-profile loop, which remains the hardware fallback).
pub fn measured_profile<B: GpuBackend + ?Sized>(
    backend: &B,
    workload: &PhasedWorkload,
) -> PredictedProfile {
    let freqs = backend.grid().used();
    let (power_w, time_s) = if backend.supports_concurrent_profiling() {
        let samples: Vec<(f64, f64)> = freqs
            .par_iter()
            .map(|&f| {
                let s = backend
                    .profile_at_clock(workload, f, 0)
                    .expect("backend advertised concurrent profiling");
                (s.power_usage, s.exec_time)
            })
            .collect();
        samples.into_iter().unzip()
    } else {
        let profiler = Profiler::new(backend);
        let swept = freqs
            .iter()
            .map(|&f| {
                backend
                    .set_app_clock(f)
                    .expect("used grid frequencies are supported");
                let p = profiler.profile_run(workload, 0);
                (p.sample.power_usage, p.sample.exec_time)
            })
            .unzip();
        backend.reset_clock();
        swept
    };
    PredictedProfile::new(workload.name.clone(), freqs, power_w, time_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ShardedProfileCache;
    use crate::dataset::Dataset;
    use gpu_model::{NoiseModel, SignatureBuilder};
    use telemetry::SimulatorBackend;

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
            SignatureBuilder::new("x3")
                .flops(1e12)
                .bytes(4e12)
                .kappa_memory(0.6)
                .build(),
        ];
        let grid = gpu_model::DvfsGrid::for_spec(spec);
        let mut samples = Vec::new();
        for sig in &sigs {
            for &f in grid.used().iter().step_by(2) {
                for run in 0..3 {
                    samples.push(gpu_model::sample::measure(spec, sig, f, run, &nm));
                }
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

    fn unseen_app() -> PhasedWorkload {
        PhasedWorkload::single(
            SignatureBuilder::new("unseen")
                .flops(1.5e13)
                .bytes(1.0e12)
                .build(),
        )
    }

    #[test]
    fn online_prediction_tracks_measurement() {
        let backend = SimulatorBackend::ga100();
        let models = trained_models(backend.spec());
        let predictor = Predictor::new(&models, backend.spec().clone());
        let app = unseen_app();
        let predicted = predictor.predict_online(&backend, &app);
        let measured = measured_profile(&backend, &app);
        assert_eq!(predicted.frequencies, measured.frequencies);
        // Power MAPE across the sweep should be within the paper's band.
        let mape = nn::metrics::mape(&predicted.power_w, &measured.power_w);
        assert!(mape < 12.0, "power MAPE {mape:.1}%");
        let t_mape = nn::metrics::mape(&predicted.time_s, &measured.time_s);
        assert!(t_mape < 15.0, "time MAPE {t_mape:.1}%");
    }

    #[test]
    fn profile_energy_is_power_times_time() {
        let backend = SimulatorBackend::ga100();
        let models = trained_models(backend.spec());
        let predictor = Predictor::new(&models, backend.spec().clone());
        let profile = predictor.predict_online(&backend, &unseen_app());
        for i in 0..profile.frequencies.len() {
            assert!((profile.energy_j[i] - profile.power_w[i] * profile.time_s[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn normalized_time_ends_at_one() {
        let backend = SimulatorBackend::ga100();
        let app = unseen_app();
        let measured = measured_profile(&backend, &app);
        let norm = measured.normalized_time();
        assert!((norm.last().unwrap() - 1.0).abs() < 1e-12);
        assert!(norm[0] > 1.0);
    }

    #[test]
    fn savings_accounting_is_relative_to_max() {
        let backend = SimulatorBackend::ga100();
        let app = unseen_app();
        let measured = measured_profile(&backend, &app);
        let idx = measured.max_freq_index();
        assert_eq!(measured.energy_saving_at(idx), 0.0);
        assert_eq!(measured.time_change_at(idx), 0.0);
        // Some interior frequency saves energy at a time cost.
        let sel = measured.select(Objective::Edp, None);
        assert!(measured.energy_saving_at(sel.index) > 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn non_ascending_frequencies_rejected() {
        // A descending grid would silently mislabel the anchor entry; the
        // constructor must refuse it.
        let _ = PredictedProfile::new(
            "w".into(),
            vec![1410.0, 705.0],
            vec![300.0, 200.0],
            vec![1.0, 1.6],
        );
    }

    fn reference_for(spec: &DeviceSpec, name: &str, flops: f64, bytes: f64) -> MetricSample {
        let sig = SignatureBuilder::new(name)
            .flops(flops)
            .bytes(bytes)
            .build();
        gpu_model::sample::measure(spec, &sig, spec.max_core_mhz, 0, &NoiseModel::none())
    }

    #[test]
    fn engine_bound_predictor_is_bitwise_identical_in_f64_mode() {
        let backend = SimulatorBackend::ga100();
        let spec = backend.spec().clone();
        let models = trained_models(&spec);
        let engines = PredictEngines::compile(&models, nn::Precision::F64);
        let plain = Predictor::new(&models, spec.clone());
        let fused = Predictor::with_engines(&models, &engines, spec.clone());
        let freqs = backend.grid().used();
        let reference = reference_for(&spec, "app", 1.5e13, 1.0e12);
        // PartialEq on the profile compares every f64 exactly.
        assert_eq!(
            plain.predict_from_reference(&reference, &freqs),
            fused.predict_from_reference(&reference, &freqs)
        );
    }

    #[test]
    fn engine_bound_predictor_stays_close_in_reduced_precision() {
        let backend = SimulatorBackend::ga100();
        let spec = backend.spec().clone();
        let models = trained_models(&spec);
        let plain = Predictor::new(&models, spec.clone());
        let freqs = backend.grid().used();
        let reference = reference_for(&spec, "app", 1.5e13, 1.0e12);
        let exact = plain.predict_from_reference(&reference, &freqs);
        for (precision, rtol) in [(nn::Precision::F32, 1e-3), (nn::Precision::Bf16, 5e-2)] {
            let engines = PredictEngines::compile(&models, precision);
            let fused = Predictor::with_engines(&models, &engines, spec.clone());
            let got = fused.predict_from_reference(&reference, &freqs);
            for i in 0..freqs.len() {
                let dp = (got.power_w[i] - exact.power_w[i]).abs() / exact.power_w[i].max(1e-9);
                let dt = (got.time_s[i] - exact.time_s[i]).abs() / exact.time_s[i].max(1e-9);
                assert!(dp < rtol, "{precision:?} power drifted {dp:.2e} at row {i}");
                assert!(dt < rtol, "{precision:?} time drifted {dt:.2e} at row {i}");
            }
        }
    }

    /// The anchor ratio is the one-row prediction at the default clock,
    /// bit for bit, whether it is read off the sweep's last row (a grid
    /// ending at the default clock) or predicted separately (any other
    /// grid), in every precision mode.
    #[test]
    fn anchor_ratio_equals_the_one_row_prediction_on_every_grid() {
        let backend = SimulatorBackend::ga100();
        let spec = backend.spec().clone();
        let models = trained_models(&spec);
        let used = backend.grid().used();
        assert_eq!(used.last(), Some(&spec.max_core_mhz));
        let short = &used[..used.len() - 1];
        for precision in [Precision::F64, Precision::F32, Precision::Bf16] {
            let engines = PredictEngines::compile(&models, precision);
            let predictor = Predictor::with_engines(&models, &engines, spec.clone());
            for (fp, dram) in [(0.62, 0.31), (0.05, 0.9), (0.99, 0.01)] {
                let want = engines.predict_time_ratio(&spec, fp, dram, spec.max_core_mhz);
                for grid in [&used[..], short] {
                    let got = predictor.normalized_profile(fp, dram, grid).ratio_at_max;
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{precision}: {} states",
                        grid.len()
                    );
                }
            }
        }
    }

    #[test]
    fn cached_prediction_hits_and_stays_close_to_uncached() {
        let backend = SimulatorBackend::ga100();
        let spec = backend.spec().clone();
        let models = trained_models(&spec);
        let predictor = Predictor::new(&models, spec.clone());
        let freqs = backend.grid().used();
        let reference = reference_for(&spec, "app", 1.5e13, 1.0e12);
        let cache = ShardedProfileCache::new(8, 1);
        let one = std::slice::from_ref(&reference);
        let first = predictor
            .predict_batch_cached(&cache, one, &freqs)
            .remove(0);
        let second = predictor
            .predict_batch_cached(&cache, one, &freqs)
            .remove(0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The hit reuses the cached normalized profile and the same anchor,
        // so the result is exactly reproduced.
        assert_eq!(first, second);
        // Quantizing the activities to 1e-3 moves the prediction only
        // marginally relative to the exact (uncached) path.
        let exact = predictor.predict_from_reference(&reference, &freqs);
        for (i, &f) in freqs.iter().enumerate() {
            let dp = (first.power_w[i] - exact.power_w[i]).abs() / exact.power_w[i];
            let dt = (first.time_s[i] - exact.time_s[i]).abs() / exact.time_s[i];
            assert!(dp < 0.02, "power drifted {:.3}% at {f} MHz", 100.0 * dp);
            assert!(dt < 0.02, "time drifted {:.3}% at {f} MHz", 100.0 * dt);
        }
    }

    #[test]
    fn predict_batch_cached_shares_entries_across_requests() {
        let backend = SimulatorBackend::ga100();
        let spec = backend.spec().clone();
        let models = trained_models(&spec);
        let predictor = Predictor::new(&models, spec.clone());
        let freqs = backend.grid().used();
        let pool = [
            reference_for(&spec, "a", 1.5e13, 1.0e12),
            reference_for(&spec, "b", 2.0e11, 1.8e13),
        ];
        // 6 requests over 2 distinct applications.
        let stream: Vec<MetricSample> = (0..6).map(|i| pool[i % pool.len()].clone()).collect();
        let cache = ShardedProfileCache::new(8, 1);
        let profiles = predictor.predict_batch_cached(&cache, &stream, &freqs);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (4, 2));
        assert_eq!(cache.len(), 2);
        // Requests for the same app are identical regardless of arrival
        // order (entries are computed from bucket centers).
        assert_eq!(profiles[0], profiles[2]);
        assert_eq!(profiles[1], profiles[3]);
        assert_eq!(profiles[0], profiles[4]);
    }

    #[test]
    fn predictions_record_request_latency() {
        let backend = SimulatorBackend::ga100();
        let spec = backend.spec().clone();
        let models = trained_models(&spec);
        let predictor = Predictor::new(&models, spec.clone());
        let freqs = backend.grid().used();
        let reference = reference_for(&spec, "app", 1.5e13, 1.0e12);
        // The histogram is global and shared with concurrently-running
        // tests, so assert on growth, not absolute counts.
        let hist = obs::global().histogram("predict.request_ns");
        let before = hist.count();
        let cache = ShardedProfileCache::new(4, 1);
        let _ = predictor.predict_from_reference(&reference, &freqs);
        let _ = predictor.predict_batch_cached(&cache, &[reference.clone(), reference], &freqs);
        assert!(
            hist.count() >= before + 3,
            "latency histogram did not grow: {} -> {}",
            before,
            hist.count()
        );
        assert!(hist.max() > 0, "recorded latencies are nonzero");
    }

    #[test]
    #[should_panic(expected = "default-clock reference")]
    fn non_default_reference_rejected() {
        let backend = SimulatorBackend::ga100();
        let models = trained_models(backend.spec());
        let predictor = Predictor::new(&models, backend.spec().clone());
        let sig = SignatureBuilder::new("w").flops(1e12).bytes(1e10).build();
        let bad = gpu_model::sample::measure(backend.spec(), &sig, 705.0, 0, &NoiseModel::none());
        let _ = predictor.predict_from_reference(&bad, &[705.0, 1410.0]);
    }
}
