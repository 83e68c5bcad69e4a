//! End-to-end offline phase: collect the training campaign, train the
//! models, hand back a deployable pipeline (paper Figure 2, left half).

use crate::dataset::Dataset;
use crate::models::PowerTimeModels;
use crate::predictor::Predictor;
use gpu_model::{DeviceSpec, MetricSample, PhasedWorkload};
use kernels::suite::training_suite;
use telemetry::{CollectionCampaign, GpuBackend, LaunchConfig, SimulatorBackend};

/// How many runs per (workload, frequency) point the campaign takes
/// (the paper executes each workload three times).
pub const RUNS_PER_POINT: u32 = 3;

/// A trained, deployable pipeline: models + the spec they were trained on.
pub struct TrainedPipeline {
    /// The trained power and time models.
    pub models: PowerTimeModels,
    /// The device the training campaign ran on.
    pub train_spec: DeviceSpec,
    /// The raw campaign samples (kept for the feature-characterization
    /// experiments).
    pub samples: Vec<MetricSample>,
    /// The normalized dataset the models were fitted on.
    pub dataset: Dataset,
}

impl TrainedPipeline {
    /// Runs the full offline phase on `backend` with the paper's
    /// 21-benchmark suite and run count. `stride` subsamples the frequency
    /// grid (1 = every used state, the paper's setting; larger strides
    /// speed up tests).
    pub fn train_on<B: GpuBackend + ?Sized>(backend: &B, stride: usize) -> Self {
        let workloads = training_workloads(backend.spec());
        Self::train_on_workloads(backend, &workloads, stride)
    }

    /// Offline phase with an explicit workload list.
    pub fn train_on_workloads<B: GpuBackend + ?Sized>(
        backend: &B,
        workloads: &[PhasedWorkload],
        stride: usize,
    ) -> Self {
        obs::span!("pipeline");
        let spec = backend.spec().clone();
        let mut freqs: Vec<f64> = backend
            .grid()
            .used()
            .into_iter()
            .step_by(stride.max(1))
            .collect();
        // The default clock must be present (exactly — `Dataset` matches
        // `sm_app_clock == max_core_mhz` for normalization). Comparing the
        // last stride-subsampled frequency with exact `!=` would duplicate
        // the point whenever accumulated grid arithmetic leaves it within
        // float error of the maximum, so dedup with a tolerance well below
        // the grid step before appending the exact value.
        let tol = spec.step_mhz.max(1.0) * 1e-6;
        freqs.retain(|&f| (f - spec.max_core_mhz).abs() > tol);
        freqs.push(spec.max_core_mhz);
        let config = LaunchConfig {
            frequencies: freqs,
            runs: RUNS_PER_POINT,
            output: None,
            threads: 0,
        };
        // Each phase publishes its wall time as a gauge so a dashboard
        // (or `dvfs obs`) can see where an offline run spends its time
        // without digging through span histograms.
        let t0 = std::time::Instant::now();
        let samples = {
            obs::span!("campaign");
            CollectionCampaign::new(backend, config)
                .collect(workloads)
                .expect("in-memory campaign cannot fail on IO")
        };
        obs::global()
            .gauge("pipeline.campaign_s")
            .set(t0.elapsed().as_secs_f64());
        let t1 = std::time::Instant::now();
        let dataset = {
            obs::span!("dataset");
            Dataset::from_samples(&spec, &samples).expect("campaign covers the default clock")
        };
        obs::global()
            .gauge("pipeline.dataset_s")
            .set(t1.elapsed().as_secs_f64());
        // Timeline marker between the campaign and training phases: how
        // much data the fit is about to see (the phase spans themselves
        // land on the trace via the span hook).
        obs::trace::instant(
            obs::trace::intern("pipeline.dataset_ready"),
            &[
                (
                    obs::trace::intern("rows"),
                    obs::trace::ArgValue::U64(dataset.len() as u64),
                ),
                (
                    obs::trace::intern("samples"),
                    obs::trace::ArgValue::U64(samples.len() as u64),
                ),
            ],
        );
        let t2 = std::time::Instant::now();
        let models = {
            obs::span!("train");
            PowerTimeModels::train(&dataset)
        };
        obs::global()
            .gauge("pipeline.train_s")
            .set(t2.elapsed().as_secs_f64());
        Self {
            models,
            train_spec: spec,
            samples,
            dataset,
        }
    }

    /// Convenience: the paper's full GA100 offline phase.
    pub fn paper_ga100() -> Self {
        let backend = SimulatorBackend::ga100();
        Self::train_on(&backend, 1)
    }

    /// A predictor bound to `spec` (use the training spec for same-device
    /// prediction, or another spec for the portability study).
    pub fn predictor(&self, spec: DeviceSpec) -> Predictor<'_> {
        Predictor::new(&self.models, spec)
    }
}

/// The training suite's workloads on `spec`, each signature derived from
/// one run of its instrumented kernel: the offline phase before the
/// campaign, under a span of its own.
fn training_workloads(spec: &DeviceSpec) -> Vec<PhasedWorkload> {
    obs::span!("signatures");
    training_suite().iter().map(|k| k.workload(spec)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::SignatureBuilder;

    fn quick_pipeline() -> (SimulatorBackend, TrainedPipeline) {
        let backend = SimulatorBackend::ga100();
        // Stride 6 over the grid keeps the test fast while covering the
        // frequency range.
        let workloads: Vec<PhasedWorkload> = vec![
            PhasedWorkload::single(
                SignatureBuilder::new("c")
                    .flops(2e13)
                    .bytes(2e11)
                    .kappa_compute(0.9)
                    .build(),
            ),
            PhasedWorkload::single(
                SignatureBuilder::new("m")
                    .flops(2e11)
                    .bytes(2e13)
                    .kappa_memory(0.85)
                    .build(),
            ),
            PhasedWorkload::single(SignatureBuilder::new("x").flops(8e12).bytes(3e12).build()),
            PhasedWorkload::single(
                SignatureBuilder::new("y")
                    .flops(3e12)
                    .bytes(1e12)
                    .kappa_compute(0.5)
                    .build(),
            ),
        ];
        let p = TrainedPipeline::train_on_workloads(&backend, &workloads, 3);
        (backend, p)
    }

    #[test]
    fn campaign_produces_expected_row_count() {
        let (_, p) = quick_pipeline();
        // 21 frequencies (stride 3 over 61) x 4 workloads x 3 runs, and
        // FeatureMode::Both doubles the dataset rows.
        assert_eq!(p.samples.len(), 21 * 4 * 3);
        assert_eq!(p.dataset.len(), 2 * p.samples.len());
    }

    #[test]
    fn trained_pipeline_predicts_unseen_app() {
        let (backend, p) = quick_pipeline();
        let app = PhasedWorkload::single(
            SignatureBuilder::new("unseen")
                .flops(1e13)
                .bytes(1e12)
                .build(),
        );
        let predictor = p.predictor(p.train_spec.clone());
        let profile = predictor.predict_online(&backend, &app);
        assert_eq!(profile.frequencies.len(), 61);
        let measured = crate::predictor::measured_profile(&backend, &app);
        let mape = nn::metrics::mape(&profile.power_w, &measured.power_w);
        assert!(mape < 12.0, "power MAPE {mape:.1}%");
    }

    #[test]
    fn pipeline_phases_record_spans() {
        let (_, _p) = quick_pipeline();
        let workloads = training_workloads(&DeviceSpec::ga100());
        assert_eq!(workloads.len(), 21);
        for path in [
            // `train_on` derives the suite's signatures before the pipeline.
            "signatures",
            "pipeline",
            "pipeline/campaign",
            "pipeline/dataset",
            "pipeline/train",
            // Power fit: inline on the caller, under the open span tree.
            "pipeline/train/fit/epoch",
            "pipeline/train/fit/epoch/validate",
            // Time fit: grafted under the same parent by train_with.
            "pipeline/train/time/fit/epoch",
            "pipeline/train/time/fit/epoch/validate",
        ] {
            assert!(obs::span::stat(path).is_some(), "missing span `{path}`");
        }
    }

    #[test]
    fn pipeline_phases_publish_wall_time_gauges() {
        let (_, _p) = quick_pipeline();
        for gauge in [
            "pipeline.campaign_s",
            "pipeline.dataset_s",
            "pipeline.train_s",
        ] {
            let v = obs::global().gauge(gauge).get();
            assert!(v > 0.0, "gauge `{gauge}` not published (got {v})");
        }
    }

    #[test]
    fn dataset_includes_default_clock_rows() {
        let (_, p) = quick_pipeline();
        let has_max = p
            .samples
            .iter()
            .any(|s| s.sm_app_clock == p.train_spec.max_core_mhz);
        assert!(has_max);
    }
}
