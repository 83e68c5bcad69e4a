//! The paper's two DNN models and their training recipe (Section 4.3).

use crate::dataset::{Dataset, NUM_FEATURES};
use gpu_model::DeviceSpec;
use nn::{
    Activation, InferenceEngine, Loss, Network, NetworkBuilder, OptimizerKind, Precision,
    TrainConfig, Trainer, TrainingHistory,
};
use serde::{Deserialize, Serialize};

/// Epochs for the power model (paper: losses converge at 100, Figure 6a).
pub const POWER_EPOCHS: usize = 100;
/// Epochs for the time model (paper: converges at 25, Figure 6b — more
/// overfits).
pub const TIME_EPOCHS: usize = 25;
/// Batch size (the paper uses 64, matching the layer width).
pub const BATCH_SIZE: usize = 64;

/// Hyperparameters for one model; defaults are the paper's configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Hidden layer count.
    pub hidden_layers: usize,
    /// Neurons per hidden layer.
    pub width: usize,
    /// Hidden activation.
    pub activation: Activation,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl ModelConfig {
    /// The paper's power-model configuration.
    pub fn paper_power() -> Self {
        Self {
            hidden_layers: 3,
            width: 64,
            activation: Activation::Selu,
            optimizer: OptimizerKind::paper_default(),
            epochs: POWER_EPOCHS,
            seed: 0x000A_1001,
        }
    }

    /// The paper's time-model configuration.
    pub fn paper_time() -> Self {
        Self {
            epochs: TIME_EPOCHS,
            seed: 0x000A_1002,
            ..Self::paper_power()
        }
    }

    /// Builds the (untrained) network.
    pub fn build_network(&self) -> Network {
        let mut b = NetworkBuilder::new(NUM_FEATURES).seed(self.seed);
        for _ in 0..self.hidden_layers {
            b = b.hidden(self.width, self.activation);
        }
        b.output(1, Activation::Linear).build()
    }

    fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: BATCH_SIZE,
            optimizer: self.optimizer,
            loss: Loss::Mse,
            validation_split: 0.2,
            shuffle_seed: self.seed ^ 0x5A5A,
            early_stop_patience: None,
            ..TrainConfig::default()
        }
    }
}

/// The trained power and time models plus their loss histories.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerTimeModels {
    /// Power model: features -> `P / TDP`.
    pub power: Network,
    /// Time model: features -> `T(f) / T(f_max)`.
    pub time: Network,
    /// Power-model training history (Figure 6a).
    pub power_history: TrainingHistory,
    /// Time-model training history (Figure 6b).
    pub time_history: TrainingHistory,
}

impl PowerTimeModels {
    /// Trains both models on a dataset with the paper's configurations.
    pub fn train(dataset: &Dataset) -> Self {
        Self::train_with(
            dataset,
            ModelConfig::paper_power(),
            ModelConfig::paper_time(),
        )
    }

    /// Trains both models with explicit configurations (ablations).
    ///
    /// The two fits are independent, so they run on both sides of a
    /// `rayon::join`. The power fit stays on the calling thread (its
    /// spans keep nesting under the caller's open span tree); the time
    /// fit's spans are grafted under the same parent as `time` so its
    /// timing survives landing on a helper thread. Each fit is
    /// internally deterministic for any thread count, so the pair of
    /// trained networks is bitwise identical to sequential training.
    pub fn train_with(dataset: &Dataset, power_cfg: ModelConfig, time_cfg: ModelConfig) -> Self {
        let yp = tensor::Matrix::col_vector(&dataset.y_power);
        let yt = tensor::Matrix::col_vector(&dataset.y_time);
        let parent = obs::span::current_path();

        let ((power_trainer, power_history), (time_trainer, time_history)) = rayon::join(
            || {
                let mut t = Trainer::new(power_cfg.build_network(), power_cfg.train_config());
                let h = t.fit(&dataset.x, &yp).expect("dataset validated upstream");
                (t, h)
            },
            || {
                let _graft = parent
                    .as_deref()
                    .map(|p| obs::span::Span::enter_under(p, "time"));
                let mut t = Trainer::new(time_cfg.build_network(), time_cfg.train_config());
                let h = t.fit(&dataset.x, &yt).expect("dataset validated upstream");
                (t, h)
            },
        );

        Self {
            power: power_trainer.into_network(),
            time: time_trainer.into_network(),
            power_history,
            time_history,
        }
    }

    /// Serializes both models to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("models serialize")
    }

    /// Restores models from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Both trained networks compiled into [`nn::InferenceEngine`]s at a
/// chosen [`Precision`]: the one prediction path, offline and online.
///
/// Every sweep assembles one feature row per frequency
/// ([`Dataset::feature_row`]), runs one batched engine pass per model,
/// scales power by the device TDP and clamps both outputs at zero. In
/// [`Precision::F64`] mode the engine runs the training crate's own
/// forward kernels, **bitwise identical** to [`nn::reference::predict`];
/// the reduced-precision modes run the packed batch-fused kernels, carry
/// the documented error bounds from [`nn::infer`] and are gated behind
/// the quality monitor before a snapshot may serve them (see
/// `crate::snapshot`).
#[derive(Debug, Clone)]
pub struct PredictEngines {
    power: InferenceEngine,
    time: InferenceEngine,
}

impl PredictEngines {
    /// Compiles both networks once (weight conversion + panel packing
    /// happen here, never per request).
    pub fn compile(models: &PowerTimeModels, precision: Precision) -> Self {
        Self {
            power: InferenceEngine::compile(&models.power, precision),
            time: InferenceEngine::compile(&models.time, precision),
        }
    }

    /// The numeric mode both engines were compiled for.
    pub fn precision(&self) -> Precision {
        self.power.precision()
    }

    /// Assembles the F x 3 feature matrix for one application (fixed
    /// activities, one row per frequency, written in place into a
    /// thread-local matrix reused across calls) and runs one batched
    /// engine pass over it into `out`, which allocates only if it lacks
    /// the capacity.
    fn batch_forward(
        engine: &InferenceEngine,
        spec: &DeviceSpec,
        fp_active: f64,
        dram_active: f64,
        frequencies: &[f64],
        out: &mut Vec<f64>,
    ) {
        thread_local! {
            static FEATURES: std::cell::RefCell<tensor::Matrix> =
                std::cell::RefCell::new(tensor::Matrix::zeros(0, 0));
        }
        FEATURES.with(|cell| {
            let mut x = cell.borrow_mut();
            x.resize_to(frequencies.len(), NUM_FEATURES);
            for (r, &mhz) in frequencies.iter().enumerate() {
                x.row_mut(r).copy_from_slice(&Dataset::features(
                    fp_active,
                    dram_active,
                    mhz / spec.max_core_mhz,
                ));
            }
            engine.predict_into(&x, out);
        })
    }

    /// Predicted power in watts at every frequency, one fused engine
    /// pass for the whole sweep.
    pub fn predict_power_w_batch(
        &self,
        spec: &DeviceSpec,
        fp_active: f64,
        dram_active: f64,
        frequencies: &[f64],
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(frequencies.len());
        Self::batch_forward(
            &self.power,
            spec,
            fp_active,
            dram_active,
            frequencies,
            &mut out,
        );
        for v in &mut out {
            *v = (*v * spec.tdp_w).max(0.0);
        }
        out
    }

    /// Predicted normalized times `T(f)/T(f_max)` at every frequency.
    pub fn predict_time_ratio_batch(
        &self,
        spec: &DeviceSpec,
        fp_active: f64,
        dram_active: f64,
        frequencies: &[f64],
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(frequencies.len());
        Self::batch_forward(
            &self.time,
            spec,
            fp_active,
            dram_active,
            frequencies,
            &mut out,
        );
        for v in &mut out {
            *v = v.max(0.0);
        }
        out
    }

    /// Single-frequency time ratio: a one-row batch through the same
    /// kernels as [`PredictEngines::predict_time_ratio_batch`], so it is
    /// bitwise-identical to the corresponding row of a batched call in
    /// every precision mode (per-row accumulation chains are independent
    /// of the batch size). Allocation-free once the thread is warm.
    pub fn predict_time_ratio(
        &self,
        spec: &DeviceSpec,
        fp_active: f64,
        dram_active: f64,
        mhz: f64,
    ) -> f64 {
        thread_local! {
            static OUT: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        OUT.with(|cell| {
            let mut out = cell.borrow_mut();
            Self::batch_forward(&self.time, spec, fp_active, dram_active, &[mhz], &mut out);
            out[0].max(0.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::{MetricSample, NoiseModel, SignatureBuilder};

    /// A small synthetic campaign: 4 workloads x 13 frequencies x 2 runs.
    fn small_dataset(spec: &DeviceSpec) -> Dataset {
        let nm = NoiseModel::default_bench();
        let sigs = [
            SignatureBuilder::new("comp")
                .flops(2e13)
                .bytes(2e11)
                .kappa_compute(0.9)
                .build(),
            SignatureBuilder::new("mem")
                .flops(2e11)
                .bytes(2e13)
                .kappa_memory(0.85)
                .build(),
            SignatureBuilder::new("mix").flops(8e12).bytes(3e12).build(),
            SignatureBuilder::new("idlish")
                .flops(4e11)
                .bytes(9e11)
                .kappa_compute(0.3)
                .build(),
        ];
        let mut samples: Vec<MetricSample> = Vec::new();
        let grid = gpu_model::DvfsGrid::for_spec(spec);
        for sig in &sigs {
            for &f in grid.used().iter().step_by(2) {
                for run in 0..3 {
                    samples.push(gpu_model::sample::measure(spec, sig, f, run, &nm));
                }
            }
            // Ensure the exact default clock is present.
            for run in 0..2 {
                samples.push(gpu_model::sample::measure(
                    spec,
                    sig,
                    spec.max_core_mhz,
                    run,
                    &nm,
                ));
            }
        }
        Dataset::from_samples(spec, &samples).unwrap()
    }

    #[test]
    fn paper_configs_match_section_4_3() {
        let p = ModelConfig::paper_power();
        assert_eq!(p.hidden_layers, 3);
        assert_eq!(p.width, 64);
        assert_eq!(p.activation, Activation::Selu);
        assert_eq!(p.optimizer.name(), "rmsprop");
        assert_eq!(p.epochs, 100);
        assert_eq!(ModelConfig::paper_time().epochs, 25);
    }

    #[test]
    fn network_shape_is_3x64() {
        let net = ModelConfig::paper_power().build_network();
        assert_eq!(net.in_dim(), 3);
        assert_eq!(net.out_dim(), 1);
        assert_eq!(net.layers().len(), 4);
        assert_eq!(net.layers()[0].out_dim(), 64);
    }

    #[test]
    fn training_converges_on_simulated_campaign() {
        let spec = DeviceSpec::ga100();
        let ds = small_dataset(&spec);
        let models = PowerTimeModels::train(&ds);
        // Power loss in normalized units should be small.
        let final_loss = *models.power_history.train_loss.last().unwrap();
        assert!(final_loss < 0.01, "power loss {final_loss}");
        let final_time_loss = *models.time_history.train_loss.last().unwrap();
        assert!(final_time_loss < 0.05, "time loss {final_time_loss}");
        assert_eq!(models.power_history.train_loss.len(), 100);
        assert_eq!(models.time_history.train_loss.len(), 25);
    }

    #[test]
    fn predictions_follow_physical_trends() {
        let spec = DeviceSpec::ga100();
        let ds = small_dataset(&spec);
        // The small test campaign gives the paper's 25 time-epochs too few
        // SGD steps; give the time model a fuller budget here (the trend
        // check is about the learned physics, not the epoch count).
        let time_cfg = ModelConfig {
            epochs: 120,
            ..ModelConfig::paper_time()
        };
        let models = PowerTimeModels::train_with(&ds, ModelConfig::paper_power(), time_cfg);
        // Use the compute-bound training workload's own default-clock
        // features (the regime the online phase operates in).
        let sig = SignatureBuilder::new("comp")
            .flops(2e13)
            .bytes(2e11)
            .kappa_compute(0.9)
            .build();
        let (fp, dram) = gpu_model::model::activities(&spec, &sig, spec.max_core_mhz);
        let engines = PredictEngines::compile(&models, Precision::F64);
        let p = engines.predict_power_w_batch(&spec, fp, dram, &[510.0, 1410.0]);
        let (p_low, p_high) = (p[0], p[1]);
        assert!(p_high > p_low * 1.5, "{p_low} -> {p_high}");
        let t_low = engines.predict_time_ratio(&spec, fp, dram, 510.0);
        let t_high = engines.predict_time_ratio(&spec, fp, dram, 1410.0);
        assert!(t_low > 1.5 * t_high, "{t_low} -> {t_high}");
        assert!(
            (t_high - 1.0).abs() < 0.15,
            "time ratio at fmax ~ 1, got {t_high}"
        );
    }

    /// f64 power predictions over a 61-state sweep at fixed activities.
    fn power_sweep(models: &PowerTimeModels, spec: &DeviceSpec, fp: f64, dram: f64) -> Vec<f64> {
        let freqs: Vec<f64> = (0..61).map(|i| 510.0 + 15.0 * i as f64).collect();
        PredictEngines::compile(models, Precision::F64)
            .predict_power_w_batch(spec, fp, dram, &freqs)
    }

    #[test]
    fn json_round_trip() {
        let spec = DeviceSpec::ga100();
        let ds = small_dataset(&spec);
        let models = PowerTimeModels::train(&ds);
        let back = PowerTimeModels::from_json(&models.to_json()).unwrap();
        assert_eq!(
            power_sweep(&models, &spec, 0.5, 0.5),
            power_sweep(&back, &spec, 0.5, 0.5)
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;
        use tensor::Matrix;

        /// Trains once and shares across all property cases — the property
        /// is about the prediction path, not training.
        fn shared() -> &'static (DeviceSpec, PowerTimeModels) {
            static SHARED: OnceLock<(DeviceSpec, PowerTimeModels)> = OnceLock::new();
            SHARED.get_or_init(|| {
                let spec = DeviceSpec::ga100();
                let models = PowerTimeModels::train(&small_dataset(&spec));
                (spec, models)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]
            /// f64 engines are the naive reference forward pass plus the
            /// model contract — feature rows from `Dataset::feature_row`,
            /// power scaled by TDP, both outputs clamped at zero — *bitwise*,
            /// for every batched row (including grids larger than the
            /// matmul parallel-dispatch threshold of 64 rows, where the
            /// blocked kernel hands rows to worker threads) and for the
            /// single-row time anchor.
            #[test]
            fn f64_engines_match_reference_bitwise(
                fp in 0.0..1.0f64,
                dram in 0.0..1.0f64,
                n in 1usize..100,
            ) {
                let (spec, models) = shared();
                let engines = PredictEngines::compile(models, Precision::F64);
                let freqs: Vec<f64> =
                    (0..n).map(|i| 510.0 + 900.0 * i as f64 / n as f64).collect();
                let row = |mhz: f64| Dataset::feature_row(fp, dram, mhz / spec.max_core_mhz);
                let rows: Vec<Vec<f64>> = freqs.iter().map(|&f| row(f)).collect();
                let x = Matrix::from_rows(&rows).unwrap();
                let want_p = nn::reference::predict(&models.power, &x);
                let want_t = nn::reference::predict(&models.time, &x);
                let got_p = engines.predict_power_w_batch(spec, fp, dram, &freqs);
                let got_t = engines.predict_time_ratio_batch(spec, fp, dram, &freqs);
                prop_assert_eq!(got_p.len(), n);
                prop_assert_eq!(got_t.len(), n);
                for i in 0..n {
                    let p = (want_p[(i, 0)] * spec.tdp_w).max(0.0);
                    prop_assert_eq!(got_p[i].to_bits(), p.to_bits());
                    prop_assert_eq!(got_t[i].to_bits(), want_t[(i, 0)].max(0.0).to_bits());
                }
                let anchor = engines.predict_time_ratio(spec, fp, dram, spec.max_core_mhz);
                let x_max = Matrix::row_vector(&row(spec.max_core_mhz));
                let want = nn::reference::predict(&models.time, &x_max)[(0, 0)].max(0.0);
                prop_assert_eq!(anchor.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn reduced_precision_engines_stay_near_f64() {
        let spec = DeviceSpec::ga100();
        let ds = small_dataset(&spec);
        let models = PowerTimeModels::train(&ds);
        let exact = PredictEngines::compile(&models, Precision::F64);
        let freqs: Vec<f64> = (0..61).map(|i| 510.0 + 15.0 * i as f64).collect();
        // Normalized-output tolerances: power fractions and time ratios
        // live in O(1) units, so the nn-level bounds apply directly
        // (power is additionally scaled by TDP below).
        for (precision, rtol) in [(Precision::F32, 1e-3), (Precision::Bf16, 5e-2)] {
            let engines = PredictEngines::compile(&models, precision);
            assert_eq!(engines.precision(), precision);
            let want_t = exact.predict_time_ratio_batch(&spec, 0.7, 0.4, &freqs);
            let got_t = engines.predict_time_ratio_batch(&spec, 0.7, 0.4, &freqs);
            for (g, w) in got_t.iter().zip(&want_t) {
                assert!(
                    (g - w).abs() <= rtol + rtol * w.abs(),
                    "{precision}: time ratio {g} vs {w}"
                );
            }
            let want_p = exact.predict_power_w_batch(&spec, 0.7, 0.4, &freqs);
            let got_p = engines.predict_power_w_batch(&spec, 0.7, 0.4, &freqs);
            for (g, w) in got_p.iter().zip(&want_p) {
                assert!(
                    (g - w).abs() <= rtol * spec.tdp_w + rtol * w.abs(),
                    "{precision}: power {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn training_is_deterministic() {
        let spec = DeviceSpec::ga100();
        let ds = small_dataset(&spec);
        let m1 = PowerTimeModels::train(&ds);
        let m2 = PowerTimeModels::train(&ds);
        assert_eq!(m1.power_history.train_loss, m2.power_history.train_loss);
        assert_eq!(
            power_sweep(&m1, &spec, 0.7, 0.3),
            power_sweep(&m2, &spec, 0.7, 0.3)
        );
    }
}
