//! Dataset assembly and the normalization contract (paper Section 4.3).
//!
//! Every training row is `(fp_active, dram_active, sm_app_clock / f_max)`
//! with two targets:
//!
//! * `power_usage / TDP` — normalized power;
//! * `exec_time / exec_time(f_max)` — time relative to the default clock
//!   (Figure 8 plots exactly this normalized time).
//!
//! Training rows carry the features *measured at that row's frequency* —
//! the offline campaign has them anyway. The paper's central
//! simplification ("we consider the feature values obtained at default as
//! constant", Section 4.2 summary) applies to the **online phase**: an
//! unseen application is profiled once at the default clock and those
//! feature values stand in for every other frequency. Section 4.2.2 shows
//! the residual feature drift (mostly in `dram_active`) is small enough
//! not to hurt prediction — which holds here too, because the power
//! model's sensitivity to `dram_active` is modest.

use gpu_model::{DeviceSpec, MetricSample};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tensor::Matrix;

/// Number of model input features.
pub const NUM_FEATURES: usize = 3;

/// A normalized training dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature rows: `(fp_active, dram_active, f / f_max)`.
    pub x: Matrix,
    /// Normalized power targets (`P / TDP`), one per row.
    pub y_power: Vec<f64>,
    /// Normalized time targets (`T(f) / T(f_max)`), one per row.
    pub y_time: Vec<f64>,
    /// Workload name per row (for grouped diagnostics).
    pub workload: Vec<String>,
}

/// Per-workload reference point measured at the default clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefaultClockReference {
    /// Mean `fp_active` at the default clock.
    pub fp_active: f64,
    /// Mean `dram_active` at the default clock.
    pub dram_active: f64,
    /// Mean execution time at the default clock, seconds.
    pub exec_time_s: f64,
    /// Mean power at the default clock, watts.
    pub power_w: f64,
}

/// Errors during dataset assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// A workload has no samples at the default clock, so it cannot be
    /// normalized.
    MissingDefaultClock {
        /// The offending workload.
        workload: String,
    },
    /// No samples at all.
    Empty,
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::MissingDefaultClock { workload } => {
                write!(f, "workload {workload} has no samples at the default clock")
            }
            DatasetError::Empty => write!(f, "no samples provided"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// Computes each workload's default-clock reference from a sample set.
pub fn default_references(
    spec: &DeviceSpec,
    samples: &[MetricSample],
) -> Result<BTreeMap<String, DefaultClockReference>, DatasetError> {
    if samples.is_empty() {
        return Err(DatasetError::Empty);
    }
    let mut acc: BTreeMap<String, (f64, f64, f64, f64, usize)> = BTreeMap::new();
    for s in samples {
        if s.sm_app_clock == spec.max_core_mhz {
            let e = acc
                .entry(s.workload.clone())
                .or_insert((0.0, 0.0, 0.0, 0.0, 0));
            e.0 += s.fp_active();
            e.1 += s.dram_active;
            e.2 += s.exec_time;
            e.3 += s.power_usage;
            e.4 += 1;
        }
    }
    let mut out = BTreeMap::new();
    for s in samples {
        if !acc.contains_key(&s.workload) {
            return Err(DatasetError::MissingDefaultClock {
                workload: s.workload.clone(),
            });
        }
    }
    for (w, (fp, dram, t, p, n)) in acc {
        let n = n as f64;
        out.insert(
            w,
            DefaultClockReference {
                fp_active: fp / n,
                dram_active: dram / n,
                exec_time_s: t / n,
                power_w: p / n,
            },
        );
    }
    Ok(out)
}

/// Which feature values enter the training rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureMode {
    /// Features measured at each row's own frequency (maximum coverage of
    /// the feature space, but mismatched with the online phase's
    /// default-clock features).
    PerSample,
    /// Each workload's default-clock features replicated across all rows
    /// (aligned with the online phase, but only one feature point per
    /// workload).
    DefaultClock,
    /// Both views of every sample (the default): per-sample rows give the
    /// network coverage, default-clock rows anchor the online regime.
    Both,
}

impl Dataset {
    /// Builds the normalized dataset with the default [`FeatureMode::Both`].
    pub fn from_samples(spec: &DeviceSpec, samples: &[MetricSample]) -> Result<Self, DatasetError> {
        Self::from_samples_with(spec, samples, FeatureMode::Both)
    }

    /// Builds the normalized dataset with an explicit feature mode.
    pub fn from_samples_with(
        spec: &DeviceSpec,
        samples: &[MetricSample],
        mode: FeatureMode,
    ) -> Result<Self, DatasetError> {
        let refs = default_references(spec, samples)?;
        let per_sample = mode != FeatureMode::DefaultClock;
        let default_clock = mode != FeatureMode::PerSample;
        let n = samples.len() * (per_sample as usize + default_clock as usize);
        let mut x = Matrix::zeros(n, NUM_FEATURES);
        let mut y_power = Vec::with_capacity(n);
        let mut y_time = Vec::with_capacity(n);
        let mut workload = Vec::with_capacity(n);
        let mut i = 0usize;
        for s in samples {
            let r = &refs[&s.workload];
            let mut push = |fp: f64, dram: f64| {
                let row = x.row_mut(i);
                row[0] = fp;
                row[1] = dram;
                row[2] = s.sm_app_clock / spec.max_core_mhz;
                y_power.push(s.power_usage / spec.tdp_w);
                y_time.push(s.exec_time / r.exec_time_s);
                workload.push(s.workload.clone());
                i += 1;
            };
            if per_sample {
                push(s.fp_active(), s.dram_active);
            }
            if default_clock {
                push(r.fp_active, r.dram_active);
            }
        }
        Ok(Self {
            x,
            y_power,
            y_time,
            workload,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// True when the dataset holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds the model input row for given features and clock.
    pub fn feature_row(fp_active: f64, dram_active: f64, f_norm: f64) -> Vec<f64> {
        Self::features(fp_active, dram_active, f_norm).to_vec()
    }

    /// [`Dataset::feature_row`] on the stack, for the prediction paths
    /// that copy it into a reused buffer.
    pub(crate) fn features(fp_active: f64, dram_active: f64, f_norm: f64) -> [f64; NUM_FEATURES] {
        [fp_active, dram_active, f_norm]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::{NoiseModel, SignatureBuilder, WorkloadSignature};

    fn sig(name: &str) -> WorkloadSignature {
        SignatureBuilder::new(name)
            .flops(1.0e13)
            .bytes(2.0e11)
            .build()
    }

    fn samples_for(spec: &DeviceSpec, names: &[&str], freqs: &[f64]) -> Vec<MetricSample> {
        let nm = NoiseModel::none();
        let mut out = Vec::new();
        for &n in names {
            let s = sig(n);
            for &f in freqs {
                for run in 0..2 {
                    out.push(gpu_model::sample::measure(spec, &s, f, run, &nm));
                }
            }
        }
        out
    }

    #[test]
    fn builds_expected_shape() {
        let spec = DeviceSpec::ga100();
        let samples = samples_for(&spec, &["a", "b"], &[510.0, 1005.0, 1410.0]);
        let ds = Dataset::from_samples(&spec, &samples).unwrap();
        // FeatureMode::Both emits two rows per sample.
        assert_eq!(ds.len(), 24);
        assert_eq!(ds.x.cols(), NUM_FEATURES);
        assert_eq!(ds.y_power.len(), 24);
        assert_eq!(ds.y_time.len(), 24);
    }

    #[test]
    fn normalized_time_is_one_at_max_clock() {
        let spec = DeviceSpec::ga100();
        let samples = samples_for(&spec, &["a"], &[705.0, 1410.0]);
        let ds = Dataset::from_samples(&spec, &samples).unwrap();
        for i in 0..ds.len() {
            if (ds.x[(i, 2)] - 1.0).abs() < 1e-12 {
                assert!((ds.y_time[i] - 1.0).abs() < 1e-9);
            } else {
                assert!(ds.y_time[i] > 1.0, "slower at lower clocks");
            }
        }
    }

    #[test]
    fn power_targets_are_tdp_fractions() {
        let spec = DeviceSpec::ga100();
        let samples = samples_for(&spec, &["a"], &[510.0, 1410.0]);
        let ds = Dataset::from_samples(&spec, &samples).unwrap();
        assert!(ds.y_power.iter().all(|&p| (0.0..=1.05).contains(&p)));
    }

    #[test]
    fn features_follow_each_sample() {
        // Training rows carry per-frequency measured features: fp_active is
        // nearly invariant across DVFS while dram_active drifts (paper
        // Figure 4).
        let spec = DeviceSpec::ga100();
        let samples = samples_for(&spec, &["a"], &[510.0, 900.0, 1410.0]);
        let ds = Dataset::from_samples_with(&spec, &samples, FeatureMode::PerSample).unwrap();
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(ds.x[(i, 0)], s.fp_active());
            assert_eq!(ds.x[(i, 1)], s.dram_active);
        }
    }

    #[test]
    fn feature_modes_have_expected_row_counts() {
        let spec = DeviceSpec::ga100();
        let samples = samples_for(&spec, &["a"], &[510.0, 1410.0]);
        let per = Dataset::from_samples_with(&spec, &samples, FeatureMode::PerSample).unwrap();
        let def = Dataset::from_samples_with(&spec, &samples, FeatureMode::DefaultClock).unwrap();
        let both = Dataset::from_samples_with(&spec, &samples, FeatureMode::Both).unwrap();
        assert_eq!(per.len(), samples.len());
        assert_eq!(def.len(), samples.len());
        assert_eq!(both.len(), 2 * samples.len());
        // DefaultClock rows replicate the reference features everywhere.
        for i in 1..def.len() {
            assert_eq!(def.x[(i, 0)], def.x[(0, 0)]);
            assert_eq!(def.x[(i, 1)], def.x[(0, 1)]);
        }
    }

    #[test]
    fn missing_default_clock_is_error() {
        let spec = DeviceSpec::ga100();
        let samples = samples_for(&spec, &["a"], &[510.0, 705.0]);
        let err = Dataset::from_samples(&spec, &samples).unwrap_err();
        assert_eq!(
            err,
            DatasetError::MissingDefaultClock {
                workload: "a".into()
            }
        );
    }

    #[test]
    fn empty_input_is_error() {
        let spec = DeviceSpec::ga100();
        assert_eq!(
            Dataset::from_samples(&spec, &[]).unwrap_err(),
            DatasetError::Empty
        );
    }

    #[test]
    fn references_average_over_runs() {
        let spec = DeviceSpec::ga100();
        let samples = samples_for(&spec, &["a"], &[1410.0]);
        let refs = default_references(&spec, &samples).unwrap();
        let r = &refs["a"];
        let mean_p: f64 = samples.iter().map(|s| s.power_usage).sum::<f64>() / samples.len() as f64;
        assert!((r.power_w - mean_p).abs() < 1e-9);
    }
}
