//! Replay backend: a [`GpuBackend`] backed by recorded measurements.
//!
//! This is the "bring your own data" path: a CSV of DCGM samples recorded
//! on real hardware (or written by an earlier campaign of this framework)
//! becomes a device. Profiling replays the recorded sample for the
//! workload at the current clock; the rest of the pipeline — dataset
//! assembly, training, prediction, selection — runs unchanged. Run indices
//! beyond the recorded ones wrap around.

use crate::backend::{BackendError, GpuBackend};
use gpu_model::{DeviceSpec, DvfsGrid, MetricSample, PhasedWorkload};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::Path;

/// A backend that replays recorded metric samples.
pub struct ReplayBackend {
    spec: DeviceSpec,
    grid: DvfsGrid,
    clock: Mutex<f64>,
    /// (workload, clock in integer deci-MHz) -> recorded runs.
    recordings: BTreeMap<(String, u64), Vec<MetricSample>>,
}

/// Errors constructing a replay backend.
#[derive(Debug)]
pub enum ReplayError {
    /// Underlying IO/parse failure.
    Io(std::io::Error),
    /// The recording is empty.
    Empty,
    /// A sample's clock is not a supported state of the device spec.
    OffGridSample {
        /// Offending workload.
        workload: String,
        /// Offending clock.
        mhz: f64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "reading recording: {e}"),
            ReplayError::Empty => write!(f, "recording contains no samples"),
            ReplayError::OffGridSample { workload, mhz } => {
                write!(
                    f,
                    "sample for {workload} at {mhz} MHz is not on the device grid"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

fn key(workload: &str, mhz: f64) -> (String, u64) {
    (workload.to_string(), (mhz * 10.0).round() as u64)
}

impl ReplayBackend {
    /// Builds a replay device for `spec` from in-memory samples.
    pub fn from_samples(spec: DeviceSpec, samples: Vec<MetricSample>) -> Result<Self, ReplayError> {
        if samples.is_empty() {
            return Err(ReplayError::Empty);
        }
        let grid = DvfsGrid::for_spec(&spec);
        let mut recordings: BTreeMap<(String, u64), Vec<MetricSample>> = BTreeMap::new();
        for s in samples {
            if !grid.is_supported(s.sm_app_clock) {
                return Err(ReplayError::OffGridSample {
                    workload: s.workload.clone(),
                    mhz: s.sm_app_clock,
                });
            }
            recordings
                .entry(key(&s.workload, s.sm_app_clock))
                .or_default()
                .push(s);
        }
        let clock = Mutex::new(spec.max_core_mhz);
        Ok(Self {
            spec,
            grid,
            clock,
            recordings,
        })
    }

    /// Builds a replay device from a campaign CSV (see [`crate::csv`]).
    pub fn from_csv(spec: DeviceSpec, path: &Path) -> Result<Self, ReplayError> {
        let samples = crate::csv::read_samples(path).map_err(ReplayError::Io)?;
        Self::from_samples(spec, samples)
    }

    /// Workloads present in the recording.
    pub fn workloads(&self) -> Vec<String> {
        let mut names: Vec<String> = self.recordings.keys().map(|(w, _)| w.clone()).collect();
        names.dedup();
        names
    }

    /// Whether the recording covers `workload` at `mhz`.
    pub fn covers(&self, workload: &str, mhz: f64) -> bool {
        self.recordings.contains_key(&key(workload, mhz))
    }
}

impl GpuBackend for ReplayBackend {
    fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    fn grid(&self) -> &DvfsGrid {
        &self.grid
    }

    fn set_app_clock(&self, mhz: f64) -> Result<(), BackendError> {
        if !self.grid.is_supported(mhz) {
            return Err(BackendError::UnsupportedClock {
                requested: mhz,
                nearest: self.grid.nearest(mhz),
            });
        }
        *self.clock.lock() = mhz;
        Ok(())
    }

    fn app_clock(&self) -> f64 {
        *self.clock.lock()
    }

    /// Replays the recorded sample for `(workload.name, current clock)`.
    ///
    /// # Panics
    /// Panics when the recording does not cover the requested operating
    /// point — replay is for driving the pipeline over *complete* recorded
    /// campaigns; use [`ReplayBackend::covers`] to pre-check sparse data.
    fn run_profiled(&self, workload: &PhasedWorkload, run: u32) -> MetricSample {
        let mhz = self.app_clock();
        let runs = self
            .recordings
            .get(&key(&workload.name, mhz))
            .unwrap_or_else(|| {
                panic!("recording has no sample for {} at {mhz} MHz", workload.name)
            });
        runs[run as usize % runs.len()].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimulatorBackend;
    use crate::{CollectionCampaign, LaunchConfig};
    use gpu_model::SignatureBuilder;

    fn record_campaign() -> (DeviceSpec, Vec<MetricSample>, Vec<PhasedWorkload>) {
        let sim = SimulatorBackend::ga100();
        let workloads = vec![
            PhasedWorkload::single(
                SignatureBuilder::new("rec-a")
                    .flops(1e13)
                    .bytes(1e11)
                    .build(),
            ),
            PhasedWorkload::single(
                SignatureBuilder::new("rec-b")
                    .flops(1e11)
                    .bytes(1e13)
                    .build(),
            ),
        ];
        let cfg = LaunchConfig {
            frequencies: vec![510.0, 1005.0, 1410.0],
            runs: 2,
            output: None,
        };
        let samples = CollectionCampaign::new(&sim, cfg)
            .collect(&workloads)
            .unwrap();
        (sim.spec().clone(), samples, workloads)
    }

    #[test]
    fn replays_recorded_samples_exactly() {
        let (spec, samples, workloads) = record_campaign();
        let original = samples[0].clone();
        let replay = ReplayBackend::from_samples(spec, samples).unwrap();
        replay.set_app_clock(original.sm_app_clock).unwrap();
        let got = replay.run_profiled(&workloads[0], original.run);
        assert_eq!(got, original);
    }

    #[test]
    fn run_index_wraps_over_recorded_runs() {
        let (spec, samples, workloads) = record_campaign();
        let replay = ReplayBackend::from_samples(spec, samples).unwrap();
        replay.set_app_clock(1005.0).unwrap();
        let r0 = replay.run_profiled(&workloads[0], 0);
        let r2 = replay.run_profiled(&workloads[0], 2); // wraps to run 0
        assert_eq!(r0, r2);
    }

    #[test]
    fn covers_reports_recorded_points() {
        let (spec, samples, _) = record_campaign();
        let replay = ReplayBackend::from_samples(spec, samples).unwrap();
        assert!(replay.covers("rec-a", 510.0));
        assert!(!replay.covers("rec-a", 750.0));
        assert!(!replay.covers("unknown", 510.0));
    }

    #[test]
    fn csv_round_trip_into_replay() {
        let (spec, samples, workloads) = record_campaign();
        let dir = std::env::temp_dir().join("gpu_dvfs_replay_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("recording.csv");
        crate::csv::write_samples(&path, &samples).unwrap();
        let replay = ReplayBackend::from_csv(spec, &path).unwrap();
        replay.set_app_clock(1410.0).unwrap();
        let s = replay.run_profiled(&workloads[1], 0);
        assert_eq!(s.workload, "rec-b");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_recording_rejected() {
        let spec = DeviceSpec::ga100();
        assert!(matches!(
            ReplayBackend::from_samples(spec, vec![]),
            Err(ReplayError::Empty)
        ));
    }

    #[test]
    fn off_grid_sample_rejected() {
        let (spec, mut samples, _) = record_campaign();
        samples[0].sm_app_clock = 512.0; // not a GA100 state
        assert!(matches!(
            ReplayBackend::from_samples(spec, samples),
            Err(ReplayError::OffGridSample { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "no sample for")]
    fn uncovered_point_panics() {
        let (spec, samples, workloads) = record_campaign();
        let replay = ReplayBackend::from_samples(spec, samples).unwrap();
        replay.set_app_clock(750.0).unwrap();
        let _ = replay.run_profiled(&workloads[0], 0);
    }
}
