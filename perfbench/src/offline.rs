//! The paper-scale offline phase as the repository ships it: `Lab::paper()`
//! (campaign of 21 benchmarks x 61 GA100 states x 3 runs -> dataset ->
//! power (100 epochs) and time (25 epochs) training -> the six applications
//! evaluated on GA100 and GV100) plus Table 3.
//!
//! Phase times are the program's own: `Lab::paper()` opens an `obs` span
//! around each phase (`lab/pipeline/campaign`, `lab/pipeline/dataset`,
//! `lab/pipeline/train`, `lab/evaluation`), and training keeps a
//! `TrainingHistory` per model.

use gpu_dvfs::core::evaluation::AccuracyRow;
use gpu_dvfs::core::experiments::{table3, Lab};
use gpu_dvfs::obs;
use gpu_dvfs::telemetry::GpuBackend;
use std::time::Instant;

/// The paper's Table 3 accuracy band, percent.
pub const PAPER_BAND: (f64, f64) = (88.0, 98.0);

pub struct Offline {
    pub lab: Lab,
    /// Minimum Table 3 accuracy (power and time) on GA100 and on GV100.
    pub min_accuracy: (f64, f64),
    pub wall_s: f64,
}

impl Offline {
    /// The Table 3 check: each device's minimum accuracy inside the band.
    pub fn check(&self) -> Result<(), String> {
        for (gpu, acc) in [
            ("GA100", self.min_accuracy.0),
            ("GV100", self.min_accuracy.1),
        ] {
            if !(PAPER_BAND.0..=PAPER_BAND.1).contains(&acc) {
                return Err(format!(
                    "Table 3 minimum accuracy on {gpu} is {acc:.1}%, outside the paper's {}-{}% band",
                    PAPER_BAND.0, PAPER_BAND.1
                ));
            }
        }
        Ok(())
    }
}

fn min_accuracy(rows: &[AccuracyRow]) -> f64 {
    rows.iter()
        .flat_map(|r| [r.power_accuracy, r.time_accuracy])
        .fold(f64::INFINITY, f64::min)
}

/// `Lab::paper()` plus Table 3, timed as a whole.
pub fn paper_lab() -> Offline {
    let t0 = Instant::now();
    let lab = Lab::paper();
    let report = table3::run(&lab);
    let wall_s = t0.elapsed().as_secs_f64();
    Offline {
        min_accuracy: (min_accuracy(&report.ga100), min_accuracy(&report.gv100)),
        lab,
        wall_s,
    }
}

/// Total ms and completion count of one of the program's `obs` spans.
pub fn span_ms(path: &str) -> (f64, usize) {
    obs::span::stat(path).map_or((0.0, 0), |s| (s.total_ns as f64 / 1e6, s.count as usize))
}

/// Mean µs of one `Predictor::predict_online` call (a default-clock
/// profiling run plus both `Network::predict` sweeps), over `rounds`
/// passes across the six applications on both devices, one call at a
/// time. Returns the mean and the number of calls.
pub fn predict_online_us(lab: &Lab, rounds: usize) -> (f64, usize) {
    let on_ga = lab.pipeline.predictor(lab.ga100.spec().clone());
    let on_gv = lab.pipeline.predictor(lab.gv100.spec().clone());
    let mut total_s = 0.0;
    let mut calls = 0;
    for _ in 0..rounds {
        for app in &lab.apps {
            for (backend, predictor) in [(&lab.ga100, &on_ga), (&lab.gv100, &on_gv)] {
                let t = Instant::now();
                std::hint::black_box(predictor.predict_online(backend, app));
                total_s += t.elapsed().as_secs_f64();
                calls += 1;
            }
        }
    }
    (total_s * 1e6 / calls.max(1) as f64, calls)
}
