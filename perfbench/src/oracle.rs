//! The in-process oracle that sampled served replies must match bit for bit:
//! `Predictor::with_engines` at f64, `predict_batch_cached` on a fresh
//! `ShardedProfileCache`, then `select_optimal`.

use crate::stream::{Req, THRESHOLD};
use gpu_dvfs::core::cache::ShardedProfileCache;
use gpu_dvfs::core::models::{PowerTimeModels, PredictEngines};
use gpu_dvfs::core::objective::select_optimal;
use gpu_dvfs::core::predictor::Predictor;
use gpu_dvfs::core::serve::Response;
use gpu_dvfs::gpu::{DeviceSpec, DvfsGrid, MetricSample};
use gpu_dvfs::nn::Precision;

pub struct Oracle {
    models: PowerTimeModels,
    engines: PredictEngines,
    spec: DeviceSpec,
    freqs: Vec<f64>,
}

/// The default-clock reference sample a request stands for, populated the
/// way the daemon builds it (only the fields the online phase reads).
pub fn reference(req: &Req, spec: &DeviceSpec) -> MetricSample {
    MetricSample {
        workload: req.name.clone(),
        run: 0,
        fp64_active: req.fp,
        fp32_active: 0.0,
        sm_app_clock: spec.max_core_mhz,
        dram_active: req.dram,
        gr_engine_active: 0.0,
        gpu_utilization: 0.0,
        power_usage: 0.0,
        sm_active: 0.0,
        sm_occupancy: 0.0,
        pcie_tx_bytes: 0.0,
        pcie_rx_bytes: 0.0,
        exec_time: req.exec,
    }
}

fn same_bits(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, oracle {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(i) => Err(format!(
            "{what}[{i}]: served {} vs oracle {}",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}

impl Oracle {
    /// `spec` is the device the daemon serves (its default, GA100).
    pub fn new(models: PowerTimeModels, spec: DeviceSpec) -> Self {
        Self {
            engines: PredictEngines::compile(&models, Precision::F64),
            freqs: DvfsGrid::for_spec(&spec).used(),
            models,
            spec,
        }
    }

    /// Checks one served reply; `Err` names the first difference.
    pub fn check(&self, req: &Req, reply: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(reply).map_err(|e| e.to_string())?;
        let resp: Response = serde_json::from_str(text).map_err(|e| format!("parse: {e}"))?;
        if !resp.ok {
            return Err(format!("error reply: {:?}", resp.error));
        }
        let got = resp.profile.ok_or("reply has no profile")?;
        let cache = ShardedProfileCache::new(4096, 2);
        let predictor = Predictor::with_engines(&self.models, &self.engines, self.spec.clone());
        let want = predictor
            .predict_batch_cached(&cache, &[reference(req, &self.spec)], &self.freqs)
            .remove(0);
        if got.workload != req.name {
            return Err(format!("workload `{}` for `{}`", got.workload, req.name));
        }
        same_bits("frequencies", &got.frequencies, &want.frequencies)?;
        same_bits("power_w", &got.power_w, &want.power_w)?;
        same_bits("time_s", &got.time_s, &want.time_s)?;
        same_bits("energy_j", &got.energy_j, &want.energy_j)?;
        match (req.objective, resp.selection) {
            (None, None) => Ok(()),
            (Some(objective), Some(sel)) => {
                let w = select_optimal(
                    &want.frequencies,
                    &want.energy_j,
                    &want.time_s,
                    objective,
                    Some(THRESHOLD),
                );
                if sel.frequency_mhz.to_bits() == w.frequency_mhz.to_bits() && sel.index == w.index
                {
                    Ok(())
                } else {
                    Err(format!(
                        "chose {} MHz, oracle {} MHz",
                        sel.frequency_mhz, w.frequency_mhz
                    ))
                }
            }
            (want_sel, got_sel) => Err(format!(
                "selection present: served {}, expected {}",
                got_sel.is_some(),
                want_sel.is_some()
            )),
        }
    }
}
