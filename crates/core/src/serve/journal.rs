//! The serve plane's decision journal: the per-decision audit payload
//! written through [`obs::journal`], the energy-savings ledger it feeds,
//! and the deterministic replay engine that proves each decision back.
//!
//! A [`DecisionRecord`] captures everything a served `predict`/`select`
//! answer was a function of — snapshot version, request features, the
//! quantized cache key, the chosen clock, a digest of the predicted
//! power/time curves, the constraint, and predicted energy against the
//! max-clock baseline. Because the serve path is deterministic in
//! exactly those inputs (bucket-center cached predictions, snapshot-
//! bound f64 engines, a pure objective), [`replay`] re-running a journal
//! through a [`ModelSnapshot`] with the same weights must reproduce
//! every decision **bitwise** — any divergence is a real drift signal
//! (changed weights, changed grid, changed math), which is what makes
//! the journal a usable replay buffer for the continual-learning loop.

use super::protocol::Request;
use super::server::reference_from;
use crate::cache::{CacheHandle, ShardedProfileCache};
use crate::objective::select_optimal;
use crate::predictor::{PredictedProfile, Predictor};
use crate::snapshot::ModelSnapshot;
use gpu_model::DvfsGrid;
use std::sync::atomic::{AtomicU64, Ordering};

/// On-wire format version of the decision payload.
const FORMAT: u8 = 1;
/// Fixed-size prefix of an encoded record, before the workload bytes.
const FIXED_LEN: usize = 112;

const FLAG_SELECT: u8 = 1 << 0;
const FLAG_THRESHOLD: u8 = 1 << 1;
const FLAG_SELECTION: u8 = 1 << 2;
const FLAG_HIT: u8 = 1 << 3;

/// The frequency chosen by a `select` decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChosenClock {
    /// Index into the snapshot's used DVFS grid.
    pub index: u32,
    /// The chosen core clock, MHz (bit-exact as served).
    pub frequency_mhz: f64,
}

/// One served decision, as recorded in the journal body.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Snapshot version that served the decision.
    pub version: u64,
    /// Process-unique request id (trace flow id).
    pub req_id: u64,
    /// True for `select`, false for `predict`.
    pub select: bool,
    /// Whether a worker-local fragment cache hit answered it.
    pub hit: bool,
    /// Workload name from the request.
    pub workload: String,
    /// Request features (exactly as validated on the wire).
    pub fp_active: f64,
    /// DRAM activity from the request.
    pub dram_active: f64,
    /// Default-clock execution time from the request, seconds.
    pub exec_time: f64,
    /// Objective name (`select` only).
    pub objective: Option<String>,
    /// Performance-degradation constraint (`select` only, optional).
    pub threshold: Option<f64>,
    /// Stable digest of the quantized profile-cache key
    /// ([`crate::cache::CacheKey::shard_hash`]).
    pub cache_key: u64,
    /// FNV-1a digest over the predicted frequency/power/time curves.
    pub profile_digest: u64,
    /// The chosen clock (`select` with a non-empty grid).
    pub chosen: Option<ChosenClock>,
    /// Predicted time at the decision point (chosen clock for `select`,
    /// the max clock for `predict`), seconds.
    pub predicted_time_s: f64,
    /// Predicted energy at the decision point, joules.
    pub predicted_energy_j: f64,
    /// Predicted energy at the max-clock baseline, joules.
    pub baseline_energy_j: f64,
}

/// Borrowed mirror of [`DecisionRecord`] used on the serving hot path:
/// it encodes straight from the request's own strings, so journaling a
/// decision allocates nothing in the worker. [`DecisionRecord::encode`]
/// delegates here, keeping the owned and borrowed sides on one layout.
pub struct DecisionView<'a> {
    pub version: u64,
    pub req_id: u64,
    pub select: bool,
    pub hit: bool,
    pub workload: &'a str,
    pub fp_active: f64,
    pub dram_active: f64,
    pub exec_time: f64,
    pub objective: Option<&'a str>,
    pub threshold: Option<f64>,
    pub cache_key: u64,
    pub profile_digest: u64,
    pub chosen: Option<ChosenClock>,
    pub predicted_time_s: f64,
    pub predicted_energy_j: f64,
    pub baseline_energy_j: f64,
}

impl DecisionView<'_> {
    /// See [`DecisionRecord::encode`] for the layout contract.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.reserve(FIXED_LEN + self.workload.len());
        let mut flags = 0u8;
        if self.select {
            flags |= FLAG_SELECT;
        }
        if self.threshold.is_some() {
            flags |= FLAG_THRESHOLD;
        }
        if self.chosen.is_some() {
            flags |= FLAG_SELECTION;
        }
        if self.hit {
            flags |= FLAG_HIT;
        }
        buf.push(FORMAT);
        buf.push(flags);
        buf.push(objective_code(self.objective));
        buf.push(0);
        buf.extend_from_slice(&(self.workload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.extend_from_slice(&self.req_id.to_le_bytes());
        buf.extend_from_slice(&self.cache_key.to_le_bytes());
        buf.extend_from_slice(&self.profile_digest.to_le_bytes());
        buf.extend_from_slice(&self.fp_active.to_le_bytes());
        buf.extend_from_slice(&self.dram_active.to_le_bytes());
        buf.extend_from_slice(&self.exec_time.to_le_bytes());
        buf.extend_from_slice(&self.threshold.unwrap_or(0.0).to_le_bytes());
        let (index, mhz) = match self.chosen {
            Some(c) => (c.index, c.frequency_mhz),
            None => (u32::MAX, 0.0),
        };
        buf.extend_from_slice(&index.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&mhz.to_le_bytes());
        buf.extend_from_slice(&self.predicted_time_s.to_le_bytes());
        buf.extend_from_slice(&self.predicted_energy_j.to_le_bytes());
        buf.extend_from_slice(&self.baseline_energy_j.to_le_bytes());
        buf.extend_from_slice(self.workload.as_bytes());
    }
}

impl DecisionRecord {
    /// Predicted joules saved against the max-clock baseline. Zero for
    /// `predict` records (nothing was decided) and clamped at zero for
    /// the degenerate case of an objective picking a costlier point.
    pub fn joules_saved(&self) -> f64 {
        if self.select {
            (self.baseline_energy_j - self.predicted_energy_j).max(0.0)
        } else {
            0.0
        }
    }

    /// Serializes into `buf` (cleared first). The layout is a fixed
    /// 96-byte little-endian prefix followed by the workload bytes; the
    /// [`obs::journal`] envelope supplies length, CRC, sequence, and
    /// timestamp on top.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        DecisionView {
            version: self.version,
            req_id: self.req_id,
            select: self.select,
            hit: self.hit,
            workload: &self.workload,
            fp_active: self.fp_active,
            dram_active: self.dram_active,
            exec_time: self.exec_time,
            objective: self.objective.as_deref(),
            threshold: self.threshold,
            cache_key: self.cache_key,
            profile_digest: self.profile_digest,
            chosen: self.chosen,
            predicted_time_s: self.predicted_time_s,
            predicted_energy_j: self.predicted_energy_j,
            baseline_energy_j: self.baseline_energy_j,
        }
        .encode(buf)
    }

    /// Decodes a journal body. `None` on a foreign format or a
    /// malformed length — callers count these, they never panic.
    pub fn decode(body: &[u8]) -> Option<DecisionRecord> {
        if body.len() < FIXED_LEN || body[0] != FORMAT {
            return None;
        }
        // Every offset below lies inside the checked `FIXED_LEN` bytes.
        let u32_at = |o: usize| body[o..].first_chunk().map(|b| u32::from_le_bytes(*b));
        let u64_at = |o: usize| body[o..].first_chunk().map(|b| u64::from_le_bytes(*b));
        let f64_at = |o: usize| body[o..].first_chunk().map(|b| f64::from_le_bytes(*b));
        let flags = body[1];
        let workload_len = u32_at(4)? as usize;
        if body.len() != FIXED_LEN + workload_len {
            return None;
        }
        let workload = String::from_utf8(body[FIXED_LEN..].to_vec()).ok()?;
        let chosen = if flags & FLAG_SELECTION != 0 {
            Some(ChosenClock {
                index: u32_at(72)?,
                frequency_mhz: f64_at(80)?,
            })
        } else {
            None
        };
        Some(DecisionRecord {
            version: u64_at(8)?,
            req_id: u64_at(16)?,
            select: flags & FLAG_SELECT != 0,
            hit: flags & FLAG_HIT != 0,
            workload,
            fp_active: f64_at(40)?,
            dram_active: f64_at(48)?,
            exec_time: f64_at(56)?,
            objective: objective_name(body[2]).map(str::to_string),
            threshold: if flags & FLAG_THRESHOLD != 0 {
                Some(f64_at(64)?)
            } else {
                None
            },
            cache_key: u64_at(24)?,
            profile_digest: u64_at(32)?,
            chosen,
            predicted_time_s: f64_at(88)?,
            predicted_energy_j: f64_at(96)?,
            baseline_energy_j: f64_at(104)?,
        })
    }

    /// Renders one JSON line for `dvfs journal --export`. `seq`/`ts_ns`
    /// come from the journal envelope; digests render as hex strings so
    /// the f64-backed JSON number type cannot round them.
    pub fn export_line(&self, seq: u64, ts_ns: u64) -> String {
        let mut line = String::with_capacity(256);
        line.push_str(&format!(
            "{{\"seq\":{seq},\"ts_ns\":{ts_ns},\"version\":{},\"req_id\":{},\"cmd\":\"{}\",",
            self.version,
            self.req_id,
            if self.select { "select" } else { "predict" }
        ));
        line.push_str(&format!(
            "\"workload\":{},\"fp_active\":{},\"dram_active\":{},\"exec_time\":{},",
            json_str(&self.workload),
            fmt_f64(self.fp_active),
            fmt_f64(self.dram_active),
            fmt_f64(self.exec_time)
        ));
        match &self.objective {
            Some(o) => line.push_str(&format!("\"objective\":{},", json_str(o))),
            None => line.push_str("\"objective\":null,"),
        }
        match self.threshold {
            Some(t) => line.push_str(&format!("\"threshold\":{},", fmt_f64(t))),
            None => line.push_str("\"threshold\":null,"),
        }
        line.push_str(&format!(
            "\"cache_key\":\"{:016x}\",\"profile_digest\":\"{:016x}\",\"hit\":{},",
            self.cache_key, self.profile_digest, self.hit
        ));
        match self.chosen {
            Some(c) => line.push_str(&format!(
                "\"chosen_index\":{},\"chosen_mhz\":{},",
                c.index,
                fmt_f64(c.frequency_mhz)
            )),
            None => line.push_str("\"chosen_index\":null,\"chosen_mhz\":null,"),
        }
        line.push_str(&format!(
            "\"predicted_time_s\":{},\"predicted_energy_j\":{},\"baseline_energy_j\":{},\"joules_saved\":{},\"crc_ok\":true}}",
            fmt_f64(self.predicted_time_s),
            fmt_f64(self.predicted_energy_j),
            fmt_f64(self.baseline_energy_j),
            fmt_f64(self.joules_saved())
        ));
        line
    }
}

/// Shortest-roundtrip float rendering that stays valid JSON (no NaN or
/// infinity ever reaches here: the wire validator rejects them).
fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// Minimal JSON string escaping for workload/objective names.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn objective_code(name: Option<&str>) -> u8 {
    match name {
        None => 0,
        Some("edp") => 1,
        Some("ed2p") => 2,
        Some("energy") => 3,
        Some("time") => 4,
        Some(_) => 5,
    }
}

fn objective_name(code: u8) -> Option<&'static str> {
    match code {
        1 => Some("edp"),
        2 => Some("ed2p"),
        3 => Some("energy"),
        4 => Some("time"),
        _ => None,
    }
}

/// FNV-1a over the bit patterns of the predicted curves: two profiles
/// share a digest iff frequencies, power, and time are all bitwise
/// equal — exactly the "same decision inputs" predicate replay proves.
pub fn profile_digest(profile: &PredictedProfile) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    mix(profile.frequencies.len() as u64);
    for &f in &profile.frequencies {
        mix(f.to_bits());
    }
    for &p in &profile.power_w {
        mix(p.to_bits());
    }
    for &t in &profile.time_s {
        mix(t.to_bits());
    }
    h
}

/// The energy-accounting ledger: a lock-free f64 accumulator of
/// predicted joules saved plus the monotone counters the windowed
/// `serve.window.watts_saved` gauge derives from.
///
/// The counter is kept in **millijoules** (`u64` counters cannot carry
/// fractions; a millijoule of resolution keeps sub-second windows
/// meaningful), the exact total stays in the f64 accumulator.
pub struct EnergyLedger {
    joules_bits: AtomicU64,
    saved_mj: obs::Counter,
    decisions: obs::Counter,
}

impl Default for EnergyLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl EnergyLedger {
    /// Binds the ledger to the global registry counters.
    pub fn new() -> Self {
        let reg = obs::global();
        Self {
            joules_bits: AtomicU64::new(0f64.to_bits()),
            saved_mj: reg.counter("energy.predicted_joules_saved_mj"),
            decisions: reg.counter("energy.decisions"),
        }
    }

    /// Books one `select` decision's predicted saving. A non-finite
    /// saving is not added: one `+inf` would pin the total at `+inf` and
    /// saturate the millijoule counter for the rest of the process.
    pub fn record(&self, joules_saved: f64) {
        self.decisions.inc();
        if joules_saved > 0.0 && joules_saved.is_finite() {
            self.saved_mj.add((joules_saved * 1e3) as u64);
            let mut cur = self.joules_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + joules_saved).to_bits();
                match self.joules_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    /// Exact total predicted joules saved since start.
    pub fn total_joules(&self) -> f64 {
        f64::from_bits(self.joules_bits.load(Ordering::Relaxed))
    }

    /// `select` decisions booked since start.
    pub fn decisions(&self) -> u64 {
        self.decisions.get()
    }
}

/// One replay mismatch, capped-collected for reporting.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Journal sequence number of the diverging record.
    pub seq: u64,
    /// Workload name for context.
    pub workload: String,
    /// Which compared field diverged.
    pub field: &'static str,
    /// The journaled value.
    pub recorded: String,
    /// The re-computed value.
    pub replayed: String,
}

/// What [`replay`] found.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Decoded decision records replayed.
    pub records: u64,
    /// Journal records that failed to decode (foreign format).
    pub undecodable: u64,
    /// `select` decisions among the replayed records.
    pub decisions: u64,
    /// Records with any bitwise mismatch.
    pub divergent: u64,
    /// Mean absolute percentage error of replayed vs recorded predicted
    /// energy (0 when every decision reproduced bitwise).
    pub energy_mape: f64,
    /// Same for predicted time.
    pub time_mape: f64,
    /// Sum of journaled predicted savings, joules.
    pub recorded_joules_saved: f64,
    /// Sum of replayed predicted savings, joules.
    pub replayed_joules_saved: f64,
    /// Snapshot versions seen in the journal.
    pub versions: Vec<u64>,
    /// First few divergences, for diagnostics.
    pub divergences: Vec<Divergence>,
}

/// How many divergences [`replay`] keeps verbatim.
const MAX_DIVERGENCES: usize = 16;

/// Re-runs journaled decisions through `snapshot` and verifies each
/// against the recorded outcome, bit for bit.
///
/// The replay path is the worker path: the same quantized shared cache
/// (bucket-center entries make results independent of request order and
/// of cache capacity), the same snapshot-bound engines, the same
/// objective — so with the weights the journal was served from, every
/// comparison must be exact. Records from *different* weights surface
/// as divergences plus a recorded-vs-replayed MAPE, which is the drift
/// measurement the retraining loop consumes.
pub fn replay(records: &[obs::journal::JournalRecord], snapshot: &ModelSnapshot) -> ReplayReport {
    let mut report = ReplayReport::default();
    let predictor =
        Predictor::with_engines(&snapshot.models, &snapshot.engines, snapshot.spec.clone());
    let freqs = DvfsGrid::for_spec(&snapshot.spec).used();
    let cache = ShardedProfileCache::new(4096, 4);
    let mut ape_energy = 0.0f64;
    let mut ape_time = 0.0f64;
    let mut compared = 0u64;
    for record in records {
        let decision = match DecisionRecord::decode(&record.body) {
            Some(d) => d,
            None => {
                report.undecodable += 1;
                continue;
            }
        };
        report.records += 1;
        if !report.versions.contains(&decision.version) {
            report.versions.push(decision.version);
        }
        let req = if decision.select {
            Request::select(
                &decision.workload,
                decision.fp_active,
                decision.dram_active,
                decision.exec_time,
                decision.objective.as_deref().unwrap_or("edp"),
                decision.threshold,
            )
        } else {
            Request::predict(
                &decision.workload,
                decision.fp_active,
                decision.dram_active,
                decision.exec_time,
            )
        };
        let reference = reference_from(&req, snapshot.spec.max_core_mhz);
        let profile = predictor
            .predict_batch_cached(&cache, std::slice::from_ref(&reference), &freqs)
            .remove(0);
        let mut diverged = false;
        let mut diverge = |field: &'static str, recorded: String, replayed: String| {
            diverged = true;
            if report.divergences.len() < MAX_DIVERGENCES {
                report.divergences.push(Divergence {
                    seq: record.seq,
                    workload: decision.workload.clone(),
                    field,
                    recorded,
                    replayed,
                });
            }
        };
        let replayed_digest = profile_digest(&profile);
        if replayed_digest != decision.profile_digest {
            diverge(
                "profile_digest",
                format!("{:016x}", decision.profile_digest),
                format!("{replayed_digest:016x}"),
            );
        }
        let replayed_key = cache
            .key(
                &snapshot.spec,
                decision.fp_active,
                decision.dram_active,
                &freqs,
            )
            .shard_hash();
        if replayed_key != decision.cache_key {
            diverge(
                "cache_key",
                format!("{:016x}", decision.cache_key),
                format!("{replayed_key:016x}"),
            );
        }
        let max_idx = profile.max_freq_index();
        let (rep_idx, rep_time, rep_energy) = if decision.select {
            report.decisions += 1;
            let objective =
                super::protocol::parse_objective(decision.objective.as_deref().unwrap_or(""))
                    .unwrap_or(crate::objective::Objective::Edp);
            let selection = select_optimal(
                &profile.frequencies,
                &profile.energy_j,
                &profile.time_s,
                objective,
                decision.threshold,
            );
            match decision.chosen {
                Some(chosen) => {
                    if selection.index as u32 != chosen.index {
                        diverge(
                            "chosen_index",
                            chosen.index.to_string(),
                            selection.index.to_string(),
                        );
                    }
                    if selection.frequency_mhz.to_bits() != chosen.frequency_mhz.to_bits() {
                        diverge(
                            "chosen_mhz",
                            format!("{}", chosen.frequency_mhz),
                            format!("{}", selection.frequency_mhz),
                        );
                    }
                }
                None => diverge("chosen", "none".to_string(), "some".to_string()),
            }
            (
                selection.index,
                profile.time_s[selection.index],
                profile.energy_j[selection.index],
            )
        } else {
            (max_idx, profile.time_s[max_idx], profile.energy_j[max_idx])
        };
        let _ = rep_idx;
        if rep_time.to_bits() != decision.predicted_time_s.to_bits() {
            diverge(
                "predicted_time_s",
                format!("{}", decision.predicted_time_s),
                format!("{rep_time}"),
            );
        }
        if rep_energy.to_bits() != decision.predicted_energy_j.to_bits() {
            diverge(
                "predicted_energy_j",
                format!("{}", decision.predicted_energy_j),
                format!("{rep_energy}"),
            );
        }
        let rep_baseline = profile.energy_j[max_idx];
        if rep_baseline.to_bits() != decision.baseline_energy_j.to_bits() {
            diverge(
                "baseline_energy_j",
                format!("{}", decision.baseline_energy_j),
                format!("{rep_baseline}"),
            );
        }
        compared += 1;
        if decision.predicted_energy_j.abs() > f64::EPSILON {
            ape_energy +=
                ((rep_energy - decision.predicted_energy_j) / decision.predicted_energy_j).abs();
        }
        if decision.predicted_time_s.abs() > f64::EPSILON {
            ape_time += ((rep_time - decision.predicted_time_s) / decision.predicted_time_s).abs();
        }
        report.recorded_joules_saved += decision.joules_saved();
        if decision.select {
            report.replayed_joules_saved += (rep_baseline - rep_energy).max(0.0);
        }
        if diverged {
            report.divergent += 1;
        }
    }
    if compared > 0 {
        report.energy_mape = 100.0 * ape_energy / compared as f64;
        report.time_mape = 100.0 * ape_time / compared as f64;
    }
    report.versions.sort_unstable();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> DecisionRecord {
        DecisionRecord {
            version: 3,
            req_id: 41,
            select: true,
            hit: true,
            workload: "lammps-β".to_string(),
            fp_active: 0.62,
            dram_active: 0.31,
            exec_time: 12.5,
            objective: Some("edp".to_string()),
            threshold: Some(0.05),
            cache_key: 0xDEAD_BEEF_0123_4567,
            profile_digest: 0x0123_4567_89AB_CDEF,
            chosen: Some(ChosenClock {
                index: 7,
                frequency_mhz: 1155.0,
            }),
            predicted_time_s: 13.25,
            predicted_energy_j: 3120.75,
            baseline_energy_j: 3900.5,
        }
    }

    #[test]
    fn record_round_trips_bitwise() {
        let record = sample_record();
        let mut buf = Vec::new();
        record.encode(&mut buf);
        let decoded = DecisionRecord::decode(&buf).unwrap();
        assert_eq!(decoded, record);
        // A predict record without optionals round-trips too.
        let predict = DecisionRecord {
            select: false,
            objective: None,
            threshold: None,
            chosen: None,
            hit: false,
            ..record
        };
        predict.encode(&mut buf);
        assert_eq!(DecisionRecord::decode(&buf).unwrap(), predict);
    }

    #[test]
    fn decode_rejects_malformed_bodies() {
        let record = sample_record();
        let mut buf = Vec::new();
        record.encode(&mut buf);
        assert!(DecisionRecord::decode(&buf[..buf.len() - 1]).is_none());
        assert!(DecisionRecord::decode(&[]).is_none());
        let mut foreign = buf.clone();
        foreign[0] = 99;
        assert!(DecisionRecord::decode(&foreign).is_none());
    }

    #[test]
    fn export_line_is_valid_json_with_hex_digests() {
        let record = sample_record();
        let line = record.export_line(12, 1_700_000_000_000_000_000);
        let value: obs::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(value.get("seq").and_then(|v| v.as_f64()), Some(12.0));
        assert_eq!(
            value.get("cache_key").and_then(|v| v.as_str()),
            Some("deadbeef01234567")
        );
        assert_eq!(
            value.get("workload").and_then(|v| v.as_str()),
            Some("lammps-β")
        );
        assert_eq!(value.get("crc_ok").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(
            value.get("chosen_index").and_then(|v| v.as_f64()),
            Some(7.0)
        );
    }

    #[test]
    fn joules_saved_clamps_and_ignores_predicts() {
        let mut record = sample_record();
        assert!((record.joules_saved() - 779.75).abs() < 1e-9);
        record.predicted_energy_j = record.baseline_energy_j + 1.0;
        assert_eq!(record.joules_saved(), 0.0);
        record.select = false;
        assert_eq!(record.joules_saved(), 0.0);
    }

    #[test]
    fn ledger_accumulates_exactly() {
        let ledger = EnergyLedger::new();
        let before = ledger.decisions();
        ledger.record(1.5);
        ledger.record(0.25);
        ledger.record(0.0);
        // An overflowed saving must not pin the total at +inf.
        ledger.record(f64::INFINITY);
        ledger.record(f64::NAN);
        assert!((ledger.total_joules() - 1.75).abs() < 1e-12);
        assert_eq!(ledger.decisions() - before, 5);
    }

    #[test]
    fn profile_digest_separates_bitwise_changes() {
        let profile = PredictedProfile::new(
            "w".into(),
            vec![705.0, 1410.0],
            vec![200.0, 300.0],
            vec![1.6, 1.0],
        );
        let base = profile_digest(&profile);
        let mut tweaked = profile.clone();
        tweaked.power_w[1] = f64::from_bits(tweaked.power_w[1].to_bits() ^ 1);
        assert_ne!(base, profile_digest(&tweaked));
        assert_eq!(base, profile_digest(&profile.clone()));
    }
}
