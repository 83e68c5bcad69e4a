//! Immutable, versioned model snapshots behind an atomic pointer swap.
//!
//! The serving daemon (and, down the road, the continual-learning loop)
//! needs to replace the live power/time models while requests are in
//! flight — without a stall, and without a reader ever observing half a
//! swap. The unit of replacement is a [`ModelSnapshot`]: the two trained
//! networks, the device spec they serve, a monotonically increasing
//! version id, and the training metadata, all immutable after
//! construction. Snapshots live in a [`ModelStore`], whose `load()` is
//! wait-free in the steady state: readers clone an `Arc` out of a slot
//! ring and never contend with a publisher (the publisher writes the
//! *next* slot, then flips one atomic index).
//!
//! A reader that loaded version N keeps its `Arc` alive for as long as it
//! wants — predictions made from it after a swap are bitwise identical to
//! before, because nothing in the snapshot can change. That property is
//! what lets `dvfs serve` guarantee old-version responses stay stable
//! across a hot swap (and what a shadow-evaluation/rollback story can
//! build on).

use crate::models::{PowerTimeModels, PredictEngines};
use gpu_model::{DeviceSpec, DvfsGrid};
use nn::Precision;
use obs::quality::QualityConfig;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Provenance carried by every snapshot (surfaced by the serve protocol's
/// `version` command and the promotion trace events).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SnapshotMeta {
    /// Free-form origin label (a file path, "initial", "retrain #3", …).
    pub label: String,
    /// Rows in the dataset the models were fitted on (0 if unknown —
    /// e.g. models restored from JSON).
    pub dataset_rows: usize,
    /// Combined wall-clock training time of both models, seconds
    /// (0 if unknown).
    pub train_seconds: f64,
}

/// One immutable version of the serving models.
///
/// Constructed with version 0 ("unpublished"); [`ModelStore::publish`]
/// assigns the real version id. All fields are read-only by convention —
/// nothing hands out `&mut`.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Monotonic version id, unique per store (0 = never published).
    pub version: u64,
    /// The trained power + time networks.
    pub models: PowerTimeModels,
    /// The batch-fused inference engines the serving hot path runs on:
    /// weights packed once here, at snapshot build time, so hot-swap
    /// stays wait-free and workers never pack per request.
    pub engines: PredictEngines,
    /// The device the snapshot serves predictions for.
    pub spec: DeviceSpec,
    /// Provenance.
    pub meta: SnapshotMeta,
}

/// Activity probe points for the reduced-precision gate: a 5x5 grid of
/// `(fp_active, dram_active)` pairs spanning the feature space, each
/// swept across the device's full DVFS grid.
const GATE_ACTIVITIES: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// The accuracy band reduced precision must stay inside: the paper's
/// models are 88–98% accurate, so a candidate whose rolling MAPE vs the
/// f64 reference exceeds 12% would push serving outside everything the
/// paper reports.
const GATE_WARN_MAPE: f64 = 12.0;

impl ModelSnapshot {
    /// Wraps trained models for publication, serving at full f64
    /// precision (bitwise-identical to the training forward pass).
    pub fn new(models: PowerTimeModels, spec: DeviceSpec, meta: SnapshotMeta) -> Self {
        Self::with_precision(models, spec, meta, Precision::F64)
    }

    /// Wraps trained models for publication at a requested precision,
    /// with the quality monitor as the gate: a reduced-precision
    /// candidate is probed against the f64 reference over the activity
    /// grid x the device's DVFS grid, and **vetoed** — falling back to
    /// f64 with a logged warning — if its rolling MAPE leaves the
    /// paper's 88–98% accuracy band. The probe feeds the global
    /// `quality.precision_power` / `quality.precision_time` monitors, so
    /// the decision is visible in `stats`, scrapes, and exports.
    pub fn with_precision(
        models: PowerTimeModels,
        spec: DeviceSpec,
        meta: SnapshotMeta,
        precision: Precision,
    ) -> Self {
        Self::with_precision_gated(models, spec, meta, precision, GATE_WARN_MAPE)
    }

    /// [`ModelSnapshot::with_precision`] with an explicit veto band —
    /// the seam the veto-path tests drive (a negative band rejects every
    /// reduced-precision candidate, since rolling MAPE is non-negative).
    fn with_precision_gated(
        models: PowerTimeModels,
        spec: DeviceSpec,
        meta: SnapshotMeta,
        precision: Precision,
        band: f64,
    ) -> Self {
        let engines = match gate_engines(&models, &spec, precision, band) {
            Ok(engines) => engines,
            Err(veto) => {
                obs::global().counter("snapshot.precision_veto").inc();
                obs::log!(
                    Warn,
                    "snapshot: {} engines vetoed ({veto}); serving f64 instead",
                    precision.name()
                );
                PredictEngines::compile(&models, Precision::F64)
            }
        };
        Self {
            version: 0,
            models,
            engines,
            spec,
            meta,
        }
    }

    /// The precision the snapshot actually serves (after any veto).
    pub fn precision(&self) -> Precision {
        self.engines.precision()
    }
}

/// Compiles engines at `precision` and, for reduced-precision modes,
/// runs the accuracy gate. Returns the veto reason on failure.
fn gate_engines(
    models: &PowerTimeModels,
    spec: &DeviceSpec,
    precision: Precision,
    band: f64,
) -> Result<PredictEngines, String> {
    let engines = PredictEngines::compile(models, precision);
    if precision == Precision::F64 {
        // f64 engines are the reference; probing them against themselves
        // would only dilute the monitors.
        return Ok(engines);
    }
    let reference = PredictEngines::compile(models, Precision::F64);
    let freqs = DvfsGrid::for_spec(spec).used();
    let samples = GATE_ACTIVITIES.len() * GATE_ACTIVITIES.len() * freqs.len();
    let config = QualityConfig {
        window: samples,
        warn_mape: GATE_WARN_MAPE,
    };
    let power_mon = obs::quality::monitor_with("precision_power", config);
    let time_mon = obs::quality::monitor_with("precision_time", config);
    for &fp in &GATE_ACTIVITIES {
        for &dram in &GATE_ACTIVITIES {
            let ref_p = reference.predict_power_w_batch(spec, fp, dram, &freqs);
            let ref_t = reference.predict_time_ratio_batch(spec, fp, dram, &freqs);
            let got_p = engines.predict_power_w_batch(spec, fp, dram, &freqs);
            let got_t = engines.predict_time_ratio_batch(spec, fp, dram, &freqs);
            power_mon.observe_profile(&got_p, &ref_p);
            time_mon.observe_profile(&got_t, &ref_t);
        }
    }
    let (p, t) = (power_mon.stat(), time_mon.stat());
    if p.mape > band || t.mape > band {
        return Err(format!(
            "rolling MAPE vs f64 reference: power {:.2}%, time {:.2}% (band {band}%)",
            p.mape, t.mape
        ));
    }
    Ok(engines)
}

/// How many slots the store cycles through. A reader is only ever
/// delayed if `SLOTS - 1` publishes complete during its (two-instruction)
/// critical section — publishing is rare (retrains, reloads), so readers
/// are wait-free in any realistic schedule.
const SLOTS: usize = 8;

/// A lock-free-for-readers slot of [`ModelSnapshot`] versions.
///
/// Layout: `SLOTS` mutex-protected `Arc` cells plus one atomic
/// generation counter. `publish` writes the snapshot into slot
/// `(gen + 1) % SLOTS` *before* bumping the generation, so a reader that
/// observes generation G always finds a fully initialized snapshot in
/// slot `G % SLOTS`. Readers lock only their target cell, which a
/// publisher never touches until the generation has advanced `SLOTS - 1`
/// more times — reads and writes proceed concurrently without blocking
/// each other.
pub struct ModelStore {
    slots: [Mutex<Option<Arc<ModelSnapshot>>>; SLOTS],
    /// Version id allocator — may run ahead of `generation` while a
    /// publisher is mid-write.
    next_version: AtomicU64,
    /// The *published* generation: only ever points at a populated slot.
    generation: AtomicU64,
}

impl ModelStore {
    /// Creates a store and publishes `initial` as version 1.
    pub fn new(initial: ModelSnapshot) -> Self {
        let store = Self {
            slots: std::array::from_fn(|_| Mutex::new(None)),
            next_version: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        };
        store.publish(initial);
        store
    }

    /// Publishes `snapshot` as the new current version, returning the
    /// version id assigned to it. In-flight readers keep whatever version
    /// they already loaded; new `load()` calls see this one.
    pub fn publish(&self, mut snapshot: ModelSnapshot) -> u64 {
        // Allocate the id first; `generation` is only advanced *after*
        // the slot holds the snapshot, so readers can never chase a
        // version whose slot is still empty. Competing publishers get
        // distinct ids and `fetch_max` lets them complete in any order.
        let gen = self.next_version.fetch_add(1, Ordering::AcqRel) + 1;
        snapshot.version = gen;
        let precision = snapshot.precision();
        let arc = Arc::new(snapshot);
        *self.slots[(gen % SLOTS as u64) as usize].lock() = Some(arc);
        self.generation.fetch_max(gen, Ordering::AcqRel);
        obs::global().counter("snapshot.published").inc();
        obs::global().gauge("snapshot.version").set(gen as f64);
        obs::global()
            .gauge("snapshot.precision")
            .set(precision.code() as f64);
        gen
    }

    /// The current snapshot. Wait-free for readers in the steady state:
    /// one atomic load plus an uncontended mutex around an `Arc` clone.
    pub fn load(&self) -> Arc<ModelSnapshot> {
        loop {
            let gen = self.generation.load(Ordering::Acquire);
            let slot = self.slots[(gen % SLOTS as u64) as usize].lock();
            if let Some(arc) = slot.as_ref() {
                // The slot can only hold a *newer* snapshot than the
                // generation we read (a publisher lapped us SLOTS times
                // mid-read) — never an older or torn one. Either way it
                // is a fully published snapshot; return it.
                return Arc::clone(arc);
            }
            // Unreachable after `new` (generation >= 1 implies its slot
            // is populated), but loop rather than panic if a caller
            // races construction in the future.
            drop(slot);
            std::hint::spin_loop();
        }
    }

    /// The current version id without touching any slot — cheap enough
    /// for a per-request "has the model changed?" check.
    pub fn current_version(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Whether a publish has landed since `version` was current: the
    /// serve workers call this once per batch to decide when to rebind
    /// their predictor (and drop their per-snapshot serialized-reply
    /// cache) — one atomic load, no slot lock.
    pub fn changed_since(&self, version: u64) -> bool {
        self.current_version() != version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use gpu_model::{NoiseModel, SignatureBuilder};

    fn tiny_models(spec: &DeviceSpec, seed_freq_stride: usize) -> PowerTimeModels {
        let nm = NoiseModel::default_bench();
        let sigs = [
            SignatureBuilder::new("c").flops(2e13).bytes(2e11).build(),
            SignatureBuilder::new("m").flops(2e11).bytes(2e13).build(),
            SignatureBuilder::new("x").flops(8e12).bytes(3e12).build(),
        ];
        let grid = gpu_model::DvfsGrid::for_spec(spec);
        let mut samples = Vec::new();
        for sig in &sigs {
            for &f in grid.used().iter().step_by(seed_freq_stride) {
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

    fn snapshot(label: &str, stride: usize) -> ModelSnapshot {
        let spec = DeviceSpec::ga100();
        let models = tiny_models(&spec, stride);
        ModelSnapshot::new(
            models,
            spec,
            SnapshotMeta {
                label: label.into(),
                dataset_rows: 42,
                train_seconds: 0.0,
            },
        )
    }

    #[test]
    fn reduced_precision_passes_the_gate_on_real_models() {
        let spec = DeviceSpec::ga100();
        let models = tiny_models(&spec, 8);
        for precision in [Precision::F32, Precision::Bf16] {
            let snap = ModelSnapshot::with_precision(
                models.clone(),
                spec.clone(),
                SnapshotMeta::default(),
                precision,
            );
            // Well-trained paper-topology networks sit far inside the
            // band in both reduced modes, so the gate must promote.
            assert_eq!(snap.precision(), precision);
        }
        // The gate fed the precision monitors; their MAPE must be in band.
        for stat in obs::quality::snapshot() {
            if stat.model.starts_with("precision_") {
                assert!(stat.mape <= 12.0, "{}: {:.2}%", stat.model, stat.mape);
            }
        }
    }

    #[test]
    fn gate_vetoes_a_candidate_outside_the_band() {
        // Drive the gate through the band seam: a band below zero rejects
        // every candidate (rolling MAPE is non-negative), exercising the
        // full veto path — probe, reject, log, fall back to f64.
        let spec = DeviceSpec::ga100();
        let models = tiny_models(&spec, 8);
        let snap = ModelSnapshot::with_precision_gated(
            models,
            spec,
            SnapshotMeta::default(),
            Precision::Bf16,
            -1.0,
        );
        assert_eq!(snap.precision(), Precision::F64);
    }

    #[test]
    fn f64_snapshot_skips_the_gate_and_serves_f64() {
        let spec = DeviceSpec::ga100();
        let snap = snapshot("v1", 8);
        assert_eq!(snap.precision(), Precision::F64);
        let _ = spec;
    }

    #[test]
    fn publish_assigns_monotonic_versions() {
        let store = ModelStore::new(snapshot("v1", 8));
        assert_eq!(store.current_version(), 1);
        assert_eq!(store.load().version, 1);
        assert_eq!(store.load().meta.label, "v1");
        let v2 = store.publish(snapshot("v2", 6));
        assert_eq!(v2, 2);
        assert_eq!(store.current_version(), 2);
        assert_eq!(store.load().meta.label, "v2");
    }

    #[test]
    fn readers_keep_their_version_across_swaps() {
        let store = ModelStore::new(snapshot("v1", 8));
        let spec = DeviceSpec::ga100();
        let held = store.load();
        let before = held
            .engines
            .predict_power_w_batch(&spec, 0.6, 0.3, &[1005.0])[0];
        // Swap more times than there are slots: the held Arc must stay
        // valid and bitwise stable throughout.
        for i in 0..(SLOTS + 3) {
            store.publish(snapshot(&format!("v{}", i + 2), 6));
        }
        assert_eq!(held.version, 1);
        let after = held
            .engines
            .predict_power_w_batch(&spec, 0.6, 0.3, &[1005.0])[0];
        assert_eq!(before.to_bits(), after.to_bits());
        assert_eq!(store.load().version, (SLOTS + 4) as u64);
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_snapshot() {
        let store = std::sync::Arc::new(ModelStore::new(snapshot("v1", 8)));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let store = std::sync::Arc::clone(&store);
                    let stop = std::sync::Arc::clone(&stop);
                    scope.spawn(move || {
                        let mut last = 0u64;
                        let mut loads = 0u64;
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            let snap = store.load();
                            // Versions move forward only, and the version
                            // field always matches a published snapshot.
                            assert!(snap.version >= last, "version went backwards");
                            assert!(snap.version >= 1);
                            last = snap.version;
                            loads += 1;
                        }
                        loads
                    })
                })
                .collect();
            // Publisher: a handful of swaps while readers spin. Reuse two
            // prebuilt model sets — the point is the swap machinery, not
            // training time.
            let a = snapshot("a", 6);
            for i in 0..20 {
                let next = ModelSnapshot::new(a.models.clone(), a.spec.clone(), a.meta.clone());
                store.publish(next);
                if i % 5 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            for r in readers {
                assert!(r.join().expect("reader panicked") > 0);
            }
        });
        assert_eq!(store.current_version(), 21);
    }
}
