//! Seeded request streams for the four workloads.
//!
//! The seed decides every input; the daemon sees only the generated frames.
//! Traffic is three `select` (Algorithm 1, EDP and ED²P alternating, 5%
//! degradation threshold) to one `predict`. Each request's workload name
//! carries its sequence number, so the echoed name checks reply order; the
//! numeric fields are what the caches key on.

use crate::stats::Rng;
use gpu_dvfs::core::objective::Objective;
use gpu_dvfs::core::serve::ZipfSampler;
use gpu_dvfs::telemetry::{GpuBackend, SimulatorBackend};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Algorithm 1's performance-degradation threshold on every `select`.
pub const THRESHOLD: f64 = 0.05;
/// The daemon's activity quantum (`ProfileCache::DEFAULT_QUANTUM`): its
/// profile cache keys on activities rounded to this step.
const QUANTUM: f64 = 1e-3;
/// Known applications in `hot-repeat` and `fresh-runs`.
const KNOWN_APPS: usize = 64;
/// Warm-up rounds over every known application: enough that each app's
/// entry reaches both workers' fragment caches and the shared LRU.
const WARM_ROUNDS: usize = 8;
/// Warm-up size on `unseen-apps`: enough distinct buckets that every shard
/// of the daemon's 4096-entry LRU is full and evicting before timing
/// starts. With S shards each holds 4096/S entries and receives about
/// 4500/S +- sqrt(4500/S) buckets, a margin of at least two standard
/// deviations up to 8 shards; the run fails its property check when a
/// measured miss does not evict.
const UNSEEN_WARMUP: usize = 4500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotRepeat,
    FreshRuns,
    UnseenApps,
    PaperRetrain,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotRepeat,
        Workload::FreshRuns,
        Workload::UnseenApps,
        Workload::PaperRetrain,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRepeat => "hot-repeat",
            Workload::FreshRuns => "fresh-runs",
            Workload::UnseenApps => "unseen-apps",
            Workload::PaperRetrain => "paper-retrain",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    pub id: u64,
    /// `None` for `predict`.
    pub objective: Option<Objective>,
    pub name: String,
    pub fp: f64,
    pub dram: f64,
    pub exec: f64,
}

impl Req {
    /// The canonical request frame payload (the shape `Request` serializes
    /// to, which the daemon's fast parser accepts).
    pub fn payload(&self) -> Vec<u8> {
        let mut s = String::with_capacity(160);
        let cmd = if self.objective.is_some() {
            "select"
        } else {
            "predict"
        };
        write!(
            s,
            "{{\"cmd\":\"{cmd}\",\"workload\":\"{}\",\"fp_active\":{},\"dram_active\":{},\"exec_time\":{},",
            self.name, self.fp, self.dram, self.exec
        )
        .expect("write to String");
        match self.objective {
            Some(o) => write!(
                s,
                "\"objective\":\"{}\",\"threshold\":{THRESHOLD},\"path\":null}}",
                objective_wire_name(o)
            )
            .expect("write to String"),
            None => s.push_str("\"objective\":null,\"threshold\":null,\"path\":null}"),
        }
        s.into_bytes()
    }

    /// Exact identity of the numeric inputs (what the daemon's fragment
    /// cache keys on, beside the snapshot).
    fn exact_key(&self) -> (u64, u64, u64) {
        (self.fp.to_bits(), self.dram.to_bits(), self.exec.to_bits())
    }
}

fn objective_wire_name(o: Objective) -> &'static str {
    match o {
        Objective::Edp => "edp",
        Objective::Ed2p => "ed2p",
        other => unreachable!("the streams select by EDP or ED²P only, not {other:?}"),
    }
}

/// The profile cache's bucket of an activity pair.
pub fn bucket(fp: f64, dram: f64) -> (i64, i64) {
    (
        (fp / QUANTUM).round() as i64,
        (dram / QUANTUM).round() as i64,
    )
}

/// A profiled application: default-clock activities and run time.
#[derive(Debug, Clone)]
struct App {
    name: String,
    fp: f64,
    dram: f64,
    exec: f64,
}

/// 64 synthetic applications with distinct activity buckets.
fn known_apps(seed: u64) -> Vec<App> {
    let mut rng = Rng::derive(seed, 1);
    let mut seen = HashSet::new();
    let mut apps = Vec::with_capacity(KNOWN_APPS);
    while apps.len() < KNOWN_APPS {
        let fp = rng.range(0.02, 0.98);
        let dram = rng.range(0.02, 0.98);
        let exec = (rng.range(0.5f64.ln(), 120f64.ln())).exp();
        if seen.insert(bucket(fp, dram)) {
            apps.push(App {
                name: format!("app{:02}", apps.len()),
                fp,
                dram,
                exec,
            });
        }
    }
    apps
}

/// The paper's six evaluation applications as one default-clock profiling
/// run on the simulated GA100 sees them.
fn evaluation_apps() -> Vec<App> {
    let backend = SimulatorBackend::ga100();
    let max = backend.spec().max_core_mhz;
    gpu_dvfs::kernels::apps::evaluation_apps()
        .iter()
        .map(|w| {
            let s = backend
                .profile_at_clock(w, max, 0)
                .expect("the simulator profiles without touching clocks");
            App {
                name: w.name.clone(),
                fp: s.fp_active(),
                dram: s.dram_active,
                exec: s.exec_time,
            }
        })
        .collect()
}

/// The plastic number's R2 increments: the 2-D low-discrepancy sequence
/// that spreads unseen applications evenly over the activity square.
const R2: (f64, f64) = (0.754_877_666_246_692_7, 0.569_840_290_998_053_2);

/// Generates one workload's requests in order.
pub struct Source {
    workload: Workload,
    apps: Vec<App>,
    zipf: ZipfSampler,
    /// Popularity rank -> application index.
    rank_to_app: Vec<usize>,
    rng: Rng,
    next_id: u64,
    r2_origin: (f64, f64),
    r2_index: u64,
    unseen_used: HashSet<(i64, i64)>,
}

impl Source {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let apps = match workload {
            Workload::HotRepeat | Workload::FreshRuns => known_apps(seed),
            Workload::PaperRetrain => evaluation_apps(),
            Workload::UnseenApps => Vec::new(),
        };
        let mut rng = Rng::derive(seed, 2);
        // Seeded popularity order (Fisher-Yates), zipf s = 1 over ranks.
        let mut rank_to_app: Vec<usize> = (0..apps.len()).collect();
        for i in (1..rank_to_app.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            rank_to_app.swap(i, j);
        }
        let r2_origin = (rng.unit(), rng.unit());
        Self {
            workload,
            zipf: ZipfSampler::new(apps.len().max(1), 1.0),
            apps,
            rank_to_app,
            rng,
            next_id: 0,
            r2_origin,
            r2_index: 0,
            unseen_used: HashSet::new(),
        }
    }

    fn objective_for(id: u64) -> Option<Objective> {
        if id % 4 == 3 {
            return None;
        }
        let select_no = id - id / 4;
        Some(if select_no.is_multiple_of(2) {
            Objective::Edp
        } else {
            Objective::Ed2p
        })
    }

    /// The next request of the stream.
    pub fn next_req(&mut self) -> Req {
        let app = if self.apps.is_empty() {
            0
        } else {
            self.rank_to_app[self.zipf.sample(self.rng.unit())]
        };
        self.req_for(app)
    }

    /// A request for known application `app` (ignored on `unseen-apps`).
    fn req_for(&mut self, app: usize) -> Req {
        let id = self.next_id;
        self.next_id += 1;
        let objective = Self::objective_for(id);
        let (label, fp, dram, exec) = match self.workload {
            Workload::HotRepeat => {
                let app = &self.apps[app];
                (app.name.clone(), app.fp, app.dram, app.exec)
            }
            Workload::FreshRuns | Workload::PaperRetrain => {
                let app = self.apps[app].clone();
                // A fresh profiling run: same activities (they are input-size
                // invariant), a new measured run time.
                let exec = app.exec * self.rng.range(0.9, 1.1);
                (app.name, app.fp, app.dram, exec)
            }
            Workload::UnseenApps => {
                let (fp, dram) = self.next_unseen();
                let exec = (self.rng.range(0.5f64.ln(), 120f64.ln())).exp();
                (format!("new{id}"), fp, dram, exec)
            }
        };
        Req {
            id,
            objective,
            name: format!("{label}#{id}"),
            fp,
            dram,
            exec,
        }
    }

    /// The next point of the R2 sequence whose bucket has not been used.
    fn next_unseen(&mut self) -> (f64, f64) {
        let frac = |x: f64| x - x.floor();
        loop {
            self.r2_index += 1;
            let n = self.r2_index as f64;
            let fp = 0.01 + 0.98 * frac(self.r2_origin.0 + n * R2.0);
            let dram = 0.01 + 0.98 * frac(self.r2_origin.1 + n * R2.1);
            if self.unseen_used.insert(bucket(fp, dram)) {
                return (fp, dram);
            }
        }
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<Req> {
        (0..n).map(|_| self.next_req()).collect()
    }

    /// The warm-up requests sent before any timed phase: every known
    /// application `WARM_ROUNDS` times, or `UNSEEN_WARMUP` unseen ones.
    pub fn warmup(&mut self) -> Vec<Req> {
        if self.apps.is_empty() {
            return self.take(UNSEEN_WARMUP);
        }
        let n = self.apps.len();
        (0..WARM_ROUNDS * n).map(|i| self.req_for(i % n)).collect()
    }
}

/// A fresh profiling run of `req`'s application: the same activities, a
/// new run time, request id `id`.
pub fn rerun(req: &Req, id: u64) -> Req {
    let label = req.name.split('#').next().unwrap_or("rerun");
    Req {
        id,
        objective: Source::objective_for(id),
        name: format!("{label}#{id}"),
        fp: req.fp,
        dram: req.dram,
        exec: req.exec * 1.01,
    }
}

/// How a measured stream relates to everything sent before it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shares {
    /// Same activities and run time, bit for bit, as an earlier request.
    pub exact_repeat: f64,
    /// A known activity bucket with a new run time.
    pub bucket_repeat: f64,
    /// An activity bucket never sent before.
    pub unseen: f64,
    pub requests: usize,
}

/// Classifies `measured` against `history` (sent earlier) and itself.
pub fn shares(history: &[Req], measured: &[Req]) -> Shares {
    let mut exact = HashSet::new();
    let mut buckets = HashSet::new();
    for r in history {
        exact.insert(r.exact_key());
        buckets.insert(bucket(r.fp, r.dram));
    }
    let (mut e, mut b, mut u) = (0usize, 0usize, 0usize);
    for r in measured {
        if !exact.insert(r.exact_key()) {
            e += 1;
        } else if !buckets.insert(bucket(r.fp, r.dram)) {
            b += 1;
        } else {
            u += 1;
        }
    }
    let n = measured.len().max(1) as f64;
    Shares {
        exact_repeat: e as f64 / n,
        bucket_repeat: b as f64 / n,
        unseen: u as f64 / n,
        requests: measured.len(),
    }
}

/// Open-loop send offsets (ns from phase start): exponential gaps at
/// `rate_rps` for `seconds`.
pub fn poisson_schedule(seed: u64, tag: u64, rate_rps: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::derive(seed, 0x5C4E_0000 ^ tag);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate_rps * seconds * 1.1) as usize + 1);
    loop {
        t += rng.exp_gap(rate_rps);
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_dvfs::core::serve::protocol::fast;

    #[test]
    fn payloads_take_the_daemon_fast_path() {
        let mut src = Source::new(Workload::HotRepeat, 3);
        for r in src.take(8) {
            let parsed = fast::parse_request(&r.payload()).expect("fast path accepts");
            assert_eq!(parsed.workload.as_deref(), Some(r.name.as_str()));
            assert_eq!(parsed.fp_active.map(f64::to_bits), Some(r.fp.to_bits()));
            assert_eq!(parsed.exec_time.map(f64::to_bits), Some(r.exec.to_bits()));
            assert_eq!(parsed.cmd == "select", r.objective.is_some());
        }
    }

    #[test]
    fn mix_is_three_selects_alternating_to_one_predict() {
        let objs: Vec<_> = (0..8).map(Source::objective_for).collect();
        use Objective::*;
        assert_eq!(
            objs,
            vec![
                Some(Edp),
                Some(Ed2p),
                Some(Edp),
                None,
                Some(Ed2p),
                Some(Edp),
                Some(Ed2p),
                None
            ]
        );
    }

    #[test]
    fn each_workload_keeps_its_property() {
        for (w, exact, unseen) in [
            (Workload::HotRepeat, 1.0, 0.0),
            (Workload::FreshRuns, 0.0, 0.0),
            (Workload::UnseenApps, 0.0, 1.0),
        ] {
            let mut src = Source::new(w, 11);
            let warm = src.warmup();
            let measured = src.take(5000);
            let s = shares(&warm, &measured);
            assert_eq!(s.exact_repeat, exact, "{w:?}");
            assert_eq!(s.unseen, unseen, "{w:?}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let a = Source::new(Workload::UnseenApps, 5).take(50);
        let b = Source::new(Workload::UnseenApps, 5).take(50);
        let c = Source::new(Workload::UnseenApps, 6).take(50);
        assert!(a.iter().zip(&b).all(|(x, y)| x.payload() == y.payload()));
        assert!(a.iter().zip(&c).any(|(x, y)| x.payload() != y.payload()));
    }
}
