//! `perfbench` — the repository's benchmark (see README.md).
//!
//! ```text
//! perfbench --dvfs PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against the release
//! `dvfs serve` (spawned with its default flags) over TCP; `--trace 1` is
//! the separate traced run that gives the per-layer metrics. The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. Any failed output or workload-property check makes
//! `correct` false and the exit code 1.

mod client;
mod config;
mod daemon;
mod offline;
mod oracle;
mod replay;
mod spans;
mod stats;
mod stream;

use client::{Outcome, Phase, Session};
use config::{Plan, FIXED_PHASE_SHARE, LADDER_COARSE, LADDER_TOP, PROBE_SHARE};
use daemon::{CounterDelta, Daemon};
use gpu_dvfs::core::models::PowerTimeModels;
use gpu_dvfs::core::snapshot::{ModelSnapshot, SnapshotMeta};
use gpu_dvfs::gpu::DeviceSpec;
use gpu_dvfs::obs;
use gpu_dvfs::telemetry::{GpuBackend, SimulatorBackend};
use stats::{median, quantile, Rng};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use stream::{Req, Source, Workload};

/// Where runs leave models and span files, relative to the repository root
/// the benchmark runs from.
const OUT_DIR: &str = ".bench_out";
/// Replayed requests per traced run, at most (bounds its length).
const REPLAY_MAX: usize = 20_000;
/// Activity pairs and sweeps behind the engine cost breakdown.
const ENGINE_POINTS: usize = 64;
const ENGINE_SWEEPS: usize = 128;
/// Parked-worker hand-offs timed for `dispatch.wake_ns`.
const WAKE_SAMPLES: usize = 200;
/// Fresh runs of the stream's apps that close each replay, and the first
/// request id they take.
const CODA: usize = 64;
const CODA_ID: u64 = 1 << 40;
/// Passes over the six applications on both devices timed for
/// `lab.predict_online_us`.
const PREDICT_ONLINE_ROUNDS: usize = 5;

struct Args {
    dvfs: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut dvfs = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--dvfs" => dvfs = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        dvfs: dvfs.ok_or("--dvfs PATH is required")?,
        workload: workload.ok_or("--workload NAME is required")?,
        seed: seed.ok_or("--seed N is required")?,
        seconds: seconds.ok_or("--seconds S is required")?,
        trace: trace.ok_or("--trace 0|1 is required")?,
    })
}

/// One reported number with its unit and sample count.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    /// Printed beside the metrics but left out of the result line: the
    /// end-to-end numbers too unsteady on a shared VM to carry a bound
    /// (see README.md).
    unbounded: Vec<Metric>,
    /// Human-readable detail printed above the result line.
    notes: String,
    attempted: usize,
    failed: usize,
    /// Failed output or workload-property checks.
    problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    fn unbounded(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.unbounded.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    fn note(&mut self, line: impl AsRef<str>) {
        self.notes.push_str(line.as_ref());
        self.notes.push('\n');
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn print(&self) {
        print!("{}", self.notes);
        for m in &self.metrics {
            println!(
                "{:<28} {:>16.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        if !self.unbounded.is_empty() {
            println!("reported without a bound:");
        }
        for m in &self.unbounded {
            println!(
                "{:<28} {:>16.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let mut json = String::new();
        write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        )
        .expect("write to String");
        for (i, m) in self.metrics.iter().enumerate() {
            // JSON has no infinities; a non-finite value only arises from
            // failed requests, which already make the run incorrect.
            let v = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("write to String");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    };
    match result {
        Ok(report) => {
            report.print();
            if report.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn ga100() -> DeviceSpec {
    SimulatorBackend::ga100().spec().clone()
}

fn models_path(args: &Args) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "models-{}-{}-{}.json",
        args.workload.name(),
        args.seed,
        std::process::id()
    ))
}

/// CPU (user + system) this process has used, or its reaped children
/// have, so far, s.
fn cpu_s(children: bool) -> io::Result<f64> {
    Ok(daemon::stat_cpu_us(&std::fs::read_to_string("/proc/self/stat")?, children)? / 1e6)
}

/// The wall time and CPU time an offline phase took, s.
struct Cost {
    wall_s: f64,
    cpu_s: f64,
}

/// `dvfs train` with its defaults (the paper-scale GA100 offline phase),
/// writing `out`.
fn dvfs_train(dvfs: &Path, out: &Path) -> io::Result<Cost> {
    let t0 = Instant::now();
    let cpu0 = cpu_s(true)?;
    let status = Command::new(dvfs)
        .arg("train")
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("dvfs train failed ({status})")));
    }
    Ok(Cost {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_s(true)? - cpu0,
    })
}

fn own_peak_rss_mb() -> io::Result<f64> {
    daemon::vm_hwm_mb(&std::fs::read_to_string("/proc/self/status")?)
}

/// The models a run serves, written where the daemon can load them.
struct Models {
    path: PathBuf,
    json: String,
    models: PowerTimeModels,
}

impl Models {
    fn write(path: PathBuf, models: PowerTimeModels) -> io::Result<Self> {
        let json = models.to_json();
        std::fs::create_dir_all(OUT_DIR)?;
        std::fs::write(&path, &json)?;
        Ok(Self { path, json, models })
    }

    fn read(path: PathBuf) -> io::Result<Self> {
        let json = std::fs::read_to_string(&path)?;
        let models = PowerTimeModels::from_json(&json).map_err(io::Error::other)?;
        Ok(Self { path, json, models })
    }
}

impl Drop for Models {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One sent phase: its requests and what came back.
struct Sent {
    reqs: Vec<Req>,
    out: Outcome,
}

impl Sent {
    fn latency(&self, q: f64) -> f64 {
        quantile(&mut self.out.latency_us.clone(), q)
    }

    fn late(&self, q: f64) -> f64 {
        quantile(&mut self.out.late_us.clone(), q)
    }

    /// Median latency of the last quarter of the phase: high when a
    /// backlog grew through it.
    fn final_quarter_p50(&self) -> f64 {
        let n = self.out.latency_us.len();
        quantile(&mut self.out.latency_us[n - n / 4..].to_vec(), 0.5)
    }

    fn summary(&self, label: &str) -> String {
        format!(
            "{label}: sent {} ok {} failed {} | p50 {:.1} p90 {:.1} p99 {:.1} last-quarter p50 {:.1} µs | \
             sender late p50 {:.1} p99 {:.1} µs",
            self.out.sent,
            self.out.ok,
            self.out.failed,
            self.latency(0.5),
            self.latency(0.9),
            self.latency(0.99),
            self.final_quarter_p50(),
            self.late(0.5),
            self.late(0.99),
        )
    }
}

/// Up to `k` distinct request indices in `0..n`, seeded, ascending.
fn sample_indices(seed: u64, tag: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = Rng::derive(seed, 0x0AC1_E000 ^ tag);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k.min(n) {
        picked.insert((rng.next_u64() % n as u64) as usize);
    }
    picked.into_iter().collect()
}

/// Sends the next requests of `source` open-loop at `rate_rps` for
/// `seconds` on a seeded Poisson schedule.
fn open_phase(
    session: &mut Session,
    source: &mut Source,
    seed: u64,
    tag: u64,
    rate_rps: f64,
    seconds: f64,
) -> io::Result<Sent> {
    let due = stream::poisson_schedule(seed, tag, rate_rps, seconds);
    let reqs = source.take(due.len());
    let payloads: Vec<Vec<u8>> = reqs.iter().map(Req::payload).collect();
    let names = reqs.iter().map(|r| r.name.clone()).collect();
    let keep = sample_indices(seed, tag, reqs.len(), config::ORACLE_SAMPLES);
    let out = session.open_loop(&Phase::new(&payloads, names, due, keep));
    if out.answered != out.sent || out.sent != reqs.len() {
        // A request that was not sent, or a reply that timed out or was
        // never read, leaves the connection out of step: later replies
        // would answer earlier requests. Stop the run here.
        return Err(io::Error::other(format!(
            "phase at {rate_rps:.0} req/s lost requests: sent {} of {}, {} answered ({} ok): {:?}",
            out.sent,
            reqs.len(),
            out.answered,
            out.ok,
            out.reasons
        )));
    }
    Ok(Sent { reqs, out })
}

/// A fixed-rate phase with the daemon's counters scraped around it and
/// its CPU read just before and after.
fn measured_phase(
    daemon: &Daemon,
    session: &mut Session,
    source: &mut Source,
    seed: u64,
    tag: u64,
    rate_rps: f64,
    seconds: f64,
) -> io::Result<(Sent, CounterDelta, f64)> {
    let before = daemon::scrape(session)?;
    let cpu0 = daemon.cpu_us()?;
    let sent = open_phase(session, source, seed, tag, rate_rps, seconds)?;
    let cpu1 = daemon.cpu_us()?;
    let after = daemon::scrape(session)?;
    Ok((sent, CounterDelta::between(&before, &after), cpu1 - cpu0))
}

/// Whether a ladder rung held: every reply correct, p99 within the limit,
/// no backlog growing through the phase, the sender on schedule.
fn rung_holds(sent: &Sent, plan: &Plan) -> bool {
    sent.out.failed == 0
        && sent.latency(0.99) <= plan.p99_limit_us
        && sent.final_quarter_p50() <= plan.backlog_limit_us
        && sent.late(0.5) <= config::SENDER_LATE_LIMIT_US
}

/// The highest ladder rung that holds: coarse steps from the start rung
/// (down if it fails), then one rung at a time up to the first failure.
fn max_rate(
    session: &mut Session,
    source: &mut Source,
    seed: u64,
    plan: &Plan,
    probe_s: f64,
    report: &mut Report,
    probes: &mut Vec<Sent>,
) -> io::Result<f64> {
    // A rung fails only when two probes of it fail, so one host hiccup
    // does not end the climb.
    let mut probe = |k: i32| -> io::Result<bool> {
        let rate = plan.rung_rps(k);
        for _ in 0..2 {
            let tag = 1000 + k as u64 + 100 * probes.len() as u64;
            let sent = open_phase(session, source, seed, tag, rate, probe_s)?;
            let holds = rung_holds(&sent, plan);
            report.note(sent.summary(&format!(
                "ladder rung {k} ({rate:.0} req/s) {}",
                if holds { "holds" } else { "fails" }
            )));
            probes.push(sent);
            if holds {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let start = plan.start_rung();
    let mut best = None;
    let mut failed_at = LADDER_TOP + 1;
    if probe(start)? {
        best = Some(start);
        let mut k = start;
        while k + LADDER_COARSE <= LADDER_TOP {
            if probe(k + LADDER_COARSE)? {
                k += LADDER_COARSE;
                best = Some(k);
            } else {
                failed_at = k + LADDER_COARSE;
                break;
            }
        }
    } else {
        failed_at = start;
        let mut k = start - LADDER_COARSE;
        while k >= 0 {
            if probe(k)? {
                best = Some(k);
                break;
            }
            failed_at = k;
            k -= LADDER_COARSE;
        }
    }
    if let Some(b) = best {
        for k in b + 1..failed_at {
            if !probe(k)? {
                break;
            }
            best = Some(k);
        }
    }
    Ok(best.map_or(0.0, |k| plan.rung_rps(k)))
}

/// Compares each phase's sampled replies with the in-process oracle.
fn check_outputs(models: &Models, phases: &[&Sent], report: &mut Report) {
    let oracle = oracle::Oracle::new(models.models.clone(), ga100());
    let mut checked = 0;
    for sent in phases {
        for (i, reply) in &sent.out.kept {
            checked += 1;
            if let Err(e) = oracle.check(&sent.reqs[*i], reply) {
                report.failed += 1;
                report
                    .problems
                    .push(format!("oracle mismatch on {}: {e}", sent.reqs[*i].name));
            }
        }
    }
    report.note(format!(
        "oracle: {checked} sampled replies compared bit for bit"
    ));
}

/// Fails the run when the stream or the daemon's counters show that the
/// workload lost the property it exists for.
fn check_properties(workload: Workload, s: &stream::Shares, d: &CounterDelta, report: &mut Report) {
    let miss_share = d.misses as f64 / d.requests.max(1) as f64;
    report.note(format!(
        "stream: {} measured requests, exact repeats {:.4}, bucket repeats {:.4}, unseen {:.4}; \
         daemon: {} requests, {} errors, LRU misses {miss_share:.4} of requests, {} evictions",
        s.requests, s.exact_repeat, s.bucket_repeat, s.unseen, d.requests, d.errors, d.evictions
    ));
    report.require(d.errors == 0, || {
        format!("daemon counted {} errors", d.errors)
    });
    match workload {
        Workload::HotRepeat => {
            report.require(s.exact_repeat >= 0.999, || {
                format!("hot-repeat: only {:.4} exact repeats", s.exact_repeat)
            });
            report.require(d.misses == 0, || {
                format!("hot-repeat: the engine swept {} times", d.misses)
            });
        }
        Workload::FreshRuns | Workload::PaperRetrain => {
            report.require(s.exact_repeat <= 0.001 && s.bucket_repeat >= 0.999, || {
                format!(
                    "{}: stream is not fresh runs of known apps ({:.4} exact, {:.4} bucket repeats)",
                    workload.name(),
                    s.exact_repeat,
                    s.bucket_repeat
                )
            });
            report.require(miss_share <= 0.01, || {
                format!(
                    "{}: stopped hitting the LRU ({miss_share:.4} misses)",
                    workload.name()
                )
            });
        }
        Workload::UnseenApps => {
            report.require(s.unseen >= 0.999, || {
                format!("unseen-apps: only {:.4} unseen buckets", s.unseen)
            });
            report.require(miss_share >= 0.99, || {
                format!("unseen-apps: the engine swept for only {miss_share:.4} of requests")
            });
            report.require(d.evictions as f64 >= 0.99 * d.misses as f64, || {
                format!(
                    "unseen-apps: the LRU was not full ({} evictions for {} misses)",
                    d.evictions, d.misses
                )
            });
        }
    }
}

/// The offline phase of a run: `paper-retrain` runs the paper-scale phase
/// in process; the serve workloads train their models with `dvfs train`.
/// Returns the models, the phase's cost, and (in-process only) its peak
/// RSS.
fn offline_phase(args: &Args, report: &mut Report) -> io::Result<(Models, Cost, Option<f64>)> {
    if args.workload == Workload::PaperRetrain {
        let cpu0 = cpu_s(false)?;
        let off = offline::paper_lab();
        let cost = Cost {
            wall_s: off.wall_s,
            cpu_s: cpu_s(false)? - cpu0,
        };
        let rss = own_peak_rss_mb()?;
        table3_check(&off, report);
        let models = Models::write(models_path(args), off.lab.pipeline.models)?;
        Ok((models, cost, Some(rss)))
    } else {
        std::fs::create_dir_all(OUT_DIR)?;
        let path = models_path(args);
        let cost = dvfs_train(&args.dvfs, &path)?;
        Ok((Models::read(path)?, cost, None))
    }
}

fn table3_check(off: &offline::Offline, report: &mut Report) {
    report.note(format!(
        "Table 3 minimum accuracy: GA100 {:.1}%, GV100 {:.1}%",
        off.min_accuracy.0, off.min_accuracy.1
    ));
    if let Err(e) = off.check() {
        report.problems.push(e);
    }
}

/// Starts a daemon on `models` and warms it with `warmup` over a fresh
/// connection. Returns the daemon, the connection and the set-up time.
fn start_warm(
    args: &Args,
    models: &Models,
    warmup: &[Vec<u8>],
) -> io::Result<(Daemon, Session, f64)> {
    let t0 = Instant::now();
    let daemon = Daemon::start(&args.dvfs, &models.path)?;
    let mut session = Session::connect(&daemon.addr)?;
    session.closed_loop(warmup, config::WARMUP_WINDOW)?;
    Ok((daemon, session, t0.elapsed().as_secs_f64()))
}

/// One daemon's measured traffic and what the checks saw.
struct Served {
    warmup: Vec<Req>,
    /// Spawn-to-warm time of each daemon started, s.
    setups: Vec<f64>,
    light: Sent,
    busy: Sent,
    /// The daemon's counter deltas over the light and the busy phase.
    light_d: CounterDelta,
    busy_d: CounterDelta,
    /// Daemon CPU over the two fixed-rate phases, µs.
    cpu_us: f64,
    /// Daemon `VmHWM` after warm-up and the two fixed-rate phases, MB.
    rss_mb: f64,
    probes: Vec<Sent>,
    max_rate_rps: f64,
    shares: stream::Shares,
}

/// Starts `starts` daemons on `models`, each warmed (all but the last are
/// shut down again), runs the light and busy phases and the ladder on the
/// last one, and checks every output and the workload's properties.
fn serve(args: &Args, models: &Models, starts: usize, report: &mut Report) -> io::Result<Served> {
    let plan = config::plan(args.workload);
    let mut source = Source::new(args.workload, args.seed);
    let warmup = source.warmup();
    let warm_payloads: Vec<Vec<u8>> = warmup.iter().map(Req::payload).collect();
    let mut setups = Vec::new();
    let (daemon, mut session) = loop {
        let (daemon, mut session, setup_s) = start_warm(args, models, &warm_payloads)?;
        setups.push(setup_s);
        if setups.len() == starts {
            break (daemon, session);
        }
        daemon.stop(&mut session)?;
    };
    report.note(format!(
        "set-up: {:?} s ({} warm-up requests each)",
        setups,
        warmup.len()
    ));

    let fixed_s = args.seconds * FIXED_PHASE_SHARE;
    let (light, light_d, light_cpu) = measured_phase(
        &daemon,
        &mut session,
        &mut source,
        args.seed,
        1,
        plan.light_rps,
        fixed_s,
    )?;
    report.note(light.summary(&format!("light {:.0} req/s", plan.light_rps)));
    report.note(format!("  daemon over light: {}", light_d.summary()));
    let (busy, busy_d, busy_cpu) = measured_phase(
        &daemon,
        &mut session,
        &mut source,
        args.seed,
        2,
        plan.busy_rps,
        fixed_s,
    )?;
    report.note(busy.summary(&format!("busy {:.0} req/s", plan.busy_rps)));
    report.note(format!("  daemon over busy: {}", busy_d.summary()));
    // Peak RSS after a fixed amount of traffic (warm-up plus the two
    // fixed-rate phases), before the ladder, whose length varies.
    let rss_mb = daemon.peak_rss_mb()?;
    let mut probes = Vec::new();
    let max_rate_rps = max_rate(
        &mut session,
        &mut source,
        args.seed,
        &plan,
        args.seconds * PROBE_SHARE,
        report,
        &mut probes,
    )?;
    daemon.stop(&mut session)?;

    let mut phases = vec![&light, &busy];
    phases.extend(probes.iter());
    report.attempted = phases.iter().map(|p| p.out.sent).sum();
    report.failed = phases.iter().map(|p| p.out.failed).sum();
    if report.failed > 0 {
        report
            .problems
            .push(format!("{} requests failed", report.failed));
    }
    check_outputs(models, &phases, report);
    let measured: Vec<Req> = phases.iter().flat_map(|p| p.reqs.iter().cloned()).collect();
    let shares = stream::shares(&warmup, &measured);
    let mut both = light_d;
    both.add(&busy_d);
    check_properties(args.workload, &shares, &both, report);
    Ok(Served {
        warmup,
        setups,
        light,
        busy,
        light_d,
        busy_d,
        cpu_us: light_cpu + busy_cpu,
        rss_mb,
        probes,
        max_rate_rps,
        shares,
    })
}

fn run_end_to_end(args: &Args) -> io::Result<Report> {
    let mut report = Report::default();
    let (models, retrain, offline_rss) = offline_phase(args, &mut report)?;
    report.note(format!(
        "offline phase: {:.2} s wall, {:.2} s CPU",
        retrain.wall_s, retrain.cpu_s
    ));
    let mut s = serve(args, &models, config::SETUPS, &mut report)?;

    let answered = s.light.out.ok + s.busy.out.ok;
    report.metric("setup_s", median(&mut s.setups), "s", s.setups.len());
    report.metric(
        "cpu_us_per_req",
        s.cpu_us / answered.max(1) as f64,
        "us",
        answered,
    );
    report.metric("peak_rss_mb", offline_rss.unwrap_or(s.rss_mb), "MB", 1);
    report.metric("retrain_cpu_s", retrain.cpu_s, "s", 1);
    let (light, busy) = (&s.light, &s.busy);
    report.unbounded("light_p50_us", light.latency(0.5), "us", light.out.sent);
    report.unbounded("light_p99_us", light.latency(0.99), "us", light.out.sent);
    report.unbounded("busy_p50_us", busy.latency(0.5), "us", busy.out.sent);
    report.unbounded("busy_p99_us", busy.latency(0.99), "us", busy.out.sent);
    report.unbounded("max_rate_rps", s.max_rate_rps, "1/s", s.probes.len());
    report.unbounded("retrain_s", retrain.wall_s, "s", 1);
    Ok(report)
}

fn run_traced(args: &Args) -> io::Result<Report> {
    let mut report = Report::default();

    // The offline phase as the program runs it, with the flight recorder
    // on so the program's own spans around each phase reach the span file.
    obs::trace::set_enabled(true);
    let off = offline::paper_lab();
    obs::trace::set_enabled(false);
    let offline_spans = spans::from_trace(&obs::trace::drain().0);
    obs::trace::reset();
    table3_check(&off, &mut report);
    let campaign = offline::span_ms("lab/pipeline/campaign");
    let dataset = offline::span_ms("lab/pipeline/dataset");
    let eval = offline::span_ms("lab/evaluation");
    report.note(format!(
        "offline phase: {:.2} s wall; program spans: campaign {:.0} ms, dataset {:.0} ms, \
         train {:.0} ms, evaluation {:.0} ms",
        off.wall_s,
        campaign.0,
        dataset.0,
        offline::span_ms("lab/pipeline/train").0,
        eval.0
    ));
    for (path, (_, n)) in [
        ("lab/pipeline/campaign", campaign),
        ("lab/pipeline/dataset", dataset),
        ("lab/evaluation", eval),
    ] {
        report.require(n == 1, || {
            format!("the offline phase recorded span `{path}` {n} times, not once")
        });
    }
    let (predict_online_us, predict_online_n) =
        offline::predict_online_us(&off.lab, PREDICT_ONLINE_ROUNDS);
    let (power, time) = (
        off.lab.pipeline.models.power_history.clone(),
        off.lab.pipeline.models.time_history.clone(),
    );
    let models = Models::write(models_path(args), off.lab.pipeline.models)?;

    // The daemon's own counters and the client's view, untraced.
    let served = serve(args, &models, 1, &mut report)?;
    let Served {
        warmup,
        light,
        busy,
        light_d,
        busy_d,
        probes,
        max_rate_rps,
        shares,
        ..
    } = &served;
    let mut daemon_d = *light_d;
    daemon_d.add(busy_d);
    let measured: Vec<Req> = [light, busy]
        .iter()
        .flat_map(|p| p.reqs.iter().cloned())
        .collect();

    // The same stream replayed in process: untraced, then traced.
    let spec = ga100();
    let snapshot = ModelSnapshot::new(models.models.clone(), spec.clone(), SnapshotMeta::default());
    let replayed = &measured[..measured.len().min(REPLAY_MAX)];
    let payloads: Vec<Vec<u8>> = replayed.iter().map(Req::payload).collect();
    // The replay ends with fresh runs of up to 64 of the stream's apps, so
    // every workload takes the LRU-hit path (a fragment miss on a resident
    // bucket) at least that often, even one whose stream never does.
    let mut coda_buckets = std::collections::HashSet::new();
    let coda: Vec<Req> = replayed
        .iter()
        .filter(|r| coda_buckets.insert(stream::bucket(r.fp, r.dram)))
        .take(CODA)
        .enumerate()
        .map(|(i, r)| stream::rerun(r, CODA_ID + i as u64))
        .collect();
    let coda_payloads: Vec<Vec<u8>> = coda.iter().map(Req::payload).collect();
    let real_warmup = replay::serves_warmup(warmup);
    // Only the measured stream is timed, so both passes time the same
    // work; the traced pass also records the warm-up (when it is served
    // for real) and the coda.
    let shape = replay::ServeShape::of_this_host();
    let pass = |traced: bool| {
        let mut replay = replay::Replay::new(&snapshot, shape);
        spans::reset(traced && real_warmup);
        replay.warm(warmup);
        spans::enable(traced);
        let t0 = Instant::now();
        for (r, p) in replayed.iter().zip(&payloads) {
            replay.serve(r, p);
        }
        let per_req_us = t0.elapsed().as_secs_f64() * 1e6 / replayed.len() as f64;
        for (r, p) in coda.iter().zip(&coda_payloads) {
            replay.serve(r, p);
        }
        let recorded = spans::take();
        spans::reset(false);
        (per_req_us, recorded, replay.counts)
    };
    let (untraced_us, _, _) = pass(false);
    let (traced_us, replay_spans, counts) = pass(true);
    let t = spans::totals(&replay_spans);
    let mean = |name: &str| t.get(name).map_or(0.0, |x| x.mean_ns());
    let count = |name: &str| t.get(name).map_or(0, |x| x.count as usize);
    let self_mean = |name: &str| {
        t.get(name)
            .map_or(0.0, |x| x.self_ns as f64 / x.count.max(1) as f64)
    };

    let mut points: Vec<(f64, f64)> = Vec::new();
    for r in replayed.iter().chain(warmup.iter()) {
        if points.len() == ENGINE_POINTS {
            break;
        }
        if !points.contains(&(r.fp, r.dram)) {
            points.push((r.fp, r.dram));
        }
    }
    let engine = replay::engine_costs(&snapshot, &points, ENGINE_SWEEPS);
    let wake = replay::wake_ns(WAKE_SAMPLES, shape.max_batch);
    let load_ms = replay::snapshot_load_ms(&models.json, &spec, 3);

    let mut all_spans = offline_spans;
    spans::append(&mut all_spans, &replay_spans);
    let span_file = Path::new(OUT_DIR).join(format!("spans-{}.csv", args.workload.name()));
    spans::write_csv(&span_file, &all_spans)?;
    report.note(format!(
        "spans: {} written to {}; replayed {} requests ({} workers, {} LRU shards, as the daemon \
         runs here), untraced {untraced_us:.2} µs/request, traced {traced_us:.2} µs/request",
        all_spans.len(),
        span_file.display(),
        replayed.len(),
        shape.workers,
        shape.shards
    ));
    for (name, x) in &t {
        report.note(format!(
            "  span {name:<22} n={:<7} mean {:>10.1} ns  self {:>10.1} ns",
            x.count,
            x.mean_ns(),
            x.self_ns as f64 / x.count.max(1) as f64
        ));
    }

    let n = replayed.len();
    let r = &mut report;
    r.metric(
        "framing.decode_ns",
        mean("framing.decode"),
        "ns",
        count("framing.decode"),
    );
    r.metric(
        "framing.writev_ns",
        mean("framing.writev"),
        "ns",
        count("framing.writev"),
    );
    r.metric(
        "protocol.parse_ns",
        mean("protocol.parse"),
        "ns",
        count("protocol.parse"),
    );
    r.metric(
        "protocol.fast_path_ratio",
        counts.fast_path as f64 / counts.frames.max(1) as f64,
        "ratio",
        counts.frames as usize,
    );
    r.metric(
        "protocol.profile_tail_ns",
        mean("protocol.profile_tail"),
        "ns",
        count("protocol.profile_tail"),
    );
    r.metric(
        "protocol.reply_bytes",
        counts.reply_bytes as f64 / n.max(1) as f64,
        "bytes",
        n,
    );
    r.metric(
        "dispatch.handoff_ns",
        mean("dispatch.handoff"),
        "ns",
        count("dispatch.handoff"),
    );
    r.metric("dispatch.wake_ns", wake, "ns", WAKE_SAMPLES);
    r.metric(
        "dispatch.batch_len",
        busy_d.batched_jobs / busy_d.batches.max(1) as f64,
        "jobs",
        busy_d.batches as usize,
    );
    r.metric(
        "reply.roundtrip_ns",
        mean("reply.roundtrip"),
        "ns",
        count("reply.roundtrip"),
    );
    r.metric(
        "server.request_p50_us",
        busy_d.request_p50_us,
        "us",
        busy_d.requests as usize,
    );
    r.metric(
        "server.request_p99_us",
        busy_d.request_p99_us,
        "us",
        busy_d.requests as usize,
    );
    r.metric(
        "server.errors",
        daemon_d.errors as f64,
        "count",
        daemon_d.requests as usize,
    );
    r.metric("cache.key_ns", mean("cache.key"), "ns", count("cache.key"));
    r.metric("cache.hit_ns", mean("cache.hit"), "ns", count("cache.hit"));
    r.metric(
        "cache.insert_evict_ns",
        self_mean("cache.insert_evict"),
        "ns",
        count("cache.insert_evict"),
    );
    r.metric(
        "cache.hit_ratio",
        daemon_d.hits as f64 / (daemon_d.hits + daemon_d.misses).max(1) as f64,
        "ratio",
        (daemon_d.hits + daemon_d.misses) as usize,
    );
    r.metric(
        "cache.evictions_per_miss",
        if daemon_d.misses == 0 {
            0.0
        } else {
            daemon_d.evictions as f64 / daemon_d.misses as f64
        },
        "ratio",
        daemon_d.misses as usize,
    );
    r.metric(
        "predictor.hit_ns",
        mean("predictor.hit"),
        "ns",
        count("predictor.hit"),
    );
    r.metric(
        "predictor.miss_ns",
        mean("predictor.miss"),
        "ns",
        count("predictor.miss"),
    );
    r.metric("engine.sweep_ns", engine.sweep_ns, "ns", engine.sweeps);
    const LAYERS: [&str; 4] = [
        "nn.layer0_ns",
        "nn.layer1_ns",
        "nn.layer2_ns",
        "nn.layer3_ns",
    ];
    for (name, ns) in LAYERS.iter().zip(&engine.layer_ns) {
        r.metric(name, *ns, "ns", engine.sweeps);
    }
    r.metric("nn.gemm_ns", engine.gemm_ns, "ns", engine.sweeps);
    r.metric("nn.act_ns", engine.act_ns, "ns", engine.sweeps);
    r.metric("engine.flops_per_sweep", engine.flops_per_sweep, "flop", 0);
    r.metric("engine.bytes_per_sweep", engine.bytes_per_sweep, "bytes", 0);
    r.metric(
        "objective.select_ns",
        mean("objective.select"),
        "ns",
        count("objective.select"),
    );
    r.metric("snapshot.load_ms", load_ms, "ms", 3);
    r.metric(
        "obs.record_ns",
        mean("obs.record"),
        "ns",
        count("obs.record"),
    );
    r.metric(
        "replay.self_ns",
        self_mean("request"),
        "ns",
        count("request"),
    );
    r.metric("pipeline.campaign_ms", campaign.0, "ms", campaign.1);
    r.metric("pipeline.dataset_ms", dataset.0, "ms", dataset.1);
    r.metric("train.power_s", power.train_seconds, "s", 1);
    r.metric("train.time_s", time.train_seconds, "s", 1);
    let per_epoch_ms = |h: &gpu_dvfs::nn::TrainingHistory| {
        h.train_seconds * 1e3 / h.train_loss.len().max(1) as f64
    };
    r.metric(
        "train.power_epoch_ms",
        per_epoch_ms(&power),
        "ms",
        power.train_loss.len(),
    );
    r.metric(
        "train.time_epoch_ms",
        per_epoch_ms(&time),
        "ms",
        time.train_loss.len(),
    );
    r.metric("lab.eval_ms", eval.0, "ms", eval.1);
    r.metric(
        "lab.predict_online_us",
        predict_online_us,
        "us",
        predict_online_n,
    );
    r.metric(
        "stream.exact_repeat_share",
        shares.exact_repeat,
        "ratio",
        shares.requests,
    );
    r.metric(
        "stream.bucket_repeat_share",
        shares.bucket_repeat,
        "ratio",
        shares.requests,
    );
    r.metric(
        "stream.unseen_share",
        shares.unseen,
        "ratio",
        shares.requests,
    );
    r.metric("client.max_rate_rps", *max_rate_rps, "1/s", probes.len());
    r.metric(
        "client.light_p50_us",
        light.latency(0.5),
        "us",
        light.out.sent,
    );
    r.metric("client.busy_p50_us", busy.latency(0.5), "us", busy.out.sent);
    r.metric(
        "client.light_p99_us",
        light.latency(0.99),
        "us",
        light.out.sent,
    );
    r.metric(
        "client.busy_p99_us",
        busy.latency(0.99),
        "us",
        busy.out.sent,
    );
    r.metric("gen.late_p99_us", busy.late(0.99), "us", busy.out.sent);
    r.metric("replay.untraced_us_per_req", untraced_us, "us", n);
    r.metric("replay.traced_us_per_req", traced_us, "us", n);
    r.metric(
        "trace.overhead_pct",
        (traced_us / untraced_us - 1.0) * 100.0,
        "%",
        n,
    );
    r.note(
        "engine.flops_per_sweep and engine.bytes_per_sweep are computed from the layer \
         shapes, not measured",
    );
    Ok(report)
}
