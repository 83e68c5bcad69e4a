//! `dvfs` — command-line front end to the GPU-DVFS pipeline.
//!
//! `dvfs help` prints the commands and their flags. [`USAGE`] and the
//! [`COMMANDS`] table are the only flag lists; a unit test keeps them in
//! step, and a flag the command does not read is a usage error.
//!
//! The tool drives the simulated devices; pointing it at real hardware only
//! requires a `GpuBackend` implementation backed by NVML/DCGM.

use gpu_dvfs::core::serve::protocol::parse_objective;
use gpu_dvfs::prelude::*;
use std::collections::HashMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// Parsed `--name value` flags.
type Flags = HashMap<String, String>;

/// Exit code for usage / validation errors (bad flag, unknown command,
/// out-of-range value): the invocation itself was wrong.
const EXIT_USAGE: u8 = 2;
/// Exit code for I/O and configuration errors (unreadable models file,
/// bind failure, unwritable output): the invocation was fine, the
/// environment wasn't. Distinct codes let wrappers retry the right one.
const EXIT_IO: u8 = 3;

/// A CLI failure, classified for the exit code.
enum CliError {
    /// The command line was invalid (exit 2).
    Usage(String),
    /// The environment failed us: file, socket, config (exit 3).
    Io(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => EXIT_USAGE,
            CliError::Io(_) => EXIT_IO,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Io(m) => m,
        }
    }
}

// Bare `String` errors come from flag parsing and validation helpers —
// they classify as usage errors; I/O sites wrap explicitly.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

fn usage_exit(message: &str) -> ExitCode {
    eprintln!("error: {message}\n\n{USAGE}");
    ExitCode::from(EXIT_USAGE)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let opts = match parse_flags(rest) {
        Ok(o) => o,
        Err(e) => return usage_exit(&e),
    };
    if let Err(e) = metrics_format(&opts) {
        return usage_exit(&e);
    }
    if let Err(e) = apply_threads(&opts) {
        return usage_exit(&e);
    }
    // The flight recorder must be armed before the command runs so every
    // worker thread it spawns records into the per-thread rings.
    if opts.contains_key("trace-out") {
        obs::trace::set_enabled(true);
    }
    let result = run_command(cmd, &opts);
    // Export the instrumentation on BOTH paths: a failing run is exactly
    // when the snapshot and trace matter most. (`and_then` here used to
    // drop the telemetry whenever the command errored.) This includes the
    // signal-triggered `serve` shutdown, which returns here like any
    // other completed command.
    let exports = emit_metrics(&opts).and(emit_trace(&opts));
    match (result, exports) {
        (Ok(()), Ok(())) => ExitCode::SUCCESS,
        (result, exports) => {
            // The command's classification wins over a late export error.
            let code = result
                .as_ref()
                .err()
                .or(exports.as_ref().err())
                .map(CliError::exit_code)
                .unwrap_or(1);
            for e in [result.err(), exports.err()].into_iter().flatten() {
                eprintln!("error: {}", e.message());
            }
            ExitCode::from(code)
        }
    }
}

/// SIGINT/SIGTERM latch for `dvfs serve` and `dvfs top`: the first
/// signal sets a flag and writes one byte into a socket pair, whose other
/// end [`interrupt::wait`] blocks on, so a waiting thread wakes at once
/// and nothing polls. No `libc` crate: std already links the platform
/// libc, so the `signal(2)` and `write(2)` bindings below are all that's
/// needed.
#[cfg(unix)]
mod interrupt {
    use std::io::{Read as _, Write as _};
    use std::os::unix::io::AsRawFd as _;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
    use std::sync::OnceLock;
    use std::time::Duration;

    static TRIGGERED: AtomicBool = AtomicBool::new(false);
    /// The socket pair: `wait` reads the first end, `latch` and `wake`
    /// write the second.
    static PAIR: OnceLock<(UnixStream, UnixStream)> = OnceLock::new();
    /// The write end's descriptor, for the handler.
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    extern "C" fn latch(_signum: i32) {
        // Only the first signal writes, so the byte always fits and
        // `errno` stays untouched. Both calls are async-signal-safe.
        if !TRIGGERED.swap(true, Ordering::SeqCst) {
            // SAFETY: `WAKE_FD` names a socket that `PAIR` keeps open for
            // the life of the process, and the buffer is one live byte.
            unsafe { write(WAKE_FD.load(Ordering::SeqCst), [1u8].as_ptr(), 1) };
        }
    }

    pub fn install() -> std::io::Result<()> {
        let pair = UnixStream::pair()?;
        let fd = pair.1.as_raw_fd();
        if PAIR.set(pair).is_ok() {
            WAKE_FD.store(fd, Ordering::SeqCst);
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            // SAFETY: `signal` is the POSIX libc entry point and `latch`
            // is async-signal-safe (an atomic swap and one `write`).
            unsafe {
                signal(SIGINT, latch);
                signal(SIGTERM, latch);
            }
        }
        Ok(())
    }

    /// Blocks until a signal has arrived, [`wake`] runs or `limit`
    /// elapses (`None`: no limit), and returns whether a signal has
    /// arrived.
    pub fn wait(limit: Option<Duration>) -> bool {
        if let Some((rx, _)) = PAIR.get() {
            if !TRIGGERED.load(Ordering::SeqCst) && rx.set_read_timeout(limit).is_ok() {
                let _ = (&*rx).read(&mut [0u8]);
            }
        }
        TRIGGERED.load(Ordering::SeqCst)
    }

    /// Releases a thread blocked in [`wait`] without a signal.
    pub fn wake() {
        if let Some((_, tx)) = PAIR.get() {
            let _ = (&*tx).write_all(&[0u8]);
        }
    }
}

#[cfg(not(unix))]
mod interrupt {
    pub fn install() -> std::io::Result<()> {
        Ok(())
    }

    /// No signal ever arrives: sleeps for `limit`, or returns at once.
    pub fn wait(limit: Option<std::time::Duration>) -> bool {
        if let Some(limit) = limit {
            std::thread::sleep(limit);
        }
        false
    }

    pub fn wake() {}
}

/// One subcommand: its name, its entry point, and the flags it reads
/// besides [`GLOBAL_FLAGS`] (space-separated).
struct Command(
    &'static str,
    fn(&Flags) -> Result<(), CliError>,
    &'static str,
);

/// Flags every command takes.
const GLOBAL_FLAGS: &str = "threads metrics metrics-out trace-out";

const COMMANDS: &[Command] = &[
    Command("train", cmd_train, "arch stride out"),
    Command("campaign", cmd_campaign, "arch stride out"),
    Command("predict", cmd_predict, "models app arch"),
    Command("select", cmd_select, "models app objective threshold arch"),
    Command("cap", cmd_cap, "models watts arch"),
    Command(
        "batch",
        cmd_batch,
        "models requests capacity input objective threshold arch",
    ),
    Command("monitor", cmd_monitor, "arch stride window warn-mape drift"),
    Command(
        "serve",
        cmd_serve,
        "models addr workers capacity max-batch arch precision telemetry-port slo-p99-us \
         slo-fast-s slo-slow-s slo-burn journal-dir journal-segment-kb journal-budget-kb",
    ),
    Command(
        "loadgen",
        cmd_loadgen,
        "addr requests connections mode rate keys zipf select-every seed pipeline json shutdown",
    ),
    Command("top", cmd_top, "addr interval once json"),
    Command("scrape", cmd_scrape, "addr path"),
    Command(
        "journal",
        cmd_journal,
        "dir export tail workload cmd version limit",
    ),
    Command("replay", cmd_replay, "dir models arch limit json"),
    Command("apps", cmd_apps, ""),
    Command("help", cmd_help, ""),
];

/// Runs the command named `name` after rejecting any flag it does not
/// take.
fn run_command(name: &str, opts: &Flags) -> Result<(), CliError> {
    let lookup = match name {
        "--help" | "-h" => "help",
        other => other,
    };
    let Some(&Command(name, run, flags)) = COMMANDS.iter().find(|c| c.0 == lookup) else {
        return Err(CliError::Usage(format!("unknown command `{name}`")));
    };
    let takes = |flag: &str| {
        GLOBAL_FLAGS
            .split_whitespace()
            .chain(flags.split_whitespace())
            .any(|f| f == flag)
    };
    if let Some(bad) = opts.keys().filter(|f| !takes(f)).min() {
        return Err(CliError::Usage(format!(
            "`dvfs {name}` does not take --{bad}"
        )));
    }
    run(opts)
}

fn cmd_help(_: &Flags) -> Result<(), CliError> {
    println!("{USAGE}");
    Ok(())
}

/// The validated `--metrics` format, if the flag was given.
fn metrics_format(opts: &Flags) -> Result<Option<&str>, String> {
    match opts.get("metrics").map(String::as_str) {
        None => Ok(None),
        Some(fmt @ ("table" | "json")) => Ok(Some(fmt)),
        Some(other) => Err(format!(
            "unknown --metrics format `{other}` (expected table or json)"
        )),
    }
}

/// Exports the self-instrumentation snapshot per `--metrics` /
/// `--metrics-out`. Runs after the command on success *and* failure.
fn emit_metrics(opts: &Flags) -> Result<(), CliError> {
    let fmt = metrics_format(opts)?;
    let out = opts.get("metrics-out");
    if fmt.is_none() && out.is_none() {
        return Ok(());
    }
    let snapshot = obs::MetricsSnapshot::global();
    match fmt {
        Some("json") => println!("{}", snapshot.to_json()),
        Some(_) => eprint!("{}", snapshot.render_table()),
        None => {}
    }
    if let Some(path) = out {
        std::fs::write(path, snapshot.to_json())
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        obs::log!(Info, "wrote metrics to {path}");
    }
    Ok(())
}

/// Drains the flight recorder into a Chrome trace-event JSON file per
/// `--trace-out`. Like the metrics export, runs on both exit paths.
fn emit_trace(opts: &Flags) -> Result<(), CliError> {
    let Some(path) = opts.get("trace-out") else {
        return Ok(());
    };
    let stats = obs::trace::write_chrome_trace(std::path::Path::new(path))
        .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    obs::log!(
        Info,
        "wrote trace to {path} ({} events from {} threads, {} dropped by ring wraparound)",
        stats.retained,
        stats.threads,
        stats.dropped
    );
    Ok(())
}

const USAGE: &str = "\
dvfs — performance-aware energy-efficient GPU frequency selection

USAGE:
  dvfs train    [--arch ga100|gv100] [--stride N] [--threads T] [--out models.json]
  dvfs campaign [--arch ga100|gv100] [--stride N] [--threads T] --out samples.csv
  dvfs predict  --models models.json --app NAME [--arch ga100|gv100]
  dvfs select   --models models.json --app NAME [--objective edp|ed2p|energy|time]
                [--threshold PCT] [--arch ga100|gv100]
  dvfs cap      --models models.json --watts W [--arch ga100|gv100]
                plan per-app frequencies for one GPU per app under a cap
  dvfs batch    --models models.json [--requests N] [--capacity C]
                [--input samples.csv] [--objective edp|ed2p|energy|time]
                [--threshold PCT] [--arch ga100|gv100]
                serve a stream of prediction+selection requests through
                the profile cache, reporting latency and hit rates
  dvfs monitor  [--arch ga100|gv100] [--stride N] [--window W]
                [--warn-mape PCT] [--drift PCT]
                train, then replay the evaluation apps through the
                rolling model-quality monitors and report MAPE drift
                (--drift injects an artificial prediction error)
  dvfs serve    --models models.json [--addr HOST:PORT] [--workers N]
                [--capacity C] [--max-batch B]
                [--arch ga100|gv100] [--precision f64|f32|bf16]
                [--telemetry-port P] [--slo-p99-us US] [--slo-fast-s S]
                [--slo-slow-s S] [--slo-burn X] [--journal-dir DIR]
                [--journal-segment-kb KB] [--journal-budget-kb KB]
                long-lived prediction daemon: length-prefixed JSON
                frames (predict/select/version/stats/scrape/reload/
                shutdown), snapshot-versioned hot model swaps, sharded
                profile cache; stops cleanly on ctrl-c or a shutdown
                frame. --precision serves the packed batch-fused
                engines in reduced precision, gated by the quality
                monitor (a candidate whose MAPE vs the f64 reference
                leaves the paper's 12% band is vetoed back to f64; the
                active precision shows in stats/scrape).
                --telemetry-port serves Prometheus text on
                http://127.0.0.1:P/metrics (0 = ephemeral, address
                printed as `telemetry on ADDR`); the --slo-* flags
                tune the burn-rate alert engine (p99 objective in µs,
                fast/slow windows in seconds, burn threshold).
                --journal-dir enables the durable decision journal:
                every served decision is appended off the hot path to a
                CRC-protected segmented log rotated under a disk budget
                (--journal-segment-kb, --journal-budget-kb), feeding the
                energy-savings ledger in stats/scrape/top
  dvfs loadgen  --addr HOST:PORT [--requests N] [--connections C]
                [--mode closed|open] [--rate R] [--keys K] [--zipf S]
                [--select-every N] [--seed S] [--pipeline D] [--json]
                [--shutdown]
                drive a running server with zipf-skewed keys and report
                throughput + rtt percentiles; error replies are counted
                (and their rtt recorded) separately (--shutdown stops
                the server afterwards)
  dvfs top      --addr HOST:PORT [--interval S] [--once] [--json]
                live dashboard over a running server's stats frame:
                rolling qps + latency percentiles, cache hit rate,
                uptime/build/snapshot version, SLO burn + alert state,
                model quality (--once prints one sample and exits;
                --json emits the raw stats frame for scripting)
  dvfs scrape   --addr HOST:PORT [--path /metrics]
                fetch one document from a server's --telemetry-port
                (the Prometheus exposition) and print it to stdout
  dvfs journal  --dir DIR [--export] [--tail N] [--workload NAME]
                [--cmd predict|select] [--version V] [--limit N]
                inspect a decision journal: the default summary reports
                segments, record counts, versions, and predicted energy
                saved; --export emits one JSON line per decision (after
                the filters), --tail N exports only the last N
  dvfs replay   --dir DIR --models models.json [--arch ga100|gv100]
                [--limit N] [--json]
                re-run a journal's decisions through a model snapshot
                and verify each against the recorded outcome bit for
                bit; reports divergences and recorded-vs-replayed MAPE,
                exits 3 if any decision diverged
  dvfs apps     list the built-in application models

Exit codes: 0 ok, 2 usage/validation error, 3 I/O or config error.

Any command also takes --threads T (parallel worker count, 0 = all
cores; same as DVFS_THREADS — results are identical for every value),
--metrics[=table|json] / --metrics-out FILE (self-instrumentation
snapshot), and --trace-out FILE (flight-recorder timeline as Chrome
trace-event JSON for ui.perfetto.dev).";

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{flag}`"));
        };
        // `--name=value` is always accepted; the boolean-ish flags below
        // get a default when bare and never consume the next token (so
        // they can appear anywhere among the other flags).
        if let Some((name, value)) = name.split_once('=') {
            out.insert(name.to_string(), value.to_string());
        } else if name == "metrics" {
            out.insert(name.to_string(), "table".to_string());
        } else if name == "json" || name == "shutdown" || name == "once" || name == "export" {
            out.insert(name.to_string(), "1".to_string());
        } else {
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.insert(name.to_string(), value.clone());
        }
    }
    Ok(out)
}

/// Parses `--name` as a `T`; `None` when the flag is absent.
fn flag<T: FromStr>(opts: &Flags, name: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    let parse = |s: &String| s.parse().map_err(|e| format!("--{name}: {e}"));
    opts.get(name).map(parse).transpose()
}

/// Parses a flag the command cannot run without; `hint` names its value
/// in the error.
fn required<T: FromStr>(opts: &Flags, name: &str, hint: &str) -> Result<T, String>
where
    T::Err: Display,
{
    flag(opts, name)?.ok_or_else(|| format!("--{name} {hint} is required"))
}

/// Parses an optional integer flag with a default and a lower bound.
fn usize_flag(opts: &Flags, name: &str, default: usize, min: usize) -> Result<usize, String> {
    match flag(opts, name)? {
        None => Ok(default),
        Some(v) if v < min => Err(format!("--{name} must be >= {min}")),
        Some(v) => Ok(v),
    }
}

/// Parses an optional positive-float flag with a default.
fn f64_flag(opts: &Flags, name: &str, default: f64) -> Result<f64, String> {
    match flag::<f64>(opts, name)? {
        None => Ok(default),
        Some(v) if v.is_finite() && v > 0.0 => Ok(v),
        Some(_) => Err(format!("--{name} must be positive")),
    }
}

fn backend_for(opts: &Flags) -> Result<SimulatorBackend, String> {
    match opts.get("arch").map(String::as_str).unwrap_or("ga100") {
        "ga100" => Ok(SimulatorBackend::ga100()),
        "gv100" => Ok(SimulatorBackend::gv100()),
        other => Err(format!(
            "unknown --arch `{other}` (expected ga100 or gv100)"
        )),
    }
}

/// Publishes `--threads` as the `DVFS_THREADS` environment variable,
/// the process's one thread setting: it sizes the `rayon` pool that every
/// parallel stage (kernels, collection campaign, training shards, batch
/// prediction) runs on. The pool reads it once, at first use, so this
/// runs before any command does. A `0` value clears the variable,
/// restoring auto-detection.
fn apply_threads(opts: &Flags) -> Result<(), String> {
    match flag::<usize>(opts, "threads")? {
        None => {}
        Some(0) => std::env::remove_var("DVFS_THREADS"),
        Some(n) => std::env::set_var("DVFS_THREADS", n.to_string()),
    }
    Ok(())
}

fn app_for(opts: &Flags) -> Result<PhasedWorkload, String> {
    let name: String = required(opts, "app", "NAME")?;
    gpu_dvfs::kernels::apps::evaluation_apps()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(&name))
        .ok_or_else(|| format!("unknown app `{name}` — run `dvfs apps` to list them"))
}

fn load_models(opts: &Flags) -> Result<PowerTimeModels, CliError> {
    let path: String = required(opts, "models", "models.json")?;
    let json = std::fs::read_to_string(&path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    PowerTimeModels::from_json(&json).map_err(|e| CliError::Io(format!("{path}: {e}")))
}

fn cmd_train(opts: &Flags) -> Result<(), CliError> {
    let backend = backend_for(opts)?;
    let stride = usize_flag(opts, "stride", 1, 1)?;
    obs::log!(
        Info,
        "training on {} ({} used DVFS states, stride {stride})...",
        backend.spec().arch.chip_name(),
        backend.grid().num_used()
    );
    let pipeline = TrainedPipeline::train_on(&backend, stride);
    obs::log!(
        Info,
        "dataset {} rows; final losses: power {:.5}, time {:.5}",
        pipeline.dataset.len(),
        pipeline.models.power_history.train_loss.last().unwrap(),
        pipeline.models.time_history.train_loss.last().unwrap()
    );
    for (label, history) in [
        ("power", &pipeline.models.power_history),
        ("time", &pipeline.models.time_history),
    ] {
        report_history(label, history);
    }
    let out = opts.get("out").map(String::as_str).unwrap_or("models.json");
    std::fs::write(out, pipeline.models.to_json())
        .map_err(|e| CliError::Io(format!("{out}: {e}")))?;
    println!("wrote {out}");
    Ok(())
}

/// Prints the best-epoch summary for one model and attaches its full loss
/// curve to the metrics export (shows up in `--metrics-out` JSON).
fn report_history(label: &str, history: &gpu_dvfs::nn::train::TrainingHistory) {
    match history.best_epoch() {
        Some(best) => println!(
            "{label}: best epoch {}/{} (val loss {:.5}), trained in {:.1} s",
            best + 1,
            history.train_loss.len(),
            history.val_loss[best],
            history.train_seconds
        ),
        None => println!(
            "{label}: {} epochs (no validation split), trained in {:.1} s",
            history.train_loss.len(),
            history.train_seconds
        ),
    }
    use obs::Value;
    let curve = |losses: &[f64]| Value::Array(losses.iter().map(|&l| Value::Num(l)).collect());
    obs::attach_json(
        &format!("training.{label}"),
        Value::Object(vec![
            ("train_loss".into(), curve(&history.train_loss)),
            ("val_loss".into(), curve(&history.val_loss)),
            (
                "best_epoch".into(),
                match history.best_epoch() {
                    Some(b) => Value::Num(b as f64),
                    None => Value::Null,
                },
            ),
            ("train_seconds".into(), Value::Num(history.train_seconds)),
        ]),
    );
}

fn cmd_campaign(opts: &Flags) -> Result<(), CliError> {
    let backend = backend_for(opts)?;
    let stride = usize_flag(opts, "stride", 1, 1)?;
    let out: String = required(opts, "out", "samples.csv")?;
    let workloads: Vec<PhasedWorkload> = gpu_dvfs::kernels::suite::training_suite()
        .iter()
        .map(|k| k.workload(backend.spec()))
        .collect();
    let freqs: Vec<f64> = backend.grid().used().into_iter().step_by(stride).collect();
    let cfg = gpu_dvfs::telemetry::LaunchConfig {
        frequencies: freqs,
        runs: 3,
        output: Some(out.as_str().into()),
    };
    let samples = gpu_dvfs::telemetry::CollectionCampaign::new(&backend, cfg)
        .collect(&workloads)
        .map_err(|e| CliError::Io(e.to_string()))?;
    println!("collected {} samples -> {out}", samples.len());
    Ok(())
}

fn cmd_predict(opts: &Flags) -> Result<(), CliError> {
    let backend = backend_for(opts)?;
    let models = load_models(opts)?;
    let app = app_for(opts)?;
    let predictor = Predictor::new(&models, backend.spec().clone());
    let profile = predictor.predict_online(&backend, &app);
    println!(
        "{:<10} {:>10} {:>10} {:>12}",
        "f (MHz)", "P (W)", "T (s)", "E (J)"
    );
    for i in 0..profile.frequencies.len() {
        println!(
            "{:<10.0} {:>10.1} {:>10.2} {:>12.0}",
            profile.frequencies[i], profile.power_w[i], profile.time_s[i], profile.energy_j[i]
        );
    }
    Ok(())
}

fn objective_for(opts: &Flags) -> Result<Objective, String> {
    let name = opts.get("objective").map_or("ed2p", String::as_str);
    parse_objective(name).map_err(|_| format!("unknown --objective `{name}`"))
}

/// `--threshold PCT` as a fraction.
fn threshold_for(opts: &Flags) -> Result<Option<f64>, String> {
    Ok(flag::<f64>(opts, "threshold")?.map(|pct| pct / 100.0))
}

fn cmd_select(opts: &Flags) -> Result<(), CliError> {
    let backend = backend_for(opts)?;
    let models = load_models(opts)?;
    let app = app_for(opts)?;
    let objective = objective_for(opts)?;
    let threshold = threshold_for(opts)?;

    let predictor = Predictor::new(&models, backend.spec().clone());
    let profile = predictor.predict_online(&backend, &app);
    let sel = profile.select(objective, threshold);
    println!(
        "{} on {}: {} optimum = {:.0} MHz",
        app.name,
        backend.spec().arch.chip_name(),
        objective.name(),
        sel.frequency_mhz
    );
    println!(
        "predicted: {:.1}% energy saved, {:.1}% slower than f_max{}",
        100.0 * profile.energy_saving_at(sel.index),
        100.0 * profile.time_change_at(sel.index),
        if sel.threshold_applied {
            " (threshold applied)"
        } else {
            ""
        }
    );
    println!(
        "apply with: nvidia-smi -lgc {0},{0}  # or dcgmi config --set -a {0}",
        sel.frequency_mhz
    );
    Ok(())
}

fn cmd_cap(opts: &Flags) -> Result<(), CliError> {
    let backend = backend_for(opts)?;
    let models = load_models(opts)?;
    let cap: f64 = required(opts, "watts", "W")?;
    let predictor = Predictor::new(&models, backend.spec().clone());
    let profiles: Vec<PredictedProfile> = gpu_dvfs::kernels::apps::evaluation_apps()
        .iter()
        .map(|a| predictor.predict_online(&backend, a))
        .collect();
    let refs: Vec<&PredictedProfile> = profiles.iter().collect();
    let plan = gpu_dvfs::core::capping::plan_under_cap(&refs, cap);
    println!(
        "plan draws {:.0} W under a {cap:.0} W cap{}:",
        plan.total_power_w,
        if plan.feasible {
            ""
        } else {
            " — CAP UNREACHABLE (all GPUs at floor)"
        }
    );
    for a in &plan.assignments {
        println!(
            "  {:<10} {:>6.0} MHz  {:>7.1} W  {:>5.1}% slower",
            a.workload,
            a.frequency_mhz,
            a.power_w,
            100.0 * a.slowdown
        );
    }
    println!(
        "worst-case predicted slowdown: {:.1}%",
        100.0 * plan.worst_slowdown()
    );
    Ok(())
}

fn cmd_batch(opts: &Flags) -> Result<(), CliError> {
    use gpu_dvfs::gpu::MetricSample;
    use gpu_dvfs::telemetry::Profiler;
    use rayon::prelude::*;
    use std::time::Instant;

    let backend = backend_for(opts)?;
    let models = load_models(opts)?;
    let objective = objective_for(opts)?;
    let threshold = threshold_for(opts)?;
    let requests = usize_flag(opts, "requests", 64, 1)?;
    let capacity = usize_flag(opts, "capacity", 128, 1)?;

    obs::span!("batch");
    let spec = backend.spec().clone();
    // The reference pool: default-clock profiling runs, either replayed
    // from a campaign CSV or taken once per built-in evaluation app.
    let pool: Vec<MetricSample> = {
        obs::span!("pool");
        match opts.get("input") {
            Some(path) => {
                let all = gpu_dvfs::telemetry::csv::read_samples(std::path::Path::new(path))
                    .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                let total = all.len();
                let refs: Vec<MetricSample> = all
                    .into_iter()
                    .filter(|s| s.sm_app_clock == spec.max_core_mhz)
                    .collect();
                if refs.is_empty() {
                    return Err(CliError::Io(format!(
                        "{path}: none of the {total} samples were taken at the default clock \
                         ({} MHz)",
                        spec.max_core_mhz
                    )));
                }
                refs
            }
            None => {
                backend.reset_clock();
                let profiler = Profiler::new(&backend);
                gpu_dvfs::kernels::apps::evaluation_apps()
                    .iter()
                    .map(|app| profiler.profile_run(app, 0).sample)
                    .collect()
            }
        }
    };

    // Round-robin the pool into the request stream, modelling repeated
    // submissions of the same applications (the case the cache serves).
    let stream: Vec<&MetricSample> = (0..requests).map(|i| &pool[i % pool.len()]).collect();
    let freqs = backend.grid().used();
    let predictor = Predictor::new(&models, spec.clone());
    let cache = ShardedProfileCache::new(capacity, 1);
    // Per-request latency (prediction + selection) lands in the shared
    // registry, so both the report below and `--metrics` read one source.
    let latency = obs::global().histogram("batch.request_ns");

    let wall = Instant::now();
    let mut results: Vec<(usize, String, f64, f64)> = {
        obs::span!("serve");
        stream
            .par_iter()
            .enumerate()
            .map(|(i, reference)| {
                let t0 = Instant::now();
                let profile = predictor
                    .predict_batch_cached(&cache, std::slice::from_ref(*reference), &freqs)
                    .remove(0);
                let sel = profile.select(objective, threshold);
                latency.record_duration(t0.elapsed());
                (
                    i,
                    reference.workload.clone(),
                    sel.frequency_mhz,
                    100.0 * profile.energy_saving_at(sel.index),
                )
            })
            .collect()
    };
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    results.sort_by_key(|r| r.0);
    cache.publish_stats();

    println!(
        "{requests} requests over {} apps on {} ({} DVFS states, {} objective)",
        pool.len(),
        spec.arch.chip_name(),
        freqs.len(),
        objective.name()
    );
    let shown = results.len().min(pool.len());
    for (_, workload, mhz, saving) in results.iter().take(shown) {
        println!("  {workload:<12} -> {mhz:>5.0} MHz  {saving:>5.1}% energy saved");
    }
    if results.len() > shown {
        println!(
            "  ... {} more requests (repeats of the apps above)",
            results.len() - shown
        );
    }

    let us = |ns: f64| ns / 1e3;
    println!(
        "latency: mean {:.1} µs, p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs, max {:.1} µs; \
         wall {wall_ms:.1} ms",
        us(latency.mean()),
        us(latency.percentile(0.50) as f64),
        us(latency.percentile(0.95) as f64),
        us(latency.percentile(0.99) as f64),
        us(latency.max() as f64)
    );
    let stats = cache.stats();
    println!(
        "cache: {} hits / {} misses ({:.0}% hit rate), {} evictions, {} resident of {capacity}",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_rate(),
        stats.evictions,
        cache.len()
    );
    Ok(())
}

/// `dvfs monitor` — trains a pipeline, then replays the evaluation apps
/// through the predictor while feeding every predicted-vs-measured pair
/// into the rolling model-quality monitors, and prints the drift report.
///
/// `--drift PCT` injects an artificial prediction error to exercise the
/// alert path: power is scaled uniformly by (1 + d) and time by the
/// frequency-dependent tilt (1 + d·(1 − f/f_max)) — a uniform time error
/// would cancel in the normalized-time comparison the monitor uses.
fn cmd_monitor(opts: &Flags) -> Result<(), CliError> {
    let backend = backend_for(opts)?;
    let stride = usize_flag(opts, "stride", 1, 1)?;
    let defaults = obs::quality::QualityConfig::default();
    let window = usize_flag(opts, "window", defaults.window, 1)?;
    let warn_mape = flag(opts, "warn-mape")?.unwrap_or(defaults.warn_mape);
    let drift = flag::<f64>(opts, "drift")?.map_or(0.0, |pct| pct / 100.0);
    // Configure both monitors up front so the first observation already
    // sees the requested window and alert band.
    let config = obs::quality::QualityConfig { window, warn_mape };
    obs::quality::reset();
    for model in ["power", "time"] {
        obs::quality::monitor_with(model, config);
    }

    obs::log!(
        Info,
        "training on {} (stride {stride}) for the quality monitor...",
        backend.spec().arch.chip_name()
    );
    let pipeline = TrainedPipeline::train_on(&backend, stride);
    let predictor = pipeline.predictor(backend.spec().clone());
    let f_max = backend.spec().max_core_mhz;
    let apps = gpu_dvfs::kernels::apps::evaluation_apps();
    for app in &apps {
        let measured = measured_profile(&backend, app);
        let mut predicted = predictor.predict_online(&backend, app);
        if drift != 0.0 {
            for i in 0..predicted.frequencies.len() {
                let f = predicted.frequencies[i];
                predicted.power_w[i] *= 1.0 + drift;
                predicted.time_s[i] *= 1.0 + drift * (1.0 - f / f_max);
            }
        }
        gpu_dvfs::core::evaluation::record_ground_truth(&measured, &predicted);
    }

    println!(
        "model-quality monitor: {} apps on {}, window {window}, alert band {warn_mape}%{}",
        apps.len(),
        backend.spec().arch.chip_name(),
        if drift != 0.0 {
            format!(", injected drift {:.1}%", 100.0 * drift)
        } else {
            String::new()
        }
    );
    for stat in obs::quality::snapshot() {
        println!(
            "quality.{}.mape {:.2}%  max_ape {:.2}%  samples {}  alerts {}{}",
            stat.model,
            stat.mape,
            stat.max_ape,
            stat.samples,
            stat.alerts,
            if stat.above_band { "  ABOVE BAND" } else { "" }
        );
    }
    Ok(())
}

/// Builds the serve SLO set from the `--slo-*` flags: the same three
/// stock objectives as [`gpu_dvfs::core::serve::default_slos`], with
/// the latency threshold and the shared windows/burn threshold
/// overridden.
fn slos_for(opts: &Flags) -> Result<Vec<obs::SloSpec>, String> {
    let p99_us = f64_flag(opts, "slo-p99-us", 500.0)?;
    let fast = std::time::Duration::from_secs_f64(f64_flag(opts, "slo-fast-s", 300.0)?);
    let slow = std::time::Duration::from_secs_f64(f64_flag(opts, "slo-slow-s", 3600.0)?);
    let burn = f64_flag(opts, "slo-burn", 1.0)?;
    let threshold_ns = (p99_us * 1e3).round().max(1.0) as u64;
    Ok(vec![
        obs::SloSpec::latency("latency_p99", "serve.request_ns", threshold_ns, 0.99),
        obs::SloSpec::error_ratio("availability", "serve.requests", "serve.errors", 0.999),
        obs::SloSpec::gauge_below("quality_mape", "quality.power.mape", 12.0, 0.999),
    ]
    .into_iter()
    .map(|s| s.with_windows(fast, slow).with_burn_threshold(burn))
    .collect())
}

/// `dvfs serve` — the online phase as a long-lived daemon. Loads the
/// trained models into a versioned [`ModelStore`] snapshot, binds the
/// server, prints `listening on ADDR` (so scripts can
/// discover an ephemeral port), and runs until a `shutdown` frame or
/// SIGINT/SIGTERM — both paths drain the request queue and fall through
/// to the ordinary `--metrics-out`/`--trace-out` exports in `main`.
fn cmd_serve(opts: &Flags) -> Result<(), CliError> {
    // Whole-daemon span: covers bind through drained shutdown, so the
    // exported metrics carry at least one span timing (like `batch`).
    obs::span!("serve");
    let backend = backend_for(opts)?;
    let models = load_models(opts)?;
    let workers = match usize_flag(opts, "workers", 0, 0)? {
        0 => std::thread::available_parallelism().map_or(2, usize::from),
        n => n,
    };
    let precision = match opts.get("precision") {
        Some(p) => nn::Precision::parse(p).ok_or_else(|| {
            CliError::Usage(format!("--precision `{p}` (expected f64, f32, or bf16)"))
        })?,
        None => nn::Precision::F64,
    };
    let config = ServeConfig {
        addr: opts
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:0".to_string()),
        workers,
        cache_capacity: usize_flag(opts, "capacity", 4096, 1)?,
        max_batch: usize_flag(opts, "max-batch", 32, 1)?,
        max_frame: gpu_dvfs::core::serve::DEFAULT_MAX_FRAME,
        telemetry_addr: flag::<u16>(opts, "telemetry-port")?
            .map(|port| format!("127.0.0.1:{port}")),
        slos: slos_for(opts)?,
        precision,
        journal: opts
            .get("journal-dir")
            .map(|dir| -> Result<obs::journal::JournalConfig, String> {
                let mut jc = obs::journal::JournalConfig::new(std::path::PathBuf::from(dir));
                jc.segment_bytes = usize_flag(opts, "journal-segment-kb", 4096, 1)? as u64 * 1024;
                jc.max_total_bytes = usize_flag(opts, "journal-budget-kb", 65536, 1)? as u64 * 1024;
                Ok(jc)
            })
            .transpose()?,
        ..ServeConfig::default()
    };
    let label = opts.get("models").cloned().unwrap_or_default();
    let store = std::sync::Arc::new(ModelStore::new(ModelSnapshot::with_precision(
        models,
        backend.spec().clone(),
        SnapshotMeta {
            label,
            dataset_rows: 0,
            train_seconds: 0.0,
        },
        precision,
    )));
    let server = Server::start(config, store).map_err(|e| CliError::Io(format!("serve: {e}")))?;
    // Port discovery lines — tests and check.sh read them from stdout.
    println!("listening on {}", server.local_addr());
    if let Some(taddr) = server.telemetry_addr() {
        println!("telemetry on {taddr}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // A signal stops the server as a `shutdown` frame does. Meanwhile
    // this thread blocks in join, which drains the queue and publishes
    // the final cache gauges.
    let io_err = |e: std::io::Error| CliError::Io(format!("serve: signal watcher: {e}"));
    interrupt::install().map_err(io_err)?;
    let stop = server.stop_handle();
    let watcher = std::thread::Builder::new()
        .name("serve-signals".into())
        .spawn(move || {
            if interrupt::wait(None) {
                obs::log!(Info, "serve: interrupt received, draining");
                stop.stop();
            }
        })
        .map_err(io_err)?;
    server.join();
    interrupt::wake();
    if watcher.join().is_err() {
        obs::log!(Warn, "serve: the signal watcher panicked");
    }
    let stats = obs::global();
    let served = stats.counter("serve.requests").get();
    let latency = stats.histogram("serve.request_ns");
    let us = |ns: u64| ns as f64 / 1e3;
    println!(
        "served {served} request(s); latency p50 {:.1} µs, p90 {:.1} µs, p99 {:.1} µs, \
         max {:.1} µs",
        us(latency.percentile(0.50)),
        us(latency.percentile(0.90)),
        us(latency.percentile(0.99)),
        us(latency.max())
    );
    Ok(())
}

/// `dvfs loadgen` — drives a running `dvfs serve` instance and reports
/// throughput + latency percentiles from the shared `loadgen.rtt_ns`
/// histogram.
fn cmd_loadgen(opts: &Flags) -> Result<(), CliError> {
    let addr: String = required(opts, "addr", "HOST:PORT")?;
    let pacing = match opts.get("mode").map(String::as_str).unwrap_or("closed") {
        "closed" => Pacing::Closed,
        "open" => {
            let rate_hz: f64 = flag(opts, "rate")?.ok_or_else(|| {
                CliError::Usage("--mode open requires --rate REQS_PER_SEC".into())
            })?;
            if !(rate_hz.is_finite() && rate_hz > 0.0) {
                return Err(CliError::Usage("--rate must be positive".into()));
            }
            Pacing::Open { rate_hz }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown --mode `{other}` (expected closed or open)"
            )))
        }
    };
    let zipf_s = flag(opts, "zipf")?.unwrap_or(1.0);
    if !(0.0..=10.0).contains(&zipf_s) {
        return Err(CliError::Usage("--zipf must lie in [0, 10]".into()));
    }
    let requests = flag(opts, "requests")?.unwrap_or(10_000);
    let config = LoadgenConfig {
        addr,
        connections: usize_flag(opts, "connections", 4, 1)?,
        requests,
        pacing,
        keys: usize_flag(opts, "keys", 64, 1)?,
        zipf_s,
        pipeline: usize_flag(opts, "pipeline", 1, 1)?,
        select_every: flag(opts, "select-every")?.unwrap_or(8),
        seed: flag(opts, "seed")?.unwrap_or(42),
        shutdown_after: opts.contains_key("shutdown"),
    };
    let report = gpu_dvfs::core::serve::loadgen::run(&config)
        .map_err(|e| CliError::Io(format!("loadgen: {e}")))?;
    if opts.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
    } else {
        println!(
            "{} ok / {} errors in {:.2} s -> {:.0} req/s",
            report.ok, report.errors, report.elapsed_s, report.qps
        );
        println!(
            "rtt: p50 {:.1} µs, p90 {:.1} µs, p99 {:.1} µs, max {:.1} µs",
            report.p50_us, report.p90_us, report.p99_us, report.max_us
        );
    }
    Ok(())
}

/// `dvfs scrape` — one-shot HTTP GET against a server's telemetry port;
/// prints the body (the Prometheus exposition for `/metrics`) verbatim.
fn cmd_scrape(opts: &Flags) -> Result<(), CliError> {
    let addr: String = required(opts, "addr", "HOST:PORT")?;
    let path = opts.get("path").map(String::as_str).unwrap_or("/metrics");
    let (status, body) = gpu_dvfs::core::serve::http_get(&addr, path)
        .map_err(|e| CliError::Io(format!("scrape {addr}{path}: {e}")))?;
    if status != 200 {
        return Err(CliError::Io(format!(
            "scrape {addr}{path}: HTTP {status}\n{body}"
        )));
    }
    print!("{body}");
    Ok(())
}

/// `dvfs top` — terminal dashboard over a running server's `stats`
/// frame. Polls every `--interval` seconds with a full-screen redraw;
/// `--once` prints a single sample, `--json` emits the raw frame.
fn cmd_top(opts: &Flags) -> Result<(), CliError> {
    use gpu_dvfs::core::serve::{Client, Request};

    let addr: String = required(opts, "addr", "HOST:PORT")?;
    let once = opts.contains_key("once");
    let json = opts.contains_key("json");
    let interval = std::time::Duration::from_secs_f64(f64_flag(opts, "interval", 2.0)?);

    interrupt::install().map_err(|e| CliError::Io(format!("top: {e}")))?;
    let mut client =
        Client::connect(&addr).map_err(|e| CliError::Io(format!("top: connect {addr}: {e}")))?;
    loop {
        let resp = client
            .call(&Request::stats())
            .map_err(|e| CliError::Io(format!("top: {addr}: {e}")))?;
        if !resp.ok {
            return Err(CliError::Io(format!(
                "top: server error: {}",
                resp.error.as_deref().unwrap_or("unknown")
            )));
        }
        if json {
            println!(
                "{}",
                serde_json::to_string(&resp).expect("stats frame serializes")
            );
        } else {
            if !once {
                // Full-screen redraw: clear + home, like watch(1).
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render_top(&addr, &resp));
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        if once {
            return Ok(());
        }
        if interrupt::wait(Some(interval)) {
            println!();
            return Ok(());
        }
    }
}

/// Formats one dashboard screen from a stats frame.
fn render_top(addr: &str, resp: &gpu_dvfs::core::serve::Response) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, "dvfs top — {addr}    snapshot v{:.0}", resp.version);
    if let Some(s) = &resp.server {
        let _ = writeln!(
            out,
            "uptime {:.1} s    build {} ({})    precision {}",
            s.uptime_s, s.build_version, s.build_git, s.precision
        );
        let _ = writeln!(
            out,
            "window {:.0} s: {:.1} req/s    p50 {:.1} µs    p99 {:.1} µs    hit rate {:.1}%",
            s.window_s,
            s.qps,
            s.p50_us,
            s.p99_us,
            100.0 * s.hit_rate
        );
        if !s.slo.is_empty() {
            let _ = writeln!(out, "slo:");
            for slo in &s.slo {
                let _ = writeln!(
                    out,
                    "  {:<14} target {:>7.3}%  burn {:>6.2}/{:<6.2} {}  alerts {:.0}",
                    slo.name,
                    100.0 * slo.target,
                    slo.burn_fast,
                    slo.burn_slow,
                    if slo.firing { "FIRING" } else { "ok    " },
                    slo.alerts
                );
            }
        }
        if !s.quality.is_empty() {
            let _ = writeln!(out, "quality:");
            for q in &s.quality {
                let _ = writeln!(
                    out,
                    "  {:<8} mape {:>6.2}%  max {:>6.2}%  samples {:.0}  alerts {:.0}{}",
                    q.model,
                    q.mape,
                    q.max_ape,
                    q.samples,
                    q.alerts,
                    if q.above_band { "  ABOVE BAND" } else { "" }
                );
            }
        }
    }
    if let Some(s) = &resp.server {
        let e = &s.energy;
        let _ = writeln!(
            out,
            "energy: {:.1} J predicted saved over {:.0} decision(s)    \
             window {:.3} W saved    journal {:.0} appended / {:.0} dropped",
            e.predicted_joules_saved,
            e.decisions,
            e.window_watts_saved,
            e.journal_appended,
            e.journal_dropped
        );
    }
    if let Some(c) = &resp.stats {
        let _ = writeln!(
            out,
            "cache: {:.0} lookups ({:.0} hits / {:.0} misses, {:.1}% lifetime), \
             {:.0} evictions, {:.0} resident across {:.0} shards",
            c.lookups,
            c.hits,
            c.misses,
            100.0 * c.hit_rate,
            c.evictions,
            c.resident,
            c.shards
        );
    }
    out
}

/// `dvfs journal` — offline inspection of a decision journal. The
/// default summary reads the segment chain (CRC-validating every
/// record) and aggregates the decoded decisions; `--export` (and
/// `--tail N`) emit one JSON line per decision for scripting, after the
/// `--workload`/`--cmd`/`--version` filters.
fn cmd_journal(opts: &Flags) -> Result<(), CliError> {
    use gpu_dvfs::core::serve::DecisionRecord;

    let dir: String = required(opts, "dir", "DIR")?;
    let path = std::path::Path::new(&dir);
    let cmd_filter = match opts.get("cmd").map(String::as_str) {
        None => None,
        Some("select") => Some(true),
        Some("predict") => Some(false),
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown --cmd `{other}` (expected predict or select)"
            )))
        }
    };
    let version_filter: Option<u64> = flag(opts, "version")?;
    let limit: Option<usize> = flag(opts, "limit")?;
    let tail: Option<usize> = flag(opts, "tail")?;
    let workload_filter = opts.get("workload");
    let export = opts.contains_key("export") || tail.is_some();

    let scan = obs::journal::scan_dir(path).map_err(|e| CliError::Io(format!("{dir}: {e}")))?;
    let records =
        obs::journal::read_records(path).map_err(|e| CliError::Io(format!("{dir}: {e}")))?;
    let mut undecodable = 0u64;
    let mut decisions: Vec<(u64, u64, DecisionRecord)> = Vec::new();
    for r in &records {
        match DecisionRecord::decode(&r.body) {
            Some(d) => decisions.push((r.seq, r.ts_ns, d)),
            None => undecodable += 1,
        }
    }
    decisions.retain(|(_, _, d)| {
        if let Some(w) = workload_filter {
            if d.workload != *w {
                return false;
            }
        }
        if let Some(s) = cmd_filter {
            if d.select != s {
                return false;
            }
        }
        if let Some(v) = version_filter {
            if d.version != v {
                return false;
            }
        }
        true
    });
    if let Some(n) = tail {
        if decisions.len() > n {
            decisions.drain(..decisions.len() - n);
        }
    }
    if let Some(n) = limit {
        decisions.truncate(n);
    }

    if export {
        use std::io::Write as _;
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for (seq, ts_ns, d) in &decisions {
            if let Err(e) = writeln!(out, "{}", d.export_line(*seq, *ts_ns)) {
                // A downstream `head`/`jq` closing the pipe early is a
                // normal way to consume the export, not an error.
                if e.kind() == std::io::ErrorKind::BrokenPipe {
                    return Ok(());
                }
                return Err(CliError::Io(format!("stdout: {e}")));
            }
        }
        return Ok(());
    }

    let selects = decisions.iter().filter(|(_, _, d)| d.select).count();
    let joules: f64 = decisions.iter().map(|(_, _, d)| d.joules_saved()).sum();
    let mut versions: Vec<u64> = decisions.iter().map(|(_, _, d)| d.version).collect();
    versions.sort_unstable();
    versions.dedup();
    println!(
        "journal in {dir}: {} segment(s), {} record(s), {} valid bytes ({} torn), last seq {}",
        scan.segments, scan.records, scan.valid_bytes, scan.torn_bytes, scan.last_seq
    );
    println!(
        "decisions: {} decoded ({selects} select / {} predict, {undecodable} undecodable)",
        decisions.len(),
        decisions.len() - selects
    );
    println!(
        "versions: {}",
        if versions.is_empty() {
            "none".to_string()
        } else {
            versions
                .iter()
                .map(|v| format!("v{v}"))
                .collect::<Vec<_>>()
                .join(", ")
        }
    );
    println!("predicted energy saved: {joules:.1} J over {selects} select decision(s)");
    if let (Some((_, first, _)), Some((_, last, _))) = (decisions.first(), decisions.last()) {
        println!(
            "span: {:.3} s of serving",
            last.saturating_sub(*first) as f64 / 1e9
        );
    }
    Ok(())
}

/// `dvfs replay` — deterministic replay of a decision journal through a
/// model snapshot. With the weights the journal was served from, every
/// decision must reproduce bitwise; any divergence exits 3 after
/// printing the first few mismatches and the recorded-vs-replayed MAPE
/// (the drift signal when the weights differ on purpose).
fn cmd_replay(opts: &Flags) -> Result<(), CliError> {
    let dir: String = required(opts, "dir", "DIR")?;
    let backend = backend_for(opts)?;
    let models = load_models(opts)?;
    let limit: Option<usize> = flag(opts, "limit")?;
    let mut records = obs::journal::read_records(std::path::Path::new(&dir))
        .map_err(|e| CliError::Io(format!("{dir}: {e}")))?;
    if let Some(n) = limit {
        records.truncate(n);
    }
    let snapshot = ModelSnapshot::new(
        models,
        backend.spec().clone(),
        SnapshotMeta {
            label: opts.get("models").cloned().unwrap_or_default(),
            dataset_rows: 0,
            train_seconds: 0.0,
        },
    );
    let report = gpu_dvfs::core::serve::journal::replay(&records, &snapshot);
    let versions = report
        .versions
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",");
    if opts.contains_key("json") {
        println!(
            "{{\"records\":{},\"undecodable\":{},\"decisions\":{},\"divergent\":{},\
             \"energy_mape\":{},\"time_mape\":{},\"recorded_joules_saved\":{},\
             \"replayed_joules_saved\":{},\"versions\":[{versions}]}}",
            report.records,
            report.undecodable,
            report.decisions,
            report.divergent,
            report.energy_mape,
            report.time_mape,
            report.recorded_joules_saved,
            report.replayed_joules_saved,
        );
    } else {
        println!(
            "replayed {} record(s) ({} select decision(s), {} undecodable) from {dir}",
            report.records, report.decisions, report.undecodable
        );
        println!(
            "journal versions [{versions}] vs snapshot v{}",
            snapshot.version
        );
        println!(
            "divergent: {} of {}; recorded-vs-replayed MAPE: energy {:.4}%, time {:.4}%",
            report.divergent, report.records, report.energy_mape, report.time_mape
        );
        println!(
            "predicted joules saved: recorded {:.1} J, replayed {:.1} J",
            report.recorded_joules_saved, report.replayed_joules_saved
        );
        for d in &report.divergences {
            println!(
                "  seq {} {}: {} recorded {} replayed {}",
                d.seq, d.workload, d.field, d.recorded, d.replayed
            );
        }
    }
    if report.divergent > 0 {
        return Err(CliError::Io(format!(
            "replay: {} divergent decision(s)",
            report.divergent
        )));
    }
    Ok(())
}

fn cmd_apps(_: &Flags) -> Result<(), CliError> {
    println!("built-in application models (paper Table 2, evaluation set):");
    let spec = DeviceSpec::ga100();
    for app in gpu_dvfs::kernels::apps::evaluation_apps() {
        let t = app.exec_time(&spec, spec.max_core_mhz);
        let p = app.power(&spec, spec.max_core_mhz);
        println!(
            "  {:<10} {:>5.1}s @ f_max, {:>5.0} W, {} phases",
            app.name,
            t,
            p,
            app.phases.len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags_builds_map() {
        let args: Vec<String> = ["--arch", "gv100", "--stride", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let m = parse_flags(&args).unwrap();
        assert_eq!(m["arch"], "gv100");
        assert_eq!(m["stride"], "3");
    }

    #[test]
    fn parse_flags_rejects_bare_values_and_missing_values() {
        assert!(parse_flags(&["oops".to_string()]).is_err());
        assert!(parse_flags(&["--arch".to_string()]).is_err());
    }

    #[test]
    fn parse_flags_accepts_inline_values_and_bare_metrics() {
        let args: Vec<String> = ["--metrics=json", "--stride=3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let m = parse_flags(&args).unwrap();
        assert_eq!(m["metrics"], "json");
        assert_eq!(m["stride"], "3");

        // Bare `--metrics` defaults to the table and leaves the following
        // flag intact rather than swallowing it as a value.
        let args: Vec<String> = ["--metrics", "--requests", "8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let m = parse_flags(&args).unwrap();
        assert_eq!(m["metrics"], "table");
        assert_eq!(m["requests"], "8");
    }

    #[test]
    fn metrics_format_is_validated() {
        let mut m = HashMap::new();
        assert_eq!(metrics_format(&m).unwrap(), None);
        m.insert("metrics".to_string(), "json".to_string());
        assert_eq!(metrics_format(&m).unwrap(), Some("json"));
        m.insert("metrics".to_string(), "table".to_string());
        assert_eq!(metrics_format(&m).unwrap(), Some("table"));
        m.insert("metrics".to_string(), "xml".to_string());
        assert!(metrics_format(&m).is_err());
    }

    #[test]
    fn backend_selection() {
        let mut m = HashMap::new();
        assert_eq!(backend_for(&m).unwrap().spec().tdp_w, 500.0);
        m.insert("arch".to_string(), "gv100".to_string());
        assert_eq!(backend_for(&m).unwrap().spec().tdp_w, 250.0);
        m.insert("arch".to_string(), "h100".to_string());
        assert!(backend_for(&m).is_err());
    }

    #[test]
    fn stride_validation() {
        let stride = |m: &Flags| usize_flag(m, "stride", 1, 1);
        let mut m = HashMap::new();
        assert_eq!(stride(&m).unwrap(), 1);
        m.insert("stride".to_string(), "0".to_string());
        assert_eq!(stride(&m).unwrap_err(), "--stride must be >= 1");
        m.insert("stride".to_string(), "abc".to_string());
        assert!(stride(&m).unwrap_err().starts_with("--stride: "));
    }

    #[test]
    fn threads_validation() {
        let mut m = HashMap::new();
        assert_eq!(flag::<usize>(&m, "threads").unwrap(), None);
        m.insert("threads".to_string(), "4".to_string());
        assert_eq!(flag::<usize>(&m, "threads").unwrap(), Some(4));
        m.insert("threads".to_string(), "0".to_string());
        assert_eq!(flag::<usize>(&m, "threads").unwrap(), Some(0));
        m.insert("threads".to_string(), "abc".to_string());
        assert!(flag::<usize>(&m, "threads").is_err());
        assert_eq!(
            required::<String>(&m, "models", "models.json").unwrap_err(),
            "--models models.json is required"
        );
    }

    /// `USAGE` and `COMMANDS` are the only flag lists: every flag a
    /// command reads must appear in that command's usage entry, and the
    /// global flags in the footer.
    #[test]
    fn every_table_flag_appears_in_usage() {
        let mentions = |text: &str, flag: &str| {
            let pat = format!("--{flag}");
            text.match_indices(&pat).any(|(i, _)| {
                !text[i + pat.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
            })
        };
        for flag in GLOBAL_FLAGS.split_whitespace() {
            assert!(mentions(USAGE, flag), "USAGE never mentions --{flag}");
        }
        for &Command(name, _, flags) in COMMANDS.iter().filter(|c| c.0 != "help") {
            let head = format!("  dvfs {name} ");
            let start = USAGE
                .find(&head)
                .unwrap_or_else(|| panic!("USAGE has no `dvfs {name}` entry"));
            let entry = &USAGE[start + head.len()..];
            let entry = &entry[..entry.find("\n  dvfs ").unwrap_or(entry.len())];
            for flag in flags.split_whitespace() {
                assert!(
                    mentions(entry, flag),
                    "USAGE for `dvfs {name}` omits --{flag}"
                );
            }
        }
    }

    #[test]
    fn app_lookup_is_case_insensitive() {
        let mut m = HashMap::new();
        m.insert("app".to_string(), "resnet50".to_string());
        assert_eq!(app_for(&m).unwrap().name, "ResNet50");
        m.insert("app".to_string(), "nonesuch".to_string());
        assert!(app_for(&m).is_err());
    }
}
