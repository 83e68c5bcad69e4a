//! The `dvfs` CLI must emit its telemetry (metrics snapshot, flight-recorder
//! trace) on *both* exit paths. A failing run is exactly when the operator
//! needs the instrumentation, and an early version of `main` dropped it by
//! chaining the exports behind the command result with `and_then`.
//!
//! Also pins the exit-code contract (0 ok, 2 usage/validation, 3 I/O or
//! config) and the `dvfs serve` lifecycle: a shutdown frame must drain
//! in-flight requests and still land the telemetry exports; a shutdown
//! frame or SIGTERM ends the daemon promptly with a connection idle; an
//! idle daemon sleeps, yet answers a new connection at once; and each
//! connection whose requests run on its own handler thread grows the
//! daemon by a bounded amount.

use std::collections::HashMap;
use std::io::{BufRead, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Exit code for usage / validation errors (bad flags, unknown commands).
const EXIT_USAGE: i32 = 2;
/// Exit code for I/O and config errors (unreadable files, failed binds).
const EXIT_IO: i32 = 3;

fn dvfs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dvfs"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dvfs-cli-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A structurally minimal check that `path` holds the expected JSON shape
/// (full validation lives in the `validate_trace` example and the obs
/// crate's own tests — here we only care that the export *happened*).
fn assert_json_with_key(path: &Path, key: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: telemetry file not written: {e}", path.display()));
    assert!(
        text.contains(key),
        "{}: expected key `{key}` in export, got: {}",
        path.display(),
        &text[..text.len().min(200)]
    );
    serde_json::from_str::<serde_json::Value>(&text)
        .unwrap_or_else(|e| panic!("{}: export is not valid JSON: {e}", path.display()));
}

#[test]
fn failing_command_still_exports_metrics_and_trace() {
    let metrics = tmp("fail_metrics.json");
    let trace = tmp("fail_trace.json");
    // `predict` without `--models` fails after flag parsing, once the
    // instrumentation globals are live.
    let out = dvfs()
        .args([
            "predict",
            "--app",
            "lammps",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn dvfs");
    assert!(
        !out.status.success(),
        "predict without --models must exit non-zero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--models"),
        "stderr should name the missing flag, got: {stderr}"
    );
    assert_json_with_key(&metrics, "counters");
    assert_json_with_key(&trace, "traceEvents");
}

#[test]
fn successful_command_exports_metrics_and_trace() {
    let metrics = tmp("ok_metrics.json");
    let trace = tmp("ok_trace.json");
    let out = dvfs()
        .args([
            "apps",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn dvfs");
    assert!(
        out.status.success(),
        "apps failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_json_with_key(&metrics, "counters");
    assert_json_with_key(&trace, "traceEvents");
}

#[test]
fn unknown_command_exits_nonzero_with_usage_error() {
    let out = dvfs().arg("frobnicate").output().expect("spawn dvfs");
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn exit_codes_distinguish_usage_from_io() {
    // Missing required flag: the operator typed the command wrong — usage.
    let out = dvfs()
        .args(["predict", "--app", "lammps"])
        .output()
        .expect("spawn dvfs");
    assert_eq!(
        out.status.code(),
        Some(EXIT_USAGE),
        "missing --models is a usage error: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The flag is right but the file isn't there — I/O, so a retry loop
    // or wrapper script can tell the two apart.
    let out = dvfs()
        .args([
            "predict",
            "--app",
            "lammps",
            "--models",
            "/nonexistent/m.json",
        ])
        .output()
        .expect("spawn dvfs");
    assert_eq!(
        out.status.code(),
        Some(EXIT_IO),
        "unreadable models file is an I/O error: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // loadgen against a port nobody listens on: connect failure is I/O.
    let out = dvfs()
        .args(["loadgen", "--addr", "127.0.0.1:1", "--requests", "1"])
        .output()
        .expect("spawn dvfs");
    assert_eq!(
        out.status.code(),
        Some(EXIT_IO),
        "connection-refused is an I/O error: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // loadgen without --addr never touches the network — usage.
    let out = dvfs().arg("loadgen").output().expect("spawn dvfs");
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
}

#[test]
fn flags_a_command_does_not_take_are_usage_errors() {
    // A typo must not run with the default it meant to override, and
    // `serve` derives its cache shards from `--workers`, so `--shards`
    // must not look accepted.
    for args in [
        ["batch", "--capacty", "8"],
        ["serve", "--shards", "8"],
        ["apps", "--bogus", "1"],
    ] {
        let out = dvfs().args(args).output().expect("spawn dvfs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "{args:?}: {stderr}");
        let expected = format!("`dvfs {}` does not take {}", args[0], args[1]);
        assert!(stderr.contains(&expected), "{args:?}: {stderr}");
    }
}

/// Trains a deliberately tiny model pair in-process and writes it where
/// `dvfs serve --models` can load it — debug-mode `dvfs train` would
/// dominate the test's runtime.
fn write_tiny_models(path: &Path) {
    use gpu_dvfs::gpu::{DeviceSpec, DvfsGrid, NoiseModel, SignatureBuilder};
    use gpu_dvfs::prelude::{Dataset, PowerTimeModels};

    let spec = DeviceSpec::ga100();
    let nm = NoiseModel::default_bench();
    let sigs = [
        SignatureBuilder::new("c").flops(2e13).bytes(2e11).build(),
        SignatureBuilder::new("m").flops(2e11).bytes(2e13).build(),
    ];
    let grid = DvfsGrid::for_spec(&spec);
    let mut samples = Vec::new();
    for sig in &sigs {
        for &f in grid.used().iter().step_by(8) {
            samples.push(gpu_dvfs::gpu::sample::measure(&spec, sig, f, 0, &nm));
        }
        samples.push(gpu_dvfs::gpu::sample::measure(
            &spec,
            sig,
            spec.max_core_mhz,
            0,
            &nm,
        ));
    }
    let models = PowerTimeModels::train(&Dataset::from_samples(&spec, &samples).unwrap());
    std::fs::write(path, models.to_json()).unwrap();
}

#[test]
fn serve_shutdown_frame_drains_requests_and_exports_telemetry() {
    use gpu_dvfs::core::serve::{Client, Request};

    let models = tmp("serve_models.json");
    let metrics = tmp("serve_metrics.json");
    let trace = tmp("serve_trace.json");
    write_tiny_models(&models);

    let mut child = dvfs()
        .args([
            "serve",
            "--models",
            models.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dvfs serve");

    // The daemon prints `listening on ADDR` once bound — the ephemeral
    // port discovery contract scripts rely on.
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            stdout.read_line(&mut line).unwrap(),
            0,
            "serve exited before printing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };

    let mut client = Client::connect(&addr).expect("connect");
    for i in 0..16 {
        let fp = 0.1 + 0.05 * f64::from(i);
        let resp = client
            .call(&Request::predict("smoke", fp.min(0.95), 0.3, 2.5e-3))
            .expect("predict round-trip");
        assert!(resp.ok, "predict failed: {:?}", resp.error);
        assert!(resp.profile.is_some());
    }
    let resp = client.call(&Request::shutdown()).expect("shutdown ack");
    assert!(resp.ok);

    let status = child.wait().expect("wait for serve");
    assert_eq!(
        status.code(),
        Some(0),
        "serve must exit cleanly after a shutdown frame"
    );

    // Telemetry drained on the way out: the metrics snapshot carries the
    // served-latency histogram and the trace the per-request events.
    assert_json_with_key(&metrics, "serve.request_ns");
    assert_json_with_key(&trace, "serve.request");
    let text = std::fs::read_to_string(&metrics).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
    let served = parsed
        .get("counters")
        .and_then(|c| c.get("serve.requests"))
        .and_then(serde_json::Value::as_f64)
        .expect("serve.requests counter exported");
    assert!(served >= 16.0, "all requests counted, got {served}");
}

/// The observability plane end to end through the CLI: serve with a
/// telemetry port, scrape it over HTTP, and read the dashboard via
/// `dvfs top --once` in both JSON and plain-text form.
#[test]
fn serve_telemetry_port_scrape_and_top_work_end_to_end() {
    use gpu_dvfs::core::serve::{Client, Request};

    let models = tmp("obs_models.json");
    write_tiny_models(&models);

    let mut child = dvfs()
        .args([
            "serve",
            "--models",
            models.to_str().unwrap(),
            "--telemetry-port",
            "0",
        ])
        // Fast sampler ticks so the rolling window fills quickly.
        .env("DVFS_TS_INTERVAL", "0.05")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dvfs serve");

    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let (mut addr, mut taddr) = (None, None);
    while addr.is_none() || taddr.is_none() {
        let mut line = String::new();
        assert_ne!(
            stdout.read_line(&mut line).unwrap(),
            0,
            "serve exited before printing its addresses"
        );
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            addr = Some(rest.to_string());
        } else if let Some(rest) = line.trim().strip_prefix("telemetry on ") {
            taddr = Some(rest.to_string());
        }
    }
    let (addr, taddr) = (addr.unwrap(), taddr.unwrap());

    let mut client = Client::connect(&addr).expect("connect");
    for i in 0..24 {
        let fp = (0.05 + 0.03 * f64::from(i)).min(0.95);
        assert!(
            client
                .call(&Request::predict("obs", fp, 0.4, 2.0))
                .unwrap()
                .ok
        );
    }
    // Two sampler ticks so the window has a base and a tip.
    std::thread::sleep(std::time::Duration::from_millis(150));

    // `dvfs scrape` fetches a parseable Prometheus document.
    let out = dvfs()
        .args(["scrape", "--addr", &taddr])
        .output()
        .expect("spawn dvfs scrape");
    assert!(
        out.status.success(),
        "scrape failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let exposition = String::from_utf8(out.stdout).unwrap();
    let parsed = obs::prom::parse(&exposition)
        .unwrap_or_else(|e| panic!("scraped exposition rejected: {e}"));
    assert!(parsed.counters.get("serve_requests").copied().unwrap_or(0) >= 24);
    assert!(parsed.histograms.contains_key("serve_request_ns"));
    assert!(parsed.infos.contains_key("dvfs_build_info"));
    // The three stock SLOs export burn gauges and alert counters.
    for slo in ["latency_p99", "availability", "quality_mape"] {
        assert!(
            parsed.gauges.contains_key(&format!("slo_{slo}_burn_fast")),
            "missing burn gauge for {slo}"
        );
        assert!(
            parsed.counters.contains_key(&format!("slo_{slo}_alerts")),
            "missing alert counter for {slo}"
        );
    }

    // A bad path is a clean I/O error, not a hang or a panic.
    let out = dvfs()
        .args(["scrape", "--addr", &taddr, "--path", "/nope"])
        .output()
        .expect("spawn dvfs scrape");
    assert_eq!(out.status.code(), Some(EXIT_IO));

    // `dvfs top --once --json` emits the full stats frame for scripts.
    let out = dvfs()
        .args(["top", "--addr", &addr, "--once", "--json"])
        .output()
        .expect("spawn dvfs top");
    assert!(
        out.status.success(),
        "top failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let frame: serde_json::Value =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).expect("top --json parses");
    let server = frame.get("server").expect("server section");
    for key in [
        "uptime_s",
        "qps",
        "p50_us",
        "p99_us",
        "hit_rate",
        "build_version",
    ] {
        assert!(server.get(key).is_some(), "top --json missing server.{key}");
    }
    assert!(frame.get("version").and_then(serde_json::Value::as_f64) == Some(1.0));
    let slos = server
        .get("slo")
        .and_then(serde_json::Value::as_array)
        .unwrap();
    assert_eq!(slos.len(), 3);
    // The window saw real traffic through the fast sampler ticks.
    assert!(
        server
            .get("qps")
            .and_then(serde_json::Value::as_f64)
            .unwrap()
            >= 0.0
    );

    // Plain-text `--once` renders the dashboard headline.
    let out = dvfs()
        .args(["top", "--addr", &addr, "--once"])
        .output()
        .expect("spawn dvfs top");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("dvfs top"), "missing headline: {text}");
    assert!(text.contains("hit rate"), "missing window line: {text}");
    assert!(text.contains("latency_p99"), "missing SLO table: {text}");

    let resp = client.call(&Request::shutdown()).expect("shutdown ack");
    assert!(resp.ok);
    assert_eq!(child.wait().expect("wait").code(), Some(0));
}

/// Tiny models written once for the daemon lifecycle tests below.
fn shared_tiny_models() -> &'static Path {
    static MODELS: OnceLock<PathBuf> = OnceLock::new();
    MODELS.get_or_init(|| {
        let path = tmp("lifecycle_models.json");
        write_tiny_models(&path);
        path
    })
}

/// A `dvfs serve` child on tiny models, started with its default flags
/// plus `args` and with `DVFS_TS_INTERVAL` unset. Killed on drop if it
/// is still running.
struct Daemon {
    child: Child,
    /// Held open: the daemon prints a summary line on its way out.
    _stdout: std::io::BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start(args: &[&str]) -> Daemon {
        let mut child = dvfs()
            .arg("serve")
            .arg("--models")
            .arg(shared_tiny_models())
            .args(args)
            .env_remove("DVFS_TS_INTERVAL")
            .env("DVFS_LOG", "warn")
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dvfs serve");
        let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
        let addr = loop {
            let mut line = String::new();
            assert_ne!(
                stdout.read_line(&mut line).unwrap(),
                0,
                "serve exited before printing its address"
            );
            if let Some(rest) = line.trim().strip_prefix("listening on ") {
                break rest.to_string();
            }
        };
        Daemon {
            child,
            _stdout: stdout,
            addr,
        }
    }

    /// A connection whose handler is known to be up (it answered a ping).
    fn connect(&self) -> gpu_dvfs::core::serve::Client {
        let mut client = gpu_dvfs::core::serve::Client::connect(&self.addr).expect("connect");
        let resp = client
            .call(&gpu_dvfs::core::serve::Request::ping())
            .expect("ping");
        assert!(resp.ok, "ping failed: {:?}", resp.error);
        client
    }

    /// Waits for the daemon to exit, for at most `limit`, and returns its
    /// exit code.
    fn exit_code_within(&mut self, limit: Duration) -> Option<i32> {
        let t0 = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("poll dvfs serve") {
                return status.code();
            }
            assert!(
                t0.elapsed() < limit,
                "dvfs serve still running {limit:?} after it was told to stop"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `(name, voluntary context switches)` of every thread of process `pid`,
/// by thread id.
fn voluntary_switches(pid: u32) -> HashMap<String, (String, u64)> {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("/proc lists the daemon's threads")
        .filter_map(|task| {
            let task = task.ok()?;
            let status = std::fs::read_to_string(task.path().join("status")).ok()?;
            let field = |key: &str| {
                status
                    .lines()
                    .find_map(|l| l.strip_prefix(key))
                    .map(|v| v.trim().to_string())
            };
            let name = field("Name:")?;
            let switches = field("voluntary_ctxt_switches:")?.parse().ok()?;
            Some((
                task.file_name().to_string_lossy().into_owned(),
                (name, switches),
            ))
        })
        .collect()
}

/// An idle daemon's threads block on their events instead of polling:
/// over a second with one connection open and no traffic, every thread
/// (the main thread, the signal watcher, the acceptor, the workers, the
/// connection's handler and the sampler at its default 1 s interval)
/// blocks and wakes at most twice.
#[test]
fn an_idle_daemon_leaves_its_serving_threads_asleep() {
    let mut daemon = Daemon::start(&[]);
    let mut idle = daemon.connect();
    // Let the handler block in its read and the sampler take its first
    // tick.
    std::thread::sleep(Duration::from_millis(300));
    let pid = daemon.child.id();
    let before = voluntary_switches(pid);
    std::thread::sleep(Duration::from_secs(1));
    let after = voluntary_switches(pid);
    let mut watched = Vec::new();
    for (tid, (name, then)) in &before {
        let now = after.get(tid).map_or(*then, |(_, n)| *n);
        watched.push(name.clone());
        assert!(
            now - then <= 2,
            "{name} (tid {tid}) blocked {} times in 1 s with no traffic",
            now - then
        );
    }
    for name in [
        "dvfs",
        "serve-signals",
        "serve-acceptor",
        "serve-worker-0",
        "serve-conn",
        "obs-sampler",
    ] {
        assert!(
            watched.iter().any(|w| w == name),
            "no {name} thread among {watched:?}"
        );
    }
    let resp = idle
        .call(&gpu_dvfs::core::serve::Request::shutdown())
        .expect("shutdown ack");
    assert!(resp.ok);
    assert_eq!(daemon.exit_code_within(Duration::from_secs(2)), Some(0));
}

/// A new connection to an idle daemon is accepted at once: the time from
/// `connect` to the first `ping` reply has a median under 10 ms, which
/// an acceptor that sleeps between polls would miss.
#[test]
fn a_new_connection_to_an_idle_daemon_is_answered_at_once() {
    let mut daemon = Daemon::start(&[]);
    let mut firsts: Vec<Duration> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            drop(daemon.connect());
            t0.elapsed()
        })
        .collect();
    firsts.sort();
    let median = firsts[firsts.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "connect to first ping reply: median {median:?} over {firsts:?}"
    );
    let resp = daemon
        .connect()
        .call(&gpu_dvfs::core::serve::Request::shutdown())
        .expect("shutdown ack");
    assert!(resp.ok);
    assert_eq!(daemon.exit_code_within(Duration::from_secs(2)), Some(0));
}

/// VmRSS of process `pid`, kB.
fn vm_rss_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .expect("/proc has the daemon's status")
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status carries VmRSS")
}

/// A connection's bursts run on its own handler thread, so that thread
/// must not keep its own copy of the inference scratch. 64 connections,
/// held open, each send 4 unseen-application `select`s one frame at a
/// time, so each runs a full engine sweep inline; the daemon's VmRSS may
/// grow by at most 96 kB per connection over the one-connection
/// baseline. Scratch kept per thread measured ~194 kB per connection.
#[cfg(target_os = "linux")]
#[test]
fn connections_served_inline_grow_the_daemon_by_a_bounded_amount() {
    use gpu_dvfs::core::serve::{Client, Request};

    const CONNECTIONS: u32 = 64;
    const MAX_KB_PER_CONNECTION: f64 = 96.0;
    let mut daemon = Daemon::start(&[]);
    let pid = daemon.child.id();
    let mut point = 0u32;
    // Each request a never-seen 1e-3 activity bucket.
    let mut serve_unseen = |client: &mut Client| {
        for _ in 0..4 {
            point += 1;
            let fp = 0.05 + f64::from(point) * 0.0031;
            let dram = 0.95 - f64::from(point) * 0.0017;
            let req = Request::select("unseen", fp, dram, 2.0, "edp", Some(0.05));
            let resp = client.call(&req).expect("select round-trip");
            assert!(resp.ok, "select failed: {:?}", resp.error);
        }
    };
    let mut clients = vec![daemon.connect()];
    serve_unseen(&mut clients[0]);
    let baseline = vm_rss_kb(pid);
    for _ in 1..CONNECTIONS {
        let mut client = daemon.connect();
        serve_unseen(&mut client);
        clients.push(client);
    }
    let grown = vm_rss_kb(pid).saturating_sub(baseline);
    let per_connection = grown as f64 / f64::from(CONNECTIONS - 1);
    assert!(
        per_connection <= MAX_KB_PER_CONNECTION,
        "VmRSS grew {grown} kB over {} connections ({per_connection:.1} kB each) \
         from a {baseline} kB baseline",
        CONNECTIONS - 1
    );
    let resp = clients[0].call(&Request::shutdown()).expect("shutdown ack");
    assert!(resp.ok);
    assert_eq!(daemon.exit_code_within(Duration::from_secs(5)), Some(0));
}

/// How a lifecycle test stops the daemon.
#[derive(Debug, Clone, Copy)]
enum StopBy {
    Frame,
    Sigterm,
}

/// Sends SIGTERM to `pid`.
fn sigterm(pid: u32) {
    extern "C" {
        fn kill(pid: i32, signum: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: kill(2) takes two integers and touches no memory of ours.
    let rc = unsafe { kill(pid as i32, SIGTERM) };
    assert_eq!(rc, 0, "kill(SIGTERM) failed");
}

/// Stops a daemon that serves a telemetry port while one connection sits
/// idle and another has a pipelined burst in flight: the daemon must
/// exit cleanly within 2 s, every request of the burst must be answered,
/// and the idle client must read EOF.
fn stop_ends_the_daemon_promptly(stop_by: StopBy) {
    use gpu_dvfs::core::serve::Request;

    let mut daemon = Daemon::start(&["--telemetry-port", "0"]);
    let mut idle = daemon.connect();
    let mut busy = daemon.connect();
    // Distinct keys, so each request pays for its own sweep and the burst
    // is still being answered when the stop arrives.
    let payloads: Vec<String> = (0..64)
        .map(|i| {
            let fp = 0.05 + 0.014 * f64::from(i);
            serde_json::to_string(&Request::predict("burst", fp, 0.4, 2.0)).unwrap()
        })
        .collect();
    let frames: Vec<&[u8]> = payloads.iter().map(|p| p.as_bytes()).collect();
    // Both handlers block in their reads before the burst arrives.
    std::thread::sleep(Duration::from_millis(50));
    busy.send_frames(&frames).expect("send the burst");
    // The burst reaches the daemon before the stop does.
    std::thread::sleep(Duration::from_millis(5));
    match stop_by {
        StopBy::Frame => {
            let resp = daemon.connect().call(&Request::shutdown()).expect("ack");
            assert!(resp.ok);
        }
        StopBy::Sigterm => sigterm(daemon.child.id()),
    }
    for i in 0..payloads.len() {
        let resp = busy
            .read_response()
            .unwrap_or_else(|e| panic!("{stop_by:?}: burst reply {i} lost: {e}"));
        assert!(resp.ok, "{stop_by:?}: burst reply {i}: {:?}", resp.error);
    }
    assert_eq!(
        daemon.exit_code_within(Duration::from_secs(2)),
        Some(0),
        "{stop_by:?}: serve must exit cleanly"
    );
    let mut byte = [0u8; 1];
    let read = idle.stream_mut().read(&mut byte);
    assert!(
        matches!(read, Ok(0)),
        "{stop_by:?}: the idle client read {read:?} instead of EOF"
    );
}

#[test]
fn a_shutdown_frame_ends_the_daemon_promptly() {
    stop_ends_the_daemon_promptly(StopBy::Frame);
}

#[cfg(unix)]
#[test]
fn sigterm_ends_the_daemon_promptly() {
    stop_ends_the_daemon_promptly(StopBy::Sigterm);
}
