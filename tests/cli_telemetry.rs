//! The `dvfs` CLI must emit its telemetry (metrics snapshot, flight-recorder
//! trace) on *both* exit paths. A failing run is exactly when the operator
//! needs the instrumentation, and an early version of `main` dropped it by
//! chaining the exports behind the command result with `and_then`.
//!
//! Also pins the exit-code contract (0 ok, 2 usage/validation, 3 I/O or
//! config) and the `dvfs serve` clean-shutdown path: a shutdown frame must
//! drain in-flight requests and still land the telemetry exports.

use std::io::BufRead;
use std::path::Path;
use std::process::Command;

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
