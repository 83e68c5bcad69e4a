//! End-to-end tests for `dvfs serve`: wire protocol robustness, bitwise
//! parity between served and in-process predictions, and hot model
//! swaps under live traffic.

use dvfs_core::cache::ShardedProfileCache;
use dvfs_core::dataset::Dataset;
use dvfs_core::models::PowerTimeModels;
use dvfs_core::predictor::Predictor;
use dvfs_core::serve::{Client, Request, ServeConfig, Server};
use dvfs_core::snapshot::{ModelSnapshot, ModelStore, SnapshotMeta};
use gpu_model::{DeviceSpec, DvfsGrid, MetricSample, NoiseModel, SignatureBuilder};
use std::io::{Read, Write};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Train once per test binary: every test shares the same weights, so
/// served-vs-in-process comparisons stay apples to apples.
fn shared_models() -> &'static PowerTimeModels {
    static MODELS: OnceLock<PowerTimeModels> = OnceLock::new();
    MODELS.get_or_init(|| {
        let spec = DeviceSpec::ga100();
        let nm = NoiseModel::default_bench();
        let sigs = [
            SignatureBuilder::new("c").flops(2e13).bytes(2e11).build(),
            SignatureBuilder::new("m").flops(2e11).bytes(2e13).build(),
            SignatureBuilder::new("x").flops(8e12).bytes(3e12).build(),
        ];
        let grid = DvfsGrid::for_spec(&spec);
        let mut samples = Vec::new();
        for sig in &sigs {
            for &f in grid.used().iter().step_by(6) {
                samples.push(gpu_model::sample::measure(&spec, sig, f, 0, &nm));
            }
            samples.push(gpu_model::sample::measure(
                &spec,
                sig,
                spec.max_core_mhz,
                0,
                &nm,
            ));
        }
        PowerTimeModels::train(&Dataset::from_samples(&spec, &samples).unwrap())
    })
}

fn start_server() -> (Server, Arc<ModelStore>) {
    start_server_with(ServeConfig::default())
}

fn start_server_with(config: ServeConfig) -> (Server, Arc<ModelStore>) {
    let spec = DeviceSpec::ga100();
    let snapshot = ModelSnapshot::new(
        shared_models().clone(),
        spec,
        SnapshotMeta {
            label: "test".into(),
            dataset_rows: 0,
            train_seconds: 0.0,
        },
    );
    let store = Arc::new(ModelStore::new(snapshot));
    let server = Server::start(config, Arc::clone(&store)).expect("bind");
    (server, store)
}

fn stop(server: Server, addr: &str) {
    // A shutdown frame (not just the API) so the drain path is exercised.
    if let Ok(mut c) = Client::connect(addr) {
        let _ = c.call(&Request::shutdown());
    }
    server.shutdown();
    server.join();
}

/// The reference sample a wire request stands for (mirrors the server's
/// own mapping — fp activity in the fp64 slot, default clock).
fn reference_like_server(
    spec: &DeviceSpec,
    workload: &str,
    fp: f64,
    dram: f64,
    exec: f64,
) -> MetricSample {
    MetricSample {
        workload: workload.to_string(),
        run: 0,
        fp64_active: fp,
        fp32_active: 0.0,
        sm_app_clock: spec.max_core_mhz,
        dram_active: dram,
        gr_engine_active: 0.0,
        gpu_utilization: 0.0,
        power_usage: 0.0,
        sm_active: 0.0,
        sm_occupancy: 0.0,
        pcie_tx_bytes: 0.0,
        pcie_rx_bytes: 0.0,
        exec_time: exec,
    }
}

#[test]
fn served_predict_is_bitwise_identical_to_in_process() {
    let (server, _store) = start_server();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let resp = client
        .call(&Request::predict("parity", 0.62, 0.31, 12.5))
        .unwrap();
    assert!(resp.ok, "predict failed: {:?}", resp.error);
    assert_eq!(resp.version, 1.0);
    let served = resp.profile.expect("predict returns a profile");

    // The same snapshot version, driven through the same cached batch
    // path in-process. serde_json's float_roundtrip mode means the trip
    // over the wire must not perturb a single bit.
    let spec = DeviceSpec::ga100();
    let predictor = Predictor::new(shared_models(), spec.clone());
    let freqs = DvfsGrid::for_spec(&spec).used();
    let reference = reference_like_server(&spec, "parity", 0.62, 0.31, 12.5);
    let local =
        predictor.predict_batch_cached(&ShardedProfileCache::new(8, 1), &[reference], &freqs);
    assert_eq!(local.len(), 1);
    assert_eq!(served.frequencies, local[0].frequencies);
    for (a, b) in served.power_w.iter().zip(&local[0].power_w) {
        assert_eq!(a.to_bits(), b.to_bits(), "power must match bitwise");
    }
    for (a, b) in served.time_s.iter().zip(&local[0].time_s) {
        assert_eq!(a.to_bits(), b.to_bits(), "time must match bitwise");
    }
    for (a, b) in served.energy_j.iter().zip(&local[0].energy_j) {
        assert_eq!(a.to_bits(), b.to_bits(), "energy must match bitwise");
    }

    // select returns the same selection the profile computes locally.
    let resp = client
        .call(&Request::select(
            "parity",
            0.62,
            0.31,
            12.5,
            "edp",
            Some(0.05),
        ))
        .unwrap();
    assert!(resp.ok);
    let selection = resp.selection.expect("select returns a selection");
    let local_sel = local[0].select(dvfs_core::objective::Objective::Edp, Some(0.05));
    assert_eq!(selection, local_sel);

    stop(server, &addr);
}

/// JSON has no inf or NaN, so a prediction that leaves f64 cannot be
/// an `ok` reply: its `null`s would not parse back into a `Response`.
/// With the test models, exec_time 1e308 overflows the anchored curves,
/// 5e305 and 1e200 keep them finite but overflow the EDP and ED²P
/// scores, and 5e-324 overflows 1/T in the degradation. Each gets an
/// error frame counted in `serve.errors`, none reaches the energy ledger,
/// and the server keeps answering normal requests bitwise.
#[test]
fn overflowing_predictions_get_error_frames_and_leave_the_ledger_finite() {
    let (server, _store) = start_server();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let errors = obs::global().counter("serve.errors");
    let errors_before = errors.get();

    let overflowing = [
        Request::select("huge", 0.62, 0.31, 5e305, "edp", Some(0.05)),
        Request::select("huge", 0.62, 0.31, 1e308, "edp", Some(0.05)),
        Request::predict("huge", 0.62, 0.31, 1e308),
        Request::select("edge", 0.62, 0.31, 1e200, "ed2p", None),
        Request::select("edge", 0.62, 0.31, 5e-324, "edp", Some(0.05)),
    ];
    for req in &overflowing {
        let resp = client.call(req).expect("an error frame parses");
        let exec = req.exec_time.unwrap();
        assert!(!resp.ok, "{} at exec_time {exec} was served as ok", req.cmd);
        assert!(resp.profile.is_none() && resp.selection.is_none());
        let error = resp.error.expect("error frames say why");
        assert!(error.contains("out of range"), "{error}");
    }
    // Where only the selection overflows, predict still answers.
    for exec in [1e200, 5e-324] {
        let resp = client
            .call(&Request::predict("edge", 0.62, 0.31, exec))
            .expect("finite curves parse");
        assert!(resp.ok, "predict at exec_time {exec}: {:?}", resp.error);
    }
    let rejected = overflowing.len() as u64;
    assert!(errors.get() - errors_before >= rejected);

    let resp = client.call(&Request::stats()).unwrap();
    let energy = resp
        .server
        .expect("stats frame has a server section")
        .energy;
    assert!(
        energy.predicted_joules_saved.is_finite(),
        "ledger poisoned: {}",
        energy.predicted_joules_saved
    );

    // A normal select afterwards still matches the in-process oracle.
    let resp = client
        .call(&Request::select(
            "sane",
            0.62,
            0.31,
            12.5,
            "edp",
            Some(0.05),
        ))
        .unwrap();
    assert!(resp.ok, "select after overflow failed: {:?}", resp.error);
    let spec = DeviceSpec::ga100();
    let predictor = Predictor::new(shared_models(), spec.clone());
    let freqs = DvfsGrid::for_spec(&spec).used();
    let reference = reference_like_server(&spec, "sane", 0.62, 0.31, 12.5);
    let local =
        predictor.predict_batch_cached(&ShardedProfileCache::new(8, 1), &[reference], &freqs);
    let served = resp.profile.expect("select returns a profile");
    for (a, b) in [
        (&served.power_w, &local[0].power_w),
        (&served.time_s, &local[0].time_s),
        (&served.energy_j, &local[0].energy_j),
    ] {
        let a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "served curve differs from the oracle");
    }
    let selection = resp.selection.expect("select returns a selection");
    let local_sel = local[0].select(dvfs_core::objective::Objective::Edp, Some(0.05));
    assert_eq!(selection.index, local_sel.index);
    assert_eq!(selection.score.to_bits(), local_sel.score.to_bits());
    assert_eq!(
        selection.perf_degradation.to_bits(),
        local_sel.perf_degradation.to_bits()
    );

    stop(server, &addr);
}

#[test]
fn garbage_json_gets_an_error_reply_and_the_connection_survives() {
    let (server, _store) = start_server();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    client.send_raw(b"this is not json {{{").unwrap();
    let resp = client.read_response().unwrap();
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("bad request"));

    // Valid JSON of the wrong shape is also an error, not a panic.
    client.send_raw(b"{\"unexpected\":true}").unwrap();
    let resp = client.read_response().unwrap();
    assert!(!resp.ok);

    // The stream stayed framed: a real request on the same connection
    // still succeeds.
    let resp = client.call(&Request::ping()).unwrap();
    assert!(resp.ok);

    // Semantic errors: missing fields, out-of-range activities, bad
    // objective names.
    let resp = client.call(&Request::predict("w", 1.5, 0.2, 1.0)).unwrap();
    assert!(!resp.ok, "fp_active > 1 must be rejected");
    let resp = client
        .call(&Request::select("w", 0.5, 0.2, 1.0, "frobnicate", None))
        .unwrap();
    assert!(!resp.ok, "unknown objective must be rejected");
    let resp = client.call(&Request::ping()).unwrap();
    assert!(resp.ok, "connection survives semantic errors");

    stop(server, &addr);
}

/// A frame may leave out the fields its command does not use: a short
/// `predict` gets the canonical frame's reply byte for byte, and a bare
/// `shutdown` stops the server.
#[test]
fn frames_may_omit_unused_fields() {
    let (server, _store) = start_server();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let canonical = serde_json::to_string(&Request::predict("short", 0.62, 0.31, 12.5)).unwrap();
    assert!(canonical.contains("\"objective\":null"), "{canonical}");
    client.send_raw(canonical.as_bytes()).unwrap();
    let want = String::from_utf8(client.read_frame_raw().unwrap()).unwrap();
    assert!(want.starts_with("{\"ok\":true,"), "{want}");
    let short = r#"{"cmd":"predict","workload":"short","fp_active":0.62,"dram_active":0.31,"exec_time":12.5}"#;
    client.send_raw(short.as_bytes()).unwrap();
    let got = String::from_utf8(client.read_frame_raw().unwrap()).unwrap();
    assert_eq!(
        got, want,
        "the short frame's reply differs from the canonical one's"
    );

    client.send_raw(br#"{"cmd":"shutdown"}"#).unwrap();
    let resp = client.read_response().unwrap();
    assert!(resp.ok, "bare shutdown refused: {:?}", resp.error);
    server.join();
}

#[test]
fn oversized_frame_is_rejected_with_a_reason() {
    let (server, _store) = start_server();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Announce a payload far beyond the limit; send no payload bytes.
    let announced: u32 = 64 << 20;
    client
        .stream_mut()
        .write_all(&announced.to_be_bytes())
        .unwrap();
    let resp = client.read_response().unwrap();
    assert!(!resp.ok);
    assert!(
        resp.error.as_deref().unwrap_or("").contains("exceeds"),
        "error should name the limit: {:?}",
        resp.error
    );

    // The server dropped that desynced connection, but keeps serving
    // new ones.
    let mut fresh = Client::connect(&addr).unwrap();
    assert!(fresh.call(&Request::ping()).unwrap().ok);

    stop(server, &addr);
}

#[test]
fn truncated_frame_does_not_wedge_the_server() {
    let (server, _store) = start_server();
    let addr = server.local_addr().to_string();

    {
        let mut client = Client::connect(&addr).unwrap();
        // A frame header promising 100 bytes, followed by only 3, then a
        // write-side close: the handler sees an unclean EOF and bails.
        client
            .stream_mut()
            .write_all(&100u32.to_be_bytes())
            .unwrap();
        client.stream_mut().write_all(b"abc").unwrap();
        client
            .stream_mut()
            .shutdown(std::net::Shutdown::Write)
            .unwrap();
    }

    let mut fresh = Client::connect(&addr).unwrap();
    assert!(fresh.call(&Request::ping()).unwrap().ok);

    stop(server, &addr);
}

#[test]
fn control_commands_report_version_and_cache_stats() {
    let (server, _store) = start_server();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let resp = client.call(&Request::version()).unwrap();
    assert!(resp.ok);
    assert_eq!(resp.version, 1.0);
    assert_eq!(resp.label.as_deref(), Some("test"));

    // Two predicts for the same key: one miss, one hit.
    for _ in 0..2 {
        assert!(
            client
                .call(&Request::predict("s", 0.4, 0.4, 2.0))
                .unwrap()
                .ok
        );
    }
    let resp = client.call(&Request::stats()).unwrap();
    let stats = resp.stats.expect("stats reply");
    assert_eq!(stats.lookups, stats.hits + stats.misses);
    assert!(stats.lookups >= 2.0);
    assert!(stats.hit_rate >= 0.0 && stats.hit_rate.is_finite());
    assert!(stats.shards >= 1.0);

    let resp = client.call(&Request::ping()).unwrap();
    assert!(resp.ok);

    let mut req = Request::ping();
    req.cmd = "frobnicate".into();
    let resp = client.call(&req).unwrap();
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("unknown command"));

    stop(server, &addr);
}

#[test]
fn hot_swap_is_picked_up_without_stalling_in_flight_traffic() {
    let (server, store) = start_server();
    let addr = server.local_addr().to_string();

    // Baseline response at version 1.
    let mut probe = Client::connect(&addr).unwrap();
    let before = probe
        .call(&Request::predict("swap", 0.55, 0.25, 3.0))
        .unwrap();
    assert_eq!(before.version, 1.0);

    // Hammer the server from two connections while snapshots are
    // published underneath them. Every request must succeed, versions
    // must never move backwards, and no request may stall: the workers
    // rebind between batches, readers never take a publisher's lock.
    let stop_flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let observed_max = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let addr2 = addr.clone();
    let hammers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr2.clone();
            let stop_flag = Arc::clone(&stop_flag);
            let observed_max = Arc::clone(&observed_max);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let mut last = 0u64;
                let mut served = 0u64;
                while !stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
                    let resp = client
                        .call(&Request::predict("swap", 0.55, 0.25, 3.0))
                        .unwrap();
                    assert!(resp.ok, "in-flight request failed during swap");
                    let version = resp.version as u64;
                    assert!(version >= last, "served version went backwards");
                    last = version;
                    served += 1;
                    observed_max.fetch_max(version, std::sync::atomic::Ordering::Relaxed);
                }
                served
            })
        })
        .collect();

    // Publish the *same weights* as new versions: the version id must
    // advance while the numerical answers stay bitwise identical.
    let snap = store.load();
    for _ in 0..3 {
        store.publish(ModelSnapshot::new(
            snap.models.clone(),
            snap.spec.clone(),
            SnapshotMeta {
                label: "swap".into(),
                dataset_rows: 0,
                train_seconds: 0.0,
            },
        ));
        std::thread::sleep(std::time::Duration::from_millis(120));
    }

    // Traffic must observe a post-swap version without being told to
    // pause — that's the "picked up by in-flight traffic" criterion.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while observed_max.load(std::sync::atomic::Ordering::Relaxed) < 4
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    stop_flag.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u64 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);
    assert!(
        observed_max.load(std::sync::atomic::Ordering::Relaxed) >= 4,
        "hot swap was never observed by live traffic"
    );

    // Same weights, new version: bitwise-identical numbers.
    let after = probe
        .call(&Request::predict("swap", 0.55, 0.25, 3.0))
        .unwrap();
    assert_eq!(after.version, 4.0);
    let (b, a) = (before.profile.unwrap(), after.profile.unwrap());
    for (x, y) in b.power_w.iter().zip(&a.power_w) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "power changed across identical swap"
        );
    }
    for (x, y) in b.time_s.iter().zip(&a.time_s) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "time changed across identical swap"
        );
    }

    stop(server, &addr);
}

#[test]
fn shutdown_frame_drains_queued_requests() {
    let (server, _store) = start_server();
    let addr = server.local_addr().to_string();

    // Queue work from several connections, then shut down; every
    // request must still get an answer (workers drain before exiting).
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let mut answered = 0;
                for k in 0..25 {
                    let wl = format!("drain-{i}-{k}");
                    let resp = client
                        .call(&Request::predict(&wl, 0.2 + 0.001 * k as f64, 0.3, 1.0))
                        .unwrap();
                    assert!(resp.ok);
                    answered += 1;
                }
                answered
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 100);

    let mut client = Client::connect(&addr).unwrap();
    let resp = client.call(&Request::shutdown()).unwrap();
    assert!(resp.ok);
    server.join();
}

/// `Server::shutdown` + `join` end a server promptly with one
/// connection idle and another's pipelined burst in flight: every thread
/// blocked on its event wakes, the burst is answered in full, the idle
/// client reads EOF, and the telemetry responder stops with the rest.
#[test]
fn in_process_shutdown_wakes_every_thread_and_answers_the_burst_in_flight() {
    let (server, _store) = start_server_with(ServeConfig {
        telemetry_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    });
    let addr = server.local_addr().to_string();
    let taddr = server
        .telemetry_addr()
        .expect("telemetry port was requested");
    let mut idle = Client::connect(&addr).unwrap();
    assert!(idle.call(&Request::ping()).unwrap().ok);
    let mut busy = Client::connect(&addr).unwrap();
    assert!(busy.call(&Request::ping()).unwrap().ok);
    let payloads: Vec<String> = (0..64)
        .map(|i| {
            let fp = 0.05 + 0.014 * f64::from(i);
            serde_json::to_string(&Request::predict("burst", fp, 0.6, 2.0)).unwrap()
        })
        .collect();
    let frames: Vec<&[u8]> = payloads.iter().map(|p| p.as_bytes()).collect();
    // Both handlers block in their reads before the burst arrives, and
    // the burst reaches the server before the stop does.
    std::thread::sleep(Duration::from_millis(50));
    busy.send_frames(&frames).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    let (joined_tx, joined_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        server.join();
        joined_tx.send(()).unwrap();
    });
    for i in 0..payloads.len() {
        let resp = busy
            .read_response()
            .unwrap_or_else(|e| panic!("burst reply {i} lost: {e}"));
        assert!(resp.ok, "burst reply {i}: {:?}", resp.error);
    }
    joined_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("shutdown + join took over 2 s");
    let mut byte = [0u8; 1];
    let read = idle.stream_mut().read(&mut byte);
    assert!(matches!(read, Ok(0)), "idle client read {read:?}, not EOF");
    assert!(
        std::net::TcpStream::connect(taddr).is_err(),
        "the telemetry port still accepts after join"
    );
}

/// A connection's handler deregisters when the connection closes, so a
/// stream of short connections leaves no entry (or unjoined thread)
/// behind.
#[test]
fn closed_connections_leave_the_registry_empty() {
    let (server, _store) = start_server();
    let addr = server.local_addr().to_string();
    for _ in 0..500 {
        let mut client = Client::connect(&addr).unwrap();
        assert!(client.call(&Request::ping()).unwrap().ok);
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.connections(),
        0,
        "closed connections still registered"
    );
    stop(server, &addr);
}

#[test]
fn scrape_frame_returns_live_exposition() {
    let (server, _store) = start_server();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    for k in 0..3 {
        let resp = client
            .call(&Request::predict(&format!("scrape-{k}"), 0.4, 0.4, 2.0))
            .unwrap();
        assert!(resp.ok);
    }
    let resp = client.call(&Request::scrape()).unwrap();
    assert!(resp.ok, "scrape failed: {:?}", resp.error);
    let text = resp.text.expect("scrape returns exposition text");
    let parsed = obs::prom::parse(&text).expect("exposition must parse strictly");
    // Counters are process-global, so >= what this test alone produced.
    assert!(
        parsed.counters.get("serve_requests").copied().unwrap_or(0) >= 3,
        "serve_requests missing or too small"
    );
    assert!(
        parsed.histograms.contains_key("serve_request_ns"),
        "latency histogram missing from exposition"
    );
    assert!(
        parsed.infos.contains_key("dvfs_build_info"),
        "build info metric missing"
    );
    // The scrape republished derived gauges before rendering.
    assert!(
        parsed.gauges.contains_key("serve_uptime_s"),
        "uptime gauge missing"
    );

    stop(server, &addr);
}

#[test]
fn telemetry_port_serves_metrics_and_health_over_http() {
    let (server, _store) = start_server_with(ServeConfig {
        telemetry_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    });
    let addr = server.local_addr().to_string();
    let taddr = server
        .telemetry_addr()
        .expect("telemetry port was requested")
        .to_string();

    let mut client = Client::connect(&addr).unwrap();
    assert!(
        client
            .call(&Request::predict("http", 0.3, 0.5, 1.5))
            .unwrap()
            .ok
    );

    let (status, body) = dvfs_core::serve::http_get(&taddr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let parsed = obs::prom::parse(&body).expect("HTTP exposition must parse");
    assert!(parsed.counters.get("serve_requests").copied().unwrap_or(0) >= 1);
    assert!(parsed.infos.contains_key("dvfs_build_info"));

    let (status, body) = dvfs_core::serve::http_get(&taddr, "/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _) = dvfs_core::serve::http_get(&taddr, "/nope").unwrap();
    assert_eq!(status, 404);

    stop(server, &addr);
}

#[test]
fn stats_frame_reports_uptime_build_window_and_slo_status() {
    let (server, _store) = start_server_with(ServeConfig {
        ts_interval: Some(Duration::from_millis(25)),
        stats_window: Duration::from_secs(5),
        ..ServeConfig::default()
    });
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    for k in 0..5 {
        assert!(
            client
                .call(&Request::predict(&format!("sf-{k}"), 0.2, 0.6, 1.0))
                .unwrap()
                .ok
        );
    }
    // Let the sampler take at least two ticks so the window exists.
    std::thread::sleep(Duration::from_millis(120));

    let resp = client.call(&Request::stats()).unwrap();
    assert!(resp.ok);
    let server_stats = resp.server.expect("stats frame has a server section");
    assert!(server_stats.uptime_s > 0.0);
    assert!(!server_stats.build_version.is_empty());
    assert!(!server_stats.build_git.is_empty());
    assert_eq!(server_stats.window_s, 5.0);
    assert!(server_stats.qps >= 0.0 && server_stats.qps.is_finite());
    assert!((0.0..=1.0).contains(&server_stats.hit_rate));
    assert!(server_stats.p99_us >= server_stats.p50_us);
    let names: Vec<&str> = server_stats.slo.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["latency_p99", "availability", "quality_mape"]);
    for slo in &server_stats.slo {
        assert!(slo.target > 0.0 && slo.target < 1.0);
        assert!(slo.burn_fast >= 0.0 && slo.burn_slow >= 0.0);
    }

    stop(server, &addr);
}

#[test]
fn impossible_latency_slo_fires_exactly_once_under_sustained_load() {
    use obs::SloSpec;
    // A 1ns p99 objective no real request can meet, on short windows so
    // the burn shows up fast. The spec name is unique to this test, so
    // the global `slo.itest_tight.alerts` counter belongs to it alone.
    let (server, _store) = start_server_with(ServeConfig {
        ts_interval: Some(Duration::from_millis(25)),
        slos: vec![SloSpec::latency("itest_tight", "serve.request_ns", 1, 0.99)
            .with_windows(Duration::from_millis(500), Duration::from_secs(1))],
        ..ServeConfig::default()
    });
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Sustained load; poll the stats frame until the alert lands.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut alerts = 0.0;
    while std::time::Instant::now() < deadline {
        for k in 0..10 {
            assert!(
                client
                    .call(&Request::predict(&format!("slo-{k}"), 0.5, 0.3, 2.0))
                    .unwrap()
                    .ok
            );
        }
        let resp = client.call(&Request::stats()).unwrap();
        let tight = resp
            .server
            .expect("server section")
            .slo
            .into_iter()
            .find(|s| s.name == "itest_tight")
            .expect("configured SLO is reported");
        alerts = tight.alerts;
        if alerts >= 1.0 {
            assert!(tight.firing, "alerted SLO must be firing under load");
            assert!(tight.burn_fast > 1.0, "burn must exceed threshold");
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(alerts, 1.0, "edge-triggered alert must fire exactly once");

    // More overload traffic must not re-fire the alert: the edge only
    // triggers on a clear→firing transition.
    for k in 0..20 {
        assert!(
            client
                .call(&Request::predict(&format!("slo2-{k}"), 0.5, 0.3, 2.0))
                .unwrap()
                .ok
        );
    }
    std::thread::sleep(Duration::from_millis(150));
    let resp = client.call(&Request::stats()).unwrap();
    let tight = resp
        .server
        .unwrap()
        .slo
        .into_iter()
        .find(|s| s.name == "itest_tight")
        .unwrap();
    assert_eq!(tight.alerts, 1.0, "still-firing SLO must not re-alert");

    stop(server, &addr);
}

#[test]
fn pipelined_burst_gets_in_order_bitwise_identical_responses() {
    pipelined_burst_is_answered_in_order(ServeConfig::default());
    // Each 6-predict half of the burst spans two 4-job batches, one per
    // worker.
    pipelined_burst_is_answered_in_order(ServeConfig {
        max_batch: 4,
        ..Default::default()
    });
}

fn pipelined_burst_is_answered_in_order(config: ServeConfig) {
    let (server, _store) = start_server_with(config);
    let addr = server.local_addr().to_string();

    // Reference answers, one call at a time on a separate connection.
    let mut oracle = Client::connect(&addr).unwrap();
    let keys: Vec<(String, f64, f64, f64)> = (0..12)
        .map(|k| {
            (
                format!("pipe-{k}"),
                0.15 + 0.05 * k as f64 % 0.9,
                0.2 + 0.04 * k as f64 % 0.9,
                1.0 + k as f64,
            )
        })
        .collect();
    let mut expected = Vec::new();
    for (wl, fp, dram, exec) in &keys {
        let resp = oracle
            .call(&Request::predict(wl, *fp, *dram, *exec))
            .unwrap();
        assert!(resp.ok);
        expected.push(resp.profile.unwrap());
    }

    // The same requests as one pipelined burst: a single vectored write
    // carrying every frame, then the replies read back in order. A mixed
    // burst (a control frame in the middle) must also stay ordered.
    let mut client = Client::connect(&addr).unwrap();
    let mut payloads: Vec<Vec<u8>> = keys
        .iter()
        .map(|(wl, fp, dram, exec)| {
            serde_json::to_string(&Request::predict(wl, *fp, *dram, *exec))
                .unwrap()
                .into_bytes()
        })
        .collect();
    payloads.insert(
        6,
        serde_json::to_string(&Request::ping())
            .unwrap()
            .into_bytes(),
    );
    let frames: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    client.send_frames(&frames).unwrap();
    for (i, _) in payloads.iter().enumerate() {
        let resp = client.read_response().unwrap();
        assert!(resp.ok, "pipelined frame {i} failed: {:?}", resp.error);
        if i == 6 {
            assert!(
                resp.profile.is_none(),
                "ping reply must not carry a profile"
            );
            continue;
        }
        let key = if i < 6 { i } else { i - 1 };
        let profile = resp.profile.expect("predict reply carries a profile");
        assert_eq!(
            profile.workload, keys[key].0,
            "reply {i} answered the wrong request (ordering violated)"
        );
        for (a, b) in profile.power_w.iter().zip(&expected[key].power_w) {
            assert_eq!(a.to_bits(), b.to_bits(), "pipelined power differs");
        }
        for (a, b) in profile.time_s.iter().zip(&expected[key].time_s) {
            assert_eq!(a.to_bits(), b.to_bits(), "pipelined time differs");
        }
        for (a, b) in profile.energy_j.iter().zip(&expected[key].energy_j) {
            assert_eq!(a.to_bits(), b.to_bits(), "pipelined energy differs");
        }
    }

    stop(server, &addr);
}

#[test]
fn mixed_valid_and_malformed_traffic_leaves_the_server_consistent() {
    let (server, _store) = start_server();
    let addr = server.local_addr().to_string();

    // Several connections at once, each interleaving pipelined valid
    // bursts with protocol abuse: garbage JSON, wrong shapes, a
    // truncated frame, an oversized announcement. Whatever a connection
    // does, the dispatcher shards must come out drained and the cache
    // counters consistent.
    let handles: Vec<_> = (0..6)
        .map(|conn: usize| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                match conn % 3 {
                    // Valid pipelined traffic, with a garbage frame in
                    // the middle of every burst.
                    0 => {
                        for round in 0..10 {
                            let a = serde_json::to_string(&Request::predict(
                                &format!("fz-{conn}-{round}"),
                                0.3,
                                0.4,
                                2.0,
                            ))
                            .unwrap();
                            let b = serde_json::to_string(&Request::select(
                                &format!("fz-{conn}-{round}"),
                                0.3,
                                0.4,
                                2.0,
                                "edp",
                                None,
                            ))
                            .unwrap();
                            client
                                .send_frames(&[a.as_bytes(), b"{\"nope\":1}", b.as_bytes()])
                                .unwrap();
                            assert!(client.read_response().unwrap().ok);
                            assert!(!client.read_response().unwrap().ok);
                            assert!(client.read_response().unwrap().ok);
                        }
                    }
                    // Garbage and semantic errors only.
                    1 => {
                        for _ in 0..10 {
                            client.send_raw(b"not json at all").unwrap();
                            assert!(!client.read_response().unwrap().ok);
                            let resp = client
                                .call(&Request::predict("fz-bad", 7.0, 0.4, 2.0))
                                .unwrap();
                            assert!(!resp.ok, "out-of-range activity must be rejected");
                        }
                    }
                    // A few valid requests, then die mid-frame.
                    _ => {
                        for k in 0..5 {
                            assert!(
                                client
                                    .call(&Request::predict(
                                        &format!("fz-trunc-{conn}-{k}"),
                                        0.5,
                                        0.2,
                                        1.5
                                    ))
                                    .unwrap()
                                    .ok
                            );
                        }
                        client.stream_mut().write_all(&64u32.to_be_bytes()).unwrap();
                        client.stream_mut().write_all(b"only-par").unwrap();
                        client
                            .stream_mut()
                            .shutdown(std::net::Shutdown::Write)
                            .unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // One more connection abuses the length prefix itself.
    {
        let mut client = Client::connect(&addr).unwrap();
        client
            .stream_mut()
            .write_all(&(64u32 << 20).to_be_bytes())
            .unwrap();
        assert!(!client.read_response().unwrap().ok);
    }

    // No stuck jobs: a fresh request answers promptly (well inside the
    // reply timeout), meaning no shard holds an orphaned burst.
    let t0 = std::time::Instant::now();
    let mut fresh = Client::connect(&addr).unwrap();
    assert!(
        fresh
            .call(&Request::predict("fz-after", 0.6, 0.6, 2.0))
            .unwrap()
            .ok
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "post-fuzz request stalled: a shard kept a stuck job"
    );

    // Cache accounting survived the abuse: every lookup is classified.
    let stats = server.cache_stats();
    assert_eq!(
        stats.lookups,
        stats.hits + stats.misses,
        "cache counters drifted under mixed traffic"
    );
    assert!(stats.lookups > 0);

    stop(server, &addr);
}

#[test]
fn hot_swap_under_pipelined_load_keeps_responses_bitwise_stable() {
    let (server, store) = start_server();
    let addr = server.local_addr().to_string();

    // Baseline profile at version 1.
    let mut probe = Client::connect(&addr).unwrap();
    let before = probe
        .call(&Request::predict("pswap", 0.52, 0.28, 4.0))
        .unwrap();
    assert_eq!(before.version, 1.0);
    let baseline = before.profile.unwrap();

    // Pipelined hammers: bursts of 4 identical predicts per vectored
    // write, replies checked for order, bitwise stability, and version
    // monotonicity while identical-weight snapshots publish underneath.
    let stop_flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let observed_max = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let hammers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let stop_flag = Arc::clone(&stop_flag);
            let observed_max = Arc::clone(&observed_max);
            let baseline = baseline.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let frame = serde_json::to_string(&Request::predict("pswap", 0.52, 0.28, 4.0))
                    .unwrap()
                    .into_bytes();
                let mut last = 0u64;
                let mut served = 0u64;
                while !stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
                    client
                        .send_frames(&[&frame, &frame, &frame, &frame])
                        .unwrap();
                    for _ in 0..4 {
                        let resp = client.read_response().unwrap();
                        assert!(resp.ok, "pipelined request failed during swap");
                        let version = resp.version as u64;
                        assert!(version >= last, "served version went backwards");
                        last = version;
                        let profile = resp.profile.expect("predict reply has a profile");
                        assert_eq!(profile.workload, "pswap");
                        for (a, b) in profile.power_w.iter().zip(&baseline.power_w) {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "power drifted across identical-weight swap"
                            );
                        }
                        for (a, b) in profile.time_s.iter().zip(&baseline.time_s) {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "time drifted across identical-weight swap"
                            );
                        }
                        served += 1;
                    }
                    observed_max.fetch_max(last, std::sync::atomic::Ordering::Relaxed);
                }
                served
            })
        })
        .collect();

    let snap = store.load();
    for _ in 0..3 {
        store.publish(ModelSnapshot::new(
            snap.models.clone(),
            snap.spec.clone(),
            SnapshotMeta {
                label: "pswap".into(),
                dataset_rows: 0,
                train_seconds: 0.0,
            },
        ));
        std::thread::sleep(std::time::Duration::from_millis(120));
    }

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while observed_max.load(std::sync::atomic::Ordering::Relaxed) < 4
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    stop_flag.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u64 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);
    assert!(
        observed_max.load(std::sync::atomic::Ordering::Relaxed) >= 4,
        "hot swap was never observed by pipelined traffic"
    );

    stop(server, &addr);
}

#[test]
fn predict_emits_a_matching_flow_pair() {
    obs::trace::set_enabled(true);
    let (server, _store) = start_server();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .call(&Request::predict("flow", 0.45, 0.35, 3.0))
        .unwrap();
    assert!(resp.ok);
    obs::trace::set_enabled(false);

    let (events, _stats) = obs::trace::drain();
    let flow_name = obs::trace::intern("serve.req");
    let starts: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == obs::EventKind::FlowStart && e.name == flow_name)
        .map(|e| e.value)
        .collect();
    let ends: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == obs::EventKind::FlowEnd && e.name == flow_name)
        .map(|e| e.value)
        .collect();
    assert!(!starts.is_empty(), "no serve.req flow starts recorded");
    assert!(
        starts.iter().any(|id| ends.contains(id)),
        "no flow id has both a start ({starts:?}) and an end ({ends:?})"
    );

    stop(server, &addr);
}

/// A worker stores a reply fragment only on its key's second sighting.
/// One exact `select`, sent three times on one connection to a
/// one-worker server with fresh runs of the same application (same
/// activities, new exec_time) in between, takes every reply path: not
/// admitted (first), admitted after a sharded-LRU hit (second) and a
/// fragment hit (third). Each reply must be byte-identical to the
/// in-process oracle rendered through serde; the journal says which
/// path answered, and replays without divergence.
#[test]
fn repeated_request_is_bitwise_on_unadmitted_admitted_and_hit_paths() {
    let dir = std::env::temp_dir().join(format!("dvfs-serve-admit-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (server, _store) = start_server_with(ServeConfig {
        workers: 1,
        journal: Some(obs::journal::JournalConfig::new(dir.clone())),
        ..ServeConfig::default()
    });
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let (fp, dram) = (0.47, 0.38);
    let exact =
        |n: usize| Request::select(&format!("exact-{n}"), fp, dram, 7.25, "ed2p", Some(0.1));
    let fresh = |n: usize| Request::predict(&format!("fresh-{n}"), fp, dram, 7.25 + n as f64);
    let requests = [exact(1), fresh(1), exact(2), fresh(2), exact(3), fresh(3)];

    let spec = DeviceSpec::ga100();
    let predictor = Predictor::new(shared_models(), spec.clone());
    let freqs = DvfsGrid::for_spec(&spec).used();
    let oracle_cache = ShardedProfileCache::new(8, 1);
    for req in &requests {
        client
            .send_raw(serde_json::to_string(req).unwrap().as_bytes())
            .unwrap();
        let served = client.read_frame_raw().unwrap();

        let workload = req.workload.as_deref().unwrap();
        let reference = reference_like_server(&spec, workload, fp, dram, req.exec_time.unwrap());
        let profile = predictor
            .predict_batch_cached(&oracle_cache, &[reference], &freqs)
            .remove(0);
        let mut want = dvfs_core::serve::Response::ok(1);
        if req.cmd == "select" {
            want.selection = Some(profile.select(dvfs_core::objective::Objective::Ed2p, Some(0.1)));
        }
        want.profile = Some(profile);
        assert_eq!(
            String::from_utf8(served).unwrap(),
            serde_json::to_string(&want).unwrap(),
            "{workload}: served reply differs from the oracle"
        );
    }
    stop(server, &addr);

    let records = obs::journal::read_records(&dir).expect("read journal");
    let decoded: Vec<_> = records
        .iter()
        .map(|r| dvfs_core::serve::journal::DecisionRecord::decode(&r.body).expect("decodes"))
        .collect();
    let paths: Vec<(&str, bool)> = decoded
        .iter()
        .map(|d| (d.workload.as_str(), d.hit))
        .collect();
    assert_eq!(
        paths,
        [
            ("exact-1", false),
            ("fresh-1", false),
            ("exact-2", false),
            ("fresh-2", false),
            ("exact-3", true),
            ("fresh-3", false),
        ],
        "only the third exact request is a fragment hit"
    );
    let replay_snapshot = ModelSnapshot::new(
        shared_models().clone(),
        spec,
        SnapshotMeta {
            label: "replay".into(),
            dataset_rows: 0,
            train_seconds: 0.0,
        },
    );
    let report = dvfs_core::serve::journal::replay(&records, &replay_snapshot);
    assert_eq!(report.divergent, 0, "{:?}", report.divergences.first());
    std::fs::remove_dir_all(&dir).ok();
}

/// A fresh run of a known application (same activities, new exec_time)
/// renders only its times and energies once its cache key has a head.
/// On a one-worker journaling server, one key's fresh runs on their
/// first, second and later sightings (no head, head stored, head read),
/// interleaved with exact repeats, unseen points and an exec_time whose
/// prediction overflows, sent in bursts of one to five frames, must each
/// reply byte for byte as the in-process oracle rendered through serde.
/// A `reload` drops the heads and bumps the version, and the same holds
/// after it; the journal replays without divergence.
#[test]
fn fresh_runs_are_bitwise_before_and_after_their_key_has_a_head() {
    let base = std::env::temp_dir().join(format!("dvfs-serve-heads-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).unwrap();
    let journal_dir = base.join("journal");
    let models_path = base.join("models.json");
    std::fs::write(&models_path, shared_models().to_json()).unwrap();
    let (server, _store) = start_server_with(ServeConfig {
        workers: 1,
        journal: Some(obs::journal::JournalConfig::new(journal_dir.clone())),
        ..ServeConfig::default()
    });
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let spec = DeviceSpec::ga100();
    let predictor = Predictor::new(shared_models(), spec.clone());
    let freqs = DvfsGrid::for_spec(&spec).used();
    let oracle_cache = ShardedProfileCache::new(64, 1);
    let want = |req: &Request, version: u64| -> String {
        let exec = req.exec_time.unwrap();
        let reference = reference_like_server(
            &spec,
            req.workload.as_deref().unwrap(),
            req.fp_active.unwrap(),
            req.dram_active.unwrap(),
            exec,
        );
        let profile = predictor
            .predict_batch_cached(&oracle_cache, &[reference], &freqs)
            .remove(0);
        let finite = [&profile.power_w, &profile.time_s, &profile.energy_j]
            .iter()
            .all(|curve| curve.iter().all(|v| v.is_finite()));
        let resp = if finite {
            let mut resp = dvfs_core::serve::Response::ok(version);
            if req.cmd == "select" {
                let objective = match req.objective.as_deref() {
                    Some("edp") => dvfs_core::objective::Objective::Edp,
                    _ => dvfs_core::objective::Objective::Ed2p,
                };
                resp.selection = Some(profile.select(objective, req.threshold));
            }
            resp.profile = Some(profile);
            resp
        } else {
            dvfs_core::serve::Response::err(
                version,
                format!("`exec_time` {exec:?} is out of range: the prediction overflows f64"),
            )
        };
        serde_json::to_string(&resp).unwrap()
    };

    let (fp, dram) = (0.31, 0.57);
    let fresh = |n: usize| {
        let exec = 3.0 + 0.37 * n as f64;
        if n.is_multiple_of(2) {
            Request::predict(&format!("fresh-{n}"), fp, dram, exec)
        } else {
            Request::select(&format!("fresh-{n}"), fp, dram, exec, "edp", Some(0.05))
        }
    };
    let exact = |n: usize| Request::select(&format!("exact-{n}"), fp, dram, 9.5, "ed2p", None);
    let unseen = |n: usize| {
        Request::predict(
            &format!("unseen-{n}"),
            0.05 + 0.004 * n as f64,
            0.9 - 0.003 * n as f64,
            2.0,
        )
    };
    let huge = |n: usize| Request::predict(&format!("huge-{n}"), fp, dram, 1e308);
    // One phase per snapshot version: the key's first fresh run, then
    // its second (the head is stored) and every later one (the head is
    // read), with the other paths in between.
    let phase = |round: usize| -> Vec<Vec<Request>> {
        let k = 100 * round;
        vec![
            vec![huge(k)],
            vec![fresh(k + 1)],
            vec![unseen(k + 1), huge(k + 1)],
            vec![exact(k + 1), fresh(k + 2), unseen(k + 2)],
            vec![fresh(k + 3)],
            vec![
                exact(k + 2),
                fresh(k + 4),
                fresh(k + 5),
                huge(k + 2),
                exact(k + 3),
            ],
            vec![unseen(k + 3), fresh(k + 6), fresh(k + 7), unseen(k + 4)],
        ]
    };

    let mut served = 0;
    let mut overflowed = 0;
    for (round, version) in [(0, 1u64), (1, 2)] {
        if round > 0 {
            let resp = client
                .call(&Request::reload(models_path.to_str().unwrap()))
                .unwrap();
            assert!(resp.ok, "reload failed: {:?}", resp.error);
            assert_eq!(resp.version, version as f64);
        }
        for burst in phase(round) {
            let frames: Vec<Vec<u8>> = burst
                .iter()
                .map(|req| serde_json::to_string(req).unwrap().into_bytes())
                .collect();
            let spans: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
            client.send_frames(&spans).unwrap();
            for req in &burst {
                let got = String::from_utf8(client.read_frame_raw().unwrap()).unwrap();
                assert_eq!(
                    got,
                    want(req, version),
                    "{} at version {version}: served reply differs from the oracle",
                    req.workload.as_deref().unwrap()
                );
                if req.exec_time == Some(1e308) {
                    assert!(got.starts_with("{\"ok\":false,"), "{got}");
                    overflowed += 1;
                } else {
                    served += 1;
                }
            }
        }
    }
    assert_eq!(overflowed, 6);
    stop(server, &addr);

    let records = obs::journal::read_records(&journal_dir).expect("read journal");
    assert_eq!(
        records.len(),
        served,
        "every ok reply is journaled, no overflow"
    );
    let replay_snapshot = ModelSnapshot::new(
        shared_models().clone(),
        spec,
        SnapshotMeta {
            label: "replay".into(),
            dataset_rows: 0,
            train_seconds: 0.0,
        },
    );
    let report = dvfs_core::serve::journal::replay(&records, &replay_snapshot);
    assert_eq!(report.records, served as u64);
    assert_eq!(report.divergent, 0, "{:?}", report.divergences.first());
    std::fs::remove_dir_all(&base).ok();
}
