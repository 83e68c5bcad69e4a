//! Where `dvfs serve` runs a batch, and that the place never shows in a
//! reply.
//!
//! A burst of at most `max_batch` predicts is served on its
//! connection's handler thread with a parked worker's serving state; a
//! bigger burst, or one that finds no state free, goes through the
//! dispatcher to the workers. The placement tests read the flight
//! recorder, which is process-wide, so they live in this binary, and
//! every test here holds [`serial`] while it runs: no other test's
//! server records into the trace a placement test drains, or shares its
//! request ids.
//!
//! Every reply is compared byte for byte with the in-process oracle:
//! `Predictor::predict_batch_cached` on a fresh cache, then
//! `select_optimal`, rendered through serde.

use dvfs_core::cache::ShardedProfileCache;
use dvfs_core::dataset::Dataset;
use dvfs_core::models::PowerTimeModels;
use dvfs_core::objective::select_optimal;
use dvfs_core::predictor::Predictor;
use dvfs_core::serve::protocol::parse_objective;
use dvfs_core::serve::{Client, Request, Response, ServeConfig, Server};
use dvfs_core::snapshot::{ModelSnapshot, ModelStore, SnapshotMeta};
use gpu_model::{DeviceSpec, DvfsGrid, MetricSample, NoiseModel, SignatureBuilder};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Serializes the tests of this binary (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Trained once per binary, so server and oracle share the weights.
fn shared_models() -> &'static PowerTimeModels {
    static MODELS: OnceLock<PowerTimeModels> = OnceLock::new();
    MODELS.get_or_init(|| {
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

fn meta(label: &str) -> SnapshotMeta {
    SnapshotMeta {
        label: label.into(),
        dataset_rows: 0,
        train_seconds: 0.0,
    }
}

fn start(config: ServeConfig) -> (Server, String) {
    let snapshot = ModelSnapshot::new(shared_models().clone(), DeviceSpec::ga100(), meta("test"));
    let server = Server::start(config, Arc::new(ModelStore::new(snapshot))).expect("bind");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn stop(server: Server, addr: &str) {
    if let Ok(mut client) = Client::connect(addr) {
        let _ = client.call(&Request::shutdown());
    }
    server.shutdown();
    server.join();
}

/// Request `i` of a seeded stream over twelve applications: exact
/// repeats, fresh runs (a new `exec_time`) and, every fifth request, an
/// unseen activity point; `predict` and `select` under all four
/// objectives, with and without a threshold.
fn request(seed: u64, i: u64) -> Request {
    let r = (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .rotate_left(17)
        .wrapping_mul(0x94d0_49bb_1331_11eb);
    let app = r % 12;
    let (fp, dram) = if r.is_multiple_of(5) {
        // An unseen point: its own 1e-3 bucket, away from the apps'.
        let k = (r >> 8) % 400;
        (0.101 + 0.002 * k as f64, 0.903 - 0.002 * k as f64)
    } else {
        (0.05 + 0.07 * app as f64, 0.85 - 0.06 * app as f64)
    };
    let exec = if r.is_multiple_of(3) {
        2.0 + 0.001 * i as f64
    } else {
        1.5 + app as f64
    };
    let name = format!("app{app}-{i}");
    match (r >> 16) % 6 {
        0 => Request::predict(&name, fp, dram, exec),
        1 => Request::select(&name, fp, dram, exec, "edp", None),
        2 => Request::select(&name, fp, dram, exec, "ed2p", Some(0.05)),
        3 => Request::select(&name, fp, dram, exec, "energy", Some(0.1)),
        4 => Request::select(&name, fp, dram, exec, "time", None),
        _ => Request::select(&name, fp, dram, exec, "edp", Some(0.02)),
    }
}

fn frame(req: &Request) -> Vec<u8> {
    serde_json::to_string(req).unwrap().into_bytes()
}

/// The reply the server must send for `req` at snapshot `version`.
fn oracle(req: &Request, version: u64) -> String {
    let spec = DeviceSpec::ga100();
    let reference = MetricSample {
        workload: req.workload.clone().unwrap(),
        run: 0,
        fp64_active: req.fp_active.unwrap(),
        fp32_active: 0.0,
        sm_app_clock: spec.max_core_mhz,
        dram_active: req.dram_active.unwrap(),
        gr_engine_active: 0.0,
        gpu_utilization: 0.0,
        power_usage: 0.0,
        sm_active: 0.0,
        sm_occupancy: 0.0,
        pcie_tx_bytes: 0.0,
        pcie_rx_bytes: 0.0,
        exec_time: req.exec_time.unwrap(),
    };
    let freqs = DvfsGrid::for_spec(&spec).used();
    let predictor = Predictor::new(shared_models(), spec);
    let profile = predictor
        .predict_batch_cached(&ShardedProfileCache::new(8, 1), &[reference], &freqs)
        .remove(0);
    let mut want = Response::ok(version);
    if req.cmd == "select" {
        want.selection = Some(select_optimal(
            &profile.frequencies,
            &profile.energy_j,
            &profile.time_s,
            parse_objective(req.objective.as_deref().unwrap()).unwrap(),
            req.threshold,
        ));
    }
    want.profile = Some(profile);
    serde_json::to_string(&want).unwrap()
}

/// Sends `reqs` as one pipelined burst and checks every reply, in
/// order, against the oracle at version 1.
fn burst_matches_oracle(client: &mut Client, reqs: &[Request]) {
    let frames: Vec<Vec<u8>> = reqs.iter().map(frame).collect();
    let slices: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    client.send_frames(&slices).unwrap();
    for req in reqs {
        let served = String::from_utf8(client.read_frame_raw().unwrap()).unwrap();
        assert_eq!(
            served,
            oracle(req, 1),
            "{}: served reply differs from the oracle",
            req.workload.as_deref().unwrap()
        );
    }
}

/// `(start tid, end tid)` of every `serve.req` flow in the drained
/// trace, by flow id.
fn flow_threads() -> HashMap<u64, (Option<u64>, Option<u64>)> {
    let (events, _) = obs::trace::drain();
    let flow = obs::trace::intern("serve.req");
    let mut flows: HashMap<u64, (Option<u64>, Option<u64>)> = HashMap::new();
    for e in events.iter().filter(|e| e.name == flow) {
        let entry = flows.entry(e.value).or_default();
        match e.kind {
            obs::EventKind::FlowStart => entry.0 = Some(e.tid),
            obs::EventKind::FlowEnd => entry.1 = Some(e.tid),
            _ => {}
        }
    }
    flows
}

/// A single-frame `select` fits in a batch and meets a parked worker,
/// so its connection's handler serves it: each flow ends on the thread
/// it started on.
#[test]
fn single_frame_selects_are_served_on_the_handler_thread() {
    let _serial = serial();
    obs::trace::reset();
    obs::trace::set_enabled(true);
    let (server, addr) = start(ServeConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    for i in 0..12 {
        let req = Request::select(
            &format!("one-{i}"),
            0.3,
            0.6,
            2.0 + f64::from(i),
            "edp",
            None,
        );
        assert!(client.call(&req).unwrap().ok);
    }
    stop(server, &addr);
    obs::trace::set_enabled(false);
    let flows = flow_threads();
    assert_eq!(flows.len(), 12, "one flow per select: {flows:?}");
    for (id, (start, end)) in &flows {
        assert!(
            start.is_some() && end.is_some(),
            "flow {id} is cut: {flows:?}"
        );
        assert_eq!(start, end, "flow {id} ended on another thread");
    }
}

/// A burst of two batches does not fit in one, so the handler pushes it
/// to the dispatcher and the workers serve it: its flows end on threads
/// other than the handler's.
#[test]
fn a_two_batch_burst_is_served_by_the_workers() {
    const MAX_BATCH: usize = 4;
    let _serial = serial();
    obs::trace::reset();
    obs::trace::set_enabled(true);
    let (server, addr) = start(ServeConfig {
        max_batch: MAX_BATCH,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let reqs: Vec<Request> = (0..2 * MAX_BATCH as u64).map(|i| request(7, i)).collect();
    burst_matches_oracle(&mut client, &reqs);
    stop(server, &addr);
    obs::trace::set_enabled(false);
    let flows = flow_threads();
    assert_eq!(
        flows.len(),
        2 * MAX_BATCH,
        "one flow per request: {flows:?}"
    );
    let on_workers = flows
        .values()
        .filter(|(start, end)| end.is_some() && start != end)
        .count();
    assert!(
        on_workers > 0,
        "every flow of a two-batch burst ended on its handler: {flows:?}"
    );
}

/// Single frames, served inline, answer byte for byte as the oracle.
#[test]
fn single_frames_match_the_oracle() {
    let _serial = serial();
    let (server, addr) = start(ServeConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    for i in 0..40 {
        burst_matches_oracle(&mut client, &[request(11, i)]);
    }
    stop(server, &addr);
}

/// Bursts of two batches, split across the workers, answer byte for byte
/// as the oracle, in request order.
#[test]
fn two_batch_bursts_match_the_oracle() {
    let _serial = serial();
    for max_batch in [4, 32] {
        let (server, addr) = start(ServeConfig {
            max_batch,
            ..ServeConfig::default()
        });
        let mut client = Client::connect(&addr).unwrap();
        for round in 0..3u64 {
            let reqs: Vec<Request> = (0..2 * max_batch as u64)
                .map(|i| request(13, round * 100 + i))
                .collect();
            burst_matches_oracle(&mut client, &reqs);
        }
        stop(server, &addr);
    }
}

/// `workers + 2` connections pipelining at once: some bursts find every
/// serving state busy and go through the dispatcher instead. Every reply
/// still matches the oracle, in order.
#[test]
fn more_pipelining_connections_than_workers_match_the_oracle() {
    let _serial = serial();
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let connections = config.workers + 2;
    let (server, addr) = start(config);
    std::thread::scope(|scope| {
        for c in 0..connections as u64 {
            let addr = &addr;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..8u64 {
                    let len = 1 + (round + c) % 4;
                    let reqs: Vec<Request> =
                        (0..len).map(|i| request(17 + c, round * 10 + i)).collect();
                    burst_matches_oracle(&mut client, &reqs);
                }
            });
        }
    });
    stop(server, &addr);
}

/// A `reload` mid-stream: the version on a connection's replies never
/// decreases, whether a burst is served inline or by the workers, and
/// the stream picks up the last reload.
#[test]
fn reply_versions_never_decrease_across_a_reload() {
    const MAX_BATCH: usize = 4;
    let _serial = serial();
    let models =
        std::env::temp_dir().join(format!("dvfs-inline-reload-{}.json", std::process::id()));
    std::fs::write(&models, shared_models().to_json()).unwrap();
    let (server, addr) = start(ServeConfig {
        max_batch: MAX_BATCH,
        ..ServeConfig::default()
    });
    // The streamer's reply count and the version of its latest reply.
    let replies = AtomicU64::new(0);
    let latest = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    // Waits, for at most 10 s, until `cond` holds of the streamer's
    // progress.
    let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "the stream never {what}");
            std::thread::yield_now();
        }
    };
    std::thread::scope(|scope| {
        let streamer = scope.spawn(|| {
            let mut client = Client::connect(&addr).unwrap();
            let (mut last, mut i) = (0.0, 0u64);
            while !done.load(Ordering::Acquire) {
                // One frame, a batch, and two batches in turn.
                let len = [1, MAX_BATCH, 2 * MAX_BATCH][(i % 3) as usize];
                let frames: Vec<Vec<u8>> = (0..len as u64)
                    .map(|k| frame(&request(19, i * 10 + k)))
                    .collect();
                let slices: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
                client.send_frames(&slices).unwrap();
                for _ in 0..len {
                    let resp = client.read_response().unwrap();
                    assert!(resp.ok, "{:?}", resp.error);
                    assert!(
                        resp.version >= last,
                        "version went from {last} back to {}",
                        resp.version
                    );
                    last = resp.version;
                    latest.store(last as u64, Ordering::Release);
                    replies.fetch_add(1, Ordering::AcqRel);
                }
                i += 1;
            }
        });
        let mut control = Client::connect(&addr).unwrap();
        let mut version = 0;
        for _ in 0..3 {
            // Each reload lands while the stream is running.
            let before = replies.load(Ordering::Acquire);
            wait_for("made progress", &|| {
                replies.load(Ordering::Acquire) >= before + 3 * MAX_BATCH as u64
            });
            let resp = control
                .call(&Request::reload(models.to_str().unwrap()))
                .unwrap();
            assert!(resp.ok, "{:?}", resp.error);
            version = resp.version as u64;
        }
        assert_eq!(version, 4, "three reloads after the first snapshot");
        // A request sent after the last reload returned sees it.
        let mut probe = Client::connect(&addr).unwrap();
        let resp = probe.call(&request(23, 0)).unwrap();
        assert_eq!(
            resp.version as u64, version,
            "a new request saw an old snapshot"
        );
        wait_for("saw the last reload", &|| {
            latest.load(Ordering::Acquire) == version
        });
        done.store(true, Ordering::Release);
        streamer.join().unwrap();
    });
    stop(server, &addr);
    std::fs::remove_file(&models).ok();
}
