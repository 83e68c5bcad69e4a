//! Load generator for the serve daemon.
//!
//! Drives a live server over TCP with a configurable number of
//! connections, a zipf-skewed key population (so the profile cache sees
//! a realistic hot set), and either **closed-loop** pacing (each
//! connection issues its next request the moment the previous reply
//! lands — measures peak sustainable throughput) or **open-loop**
//! pacing (requests are launched on a fixed schedule regardless of
//! replies — measures latency at a target arrival rate, including
//! coordinated-omission-free queueing delay).
//!
//! Round-trip latencies of **ok** replies land in the shared
//! `loadgen.rtt_ns` histogram in the global registry; the report's
//! p50/p90/p99 read back out of that same histogram, so the numbers in
//! a `--metrics-out` export and the summary always agree. Error replies
//! are accounted separately — `loadgen.errors` counter and the
//! `loadgen.error_rtt_ns` histogram — so a misbehaving server can't
//! skew the latency percentiles with fast error turnarounds.
//!
//! The hot loop allocates nothing per request: every key's `predict`
//! and `select` frames are serialized **once** up front and replayed as
//! raw bytes, and replies are checked with the serde-free
//! [`fast::scan_reply`] scanner (full parse only as a fallback). With
//! `pipeline > 1` each connection keeps that many requests in flight —
//! closed-loop connections send whole bursts in one vectored write and
//! verify the replies come back **in request order** (the server's
//! pipelining contract), keyed by the workload echo in each response.

use super::protocol::{fast, Request, Response};
use super::server::Client;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Request pacing discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Back-to-back: next request when the previous reply arrives.
    Closed,
    /// Fixed schedule at this many requests/second across all
    /// connections; a slow server makes requests queue, not disappear.
    Open {
        /// Aggregate arrival rate, requests per second.
        rate_hz: f64,
    },
}

/// Load-generator tunables.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent connections (one thread each).
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: u64,
    /// Closed- or open-loop pacing.
    pub pacing: Pacing,
    /// Distinct workload keys in the population.
    pub keys: usize,
    /// Zipf skew exponent (0 = uniform; ~1 = classic web skew).
    pub zipf_s: f64,
    /// Every Nth request is a `select` instead of a `predict`
    /// (0 = predicts only).
    pub select_every: u64,
    /// RNG seed (per-connection streams derive from it).
    pub seed: u64,
    /// Requests each connection keeps in flight (1 = classic
    /// request/response; >1 exercises the server's pipelined burst
    /// path and asserts in-order replies).
    pub pipeline: usize,
    /// Send a `shutdown` frame after the run (smoke tests).
    pub shutdown_after: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            connections: 4,
            requests: 10_000,
            pacing: Pacing::Closed,
            keys: 64,
            zipf_s: 1.0,
            select_every: 8,
            seed: 42,
            pipeline: 1,
            shutdown_after: false,
        }
    }
}

/// What a run produced. All latency figures come from the shared
/// `loadgen.rtt_ns` histogram (microseconds here, nanoseconds there).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Requests that received an `ok` reply.
    pub ok: f64,
    /// Requests answered with an error reply.
    pub errors: f64,
    /// Wall-clock duration of the run, seconds.
    pub elapsed_s: f64,
    /// Throughput, requests per second.
    pub qps: f64,
    /// Median round trip, microseconds.
    pub p50_us: f64,
    /// 90th percentile round trip, microseconds.
    pub p90_us: f64,
    /// 99th percentile round trip, microseconds.
    pub p99_us: f64,
    /// Slowest round trip, microseconds.
    pub max_us: f64,
}

/// The zipf(s) key sampler: precomputed CDF + binary search, so
/// per-request sampling is O(log keys) with no floating-point pow.
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the CDF over ranks `1..=keys` with weight `1 / rank^s`.
    pub fn new(keys: usize, s: f64) -> Self {
        assert!(keys > 0, "zipf needs at least one key");
        let mut cdf: Vec<f64> = Vec::with_capacity(keys);
        let mut total = 0.0;
        for rank in 1..=keys {
            total += (rank as f64).powf(-s);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        Self { cdf }
    }

    /// Maps a uniform draw in `[0, 1)` to a key index (0-based rank).
    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The synthetic per-key request features: deterministic low-discrepancy
/// scrambles of the key index, so distinct keys map to distinct cache
/// buckets and reruns hit the same population.
pub fn key_features(key: usize) -> (f64, f64, f64) {
    let frac = |x: f64| x - x.floor();
    let fp = 0.03 + 0.93 * frac((key as f64 + 1.0) * 0.618_033_988_749_894_9);
    let dram = 0.03 + 0.93 * frac((key as f64 + 1.0) * 0.754_877_666_246_693);
    let exec = 0.5 + 9.5 * frac((key as f64 + 1.0) * 0.554_958_132_087_371_1);
    (fp, dram, exec)
}

/// Every key's wire frames, serialized once before the clock starts:
/// the hot loop replays these bytes instead of re-serializing the same
/// request shapes millions of times.
struct FrameTable {
    /// Per key: the `predict` frame and the `select` frame.
    frames: Vec<(Vec<u8>, Vec<u8>)>,
    /// Per key: the workload name its replies must echo.
    workloads: Vec<String>,
}

impl FrameTable {
    fn build(keys: usize) -> Self {
        let mut frames = Vec::with_capacity(keys);
        let mut workloads = Vec::with_capacity(keys);
        for key in 0..keys {
            let (fp, dram, exec) = key_features(key);
            let workload = format!("wl-{key}");
            let predict = serde_json::to_string(&Request::predict(&workload, fp, dram, exec))
                .expect("a `Request` of strings and finite numbers always serializes")
                .into_bytes();
            let select = serde_json::to_string(&Request::select(
                &workload,
                fp,
                dram,
                exec,
                "edp",
                Some(0.05),
            ))
            .expect("a `Request` of strings and finite numbers always serializes")
            .into_bytes();
            frames.push((predict, select));
            workloads.push(workload);
        }
        Self { frames, workloads }
    }

    fn bytes(&self, key: usize, seq: u64, select_every: u64) -> &[u8] {
        let (predict, select) = &self.frames[key];
        if select_every > 0 && seq % select_every == select_every - 1 {
            select
        } else {
            predict
        }
    }
}

/// Shared per-connection accounting handles.
struct Recorder<'a> {
    ok: &'a AtomicU64,
    errors: &'a AtomicU64,
    rtt: &'a obs::Histogram,
    error_rtt: &'a obs::Histogram,
}

impl Recorder<'_> {
    /// Reads one reply off `client`, checks it answers the request for
    /// `key` (the in-order contract: a pipelined server must reply in
    /// request order, which the workload echo makes observable), and
    /// books the round trip against `sent`.
    fn take_reply(
        &self,
        client: &mut Client,
        table: &FrameTable,
        key: usize,
        sent: Instant,
    ) -> io::Result<()> {
        let frame = client
            .read_frame_raw()
            .map_err(|e| io::Error::new(io::ErrorKind::BrokenPipe, e.to_string()))?;
        let (ok, workload) = match fast::scan_reply(&frame) {
            Some((ok, workload)) => (ok, workload.map(str::to_string)),
            None => {
                // Non-canonical reply (shouldn't happen for predicts);
                // fall back to the full parser before judging it.
                let text = std::str::from_utf8(&frame)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                let resp: Response = serde_json::from_str(text)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                (resp.ok, resp.profile.map(|p| p.workload))
            }
        };
        if ok {
            let expected = &table.workloads[key];
            if workload.as_deref() != Some(expected.as_str()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "out-of-order response: expected workload `{expected}`, got {workload:?}"
                    ),
                ));
            }
            self.rtt.record_duration(sent.elapsed());
            self.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.error_rtt.record_duration(sent.elapsed());
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// Runs the configured load and reports. Transport failures abort the
/// run with the I/O error; protocol-level errors only bump `errors`.
pub fn run(config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let conns = config.connections.max(1);
    let zipf = ZipfSampler::new(config.keys.max(1), config.zipf_s);
    let table = FrameTable::build(config.keys.max(1));
    let ok = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let reg = obs::global();
    let rtt = reg.histogram("loadgen.rtt_ns");
    let error_rtt = reg.histogram("loadgen.error_rtt_ns");
    let ok_counter = reg.counter("loadgen.ok");
    let errors_counter = reg.counter("loadgen.errors");
    let started = Instant::now();
    std::thread::scope(|scope| -> io::Result<()> {
        let mut threads = Vec::with_capacity(conns);
        for conn in 0..conns {
            // Split `requests` as evenly as possible across connections.
            let share = config.requests / conns as u64
                + u64::from((conn as u64) < config.requests % conns as u64);
            let zipf = &zipf;
            let table = &table;
            let recorder = Recorder {
                ok: &ok,
                errors: &errors,
                rtt: &rtt,
                error_rtt: &error_rtt,
            };
            threads.push(scope.spawn(move || -> io::Result<()> {
                let mut client = Client::connect(&config.addr)?;
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    config
                        .seed
                        .wrapping_add(conn as u64)
                        .wrapping_mul(0x9E37_79B9),
                );
                let depth = config.pipeline.max(1);
                match config.pacing {
                    Pacing::Closed => {
                        // Closed loop: send a whole burst in one
                        // vectored write, then read its replies back in
                        // order — the wire shape the server's burst
                        // batching is built for.
                        let mut seq = 0u64;
                        let mut burst: Vec<usize> = Vec::with_capacity(depth);
                        while seq < share {
                            burst.clear();
                            while burst.len() < depth && seq + (burst.len() as u64) < share {
                                burst.push(zipf.sample(rng.random::<f64>()));
                            }
                            let frames: Vec<&[u8]> = burst
                                .iter()
                                .enumerate()
                                .map(|(i, &key)| {
                                    table.bytes(key, seq + i as u64, config.select_every)
                                })
                                .collect();
                            let sent = Instant::now();
                            client.send_frames(&frames)?;
                            for &key in &burst {
                                recorder.take_reply(&mut client, table, key, sent)?;
                            }
                            seq += burst.len() as u64;
                        }
                    }
                    Pacing::Open { rate_hz } => {
                        // Open loop: launch on the fixed schedule;
                        // never skip a slot because the server was
                        // slow. Up to `depth` requests ride in flight
                        // before a launch has to wait on a reply.
                        let gap = Duration::from_secs_f64(conns as f64 / rate_hz.max(1e-9));
                        let t0 = Instant::now();
                        let mut pending: VecDeque<(Instant, usize)> =
                            VecDeque::with_capacity(depth);
                        for seq in 0..share {
                            while pending.len() >= depth {
                                // `depth` ≥ 1, so this pops a request.
                                let Some((sent, key)) = pending.pop_front() else {
                                    break;
                                };
                                recorder.take_reply(&mut client, table, key, sent)?;
                            }
                            let due = t0 + gap.mul_f64(seq as f64);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            let key = zipf.sample(rng.random::<f64>());
                            let sent = Instant::now();
                            client.send_frames(&[table.bytes(key, seq, config.select_every)])?;
                            pending.push_back((sent, key));
                        }
                        while let Some((sent, key)) = pending.pop_front() {
                            recorder.take_reply(&mut client, table, key, sent)?;
                        }
                    }
                }
                Ok(())
            }));
        }
        for t in threads {
            t.join()
                .map_err(|_| io::Error::other("a loadgen connection thread panicked"))??;
        }
        Ok(())
    })?;
    let elapsed = started.elapsed().as_secs_f64();
    if config.shutdown_after {
        let mut client = Client::connect(&config.addr)?;
        let _ = client.call(&Request::shutdown());
    }
    let (ok, errors) = (ok.load(Ordering::Relaxed), errors.load(Ordering::Relaxed));
    ok_counter.add(ok);
    errors_counter.add(errors);
    Ok(LoadgenReport {
        ok: ok as f64,
        errors: errors as f64,
        elapsed_s: elapsed,
        qps: (ok + errors) as f64 / elapsed.max(1e-9),
        p50_us: rtt.percentile(0.50) as f64 / 1e3,
        p90_us: rtt.percentile(0.90) as f64 / 1e3,
        p99_us: rtt.percentile(0.99) as f64 / 1e3,
        max_us: rtt.max() as f64 / 1e3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_normalized_and_skewed() {
        let z = ZipfSampler::new(100, 1.0);
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        // Rank 1 should dominate under s=1: it alone carries
        // 1/H(100) ≈ 19% of the mass.
        assert!(z.cdf[0] > 0.15);
        // Sampling the extremes maps into range.
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.999_999_9), 99);
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for i in 0..10 {
            let u = (i as f64 + 0.5) / 10.0;
            assert_eq!(z.sample(u), i);
        }
    }

    #[test]
    fn key_features_are_valid_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for key in 0..512 {
            let (fp, dram, exec) = key_features(key);
            assert!((0.0..=1.0).contains(&fp));
            assert!((0.0..=1.0).contains(&dram));
            assert!(exec > 0.0);
            // Distinct keys land in distinct 1e-3 cache buckets.
            assert!(
                seen.insert(((fp * 1e3) as u64, (dram * 1e3) as u64)),
                "key {key} collided"
            );
        }
    }
}
