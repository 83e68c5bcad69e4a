//! The `dvfs serve` child process (start, scrape, stop) and the `/proc`
//! readings the benchmark takes.

use crate::client::Session;
use gpu_dvfs::core::serve::Request;
use gpu_dvfs::obs::prom::{self, ParsedProm};
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which is
/// 100 on every mainstream architecture.
const US_PER_TICK: f64 = 10_000.0;

/// A running `dvfs serve`, started with its default flags.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon's exit summary line never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts `dvfs serve --models <models>` and waits for its
    /// `listening on ADDR` line.
    pub fn start(dvfs: &Path, models: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(dvfs)
            .arg("serve")
            .arg("--models")
            .arg(models)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let status = child.wait()?;
                return Err(io::Error::other(format!(
                    "dvfs serve exited before listening ({status})"
                )));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                let addr = addr.to_string();
                return Ok(Daemon {
                    child,
                    _stdout: stdout,
                    addr,
                });
            }
        }
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// User plus system CPU the daemon has used so far, µs.
    pub fn cpu_us(&self) -> io::Result<f64> {
        stat_cpu_us(&self.proc_file("stat")?, false)
    }

    /// Peak resident set size (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        vm_hwm_mb(&self.proc_file("status")?)
    }

    /// Stops the daemon with a `shutdown` frame on `session` and waits for
    /// it to exit (killing it if it has not within a few seconds).
    pub fn stop(mut self, session: &mut Session) -> io::Result<()> {
        let payload = serde_json::to_string(&Request::shutdown()).expect("request serializes");
        let sent = session.call(payload.as_bytes());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return sent.map(|_| ());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("dvfs serve did not exit after shutdown"))
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

/// User plus system CPU, µs, from a `/proc/<pid>/stat` document: the
/// process's own (`children == false`) or that of its reaped children.
pub fn stat_cpu_us(stat: &str, children: bool) -> io::Result<f64> {
    // Fields after the parenthesised command name; utime, stime, cutime
    // and cstime are the 14th to 17th fields overall.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let first = if children { 13 } else { 11 };
    let ticks = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    Ok((ticks(first)? + ticks(first + 1)?) * US_PER_TICK)
}

/// `VmHWM` from a `/proc/<pid>/status` document, in MB.
pub fn vm_hwm_mb(status: &str) -> io::Result<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// The daemon's metrics, read through its `scrape` frame.
pub fn scrape(session: &mut Session) -> io::Result<ParsedProm> {
    let payload = serde_json::to_string(&Request::scrape()).expect("request serializes");
    let reply = session.call(payload.as_bytes())?;
    let text = std::str::from_utf8(&reply).map_err(io::Error::other)?;
    let resp: gpu_dvfs::core::serve::Response =
        serde_json::from_str(text).map_err(|e| io::Error::other(format!("scrape reply: {e}")))?;
    let body = resp
        .text
        .ok_or_else(|| io::Error::other("scrape reply without text"))?;
    prom::parse(&body).map_err(io::Error::other)
}

/// Per-phase deltas of the daemon's own counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterDelta {
    pub requests: u64,
    pub errors: u64,
    pub batches: u64,
    pub batched_jobs: f64,
    pub request_p50_us: f64,
    pub request_p99_us: f64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CounterDelta {
    pub fn between(before: &ParsedProm, after: &ParsedProm) -> Self {
        let c = |name: &str| {
            let get = |p: &ParsedProm| p.counters.get(name).copied().unwrap_or(0);
            get(after).saturating_sub(get(before))
        };
        let batch = hist_delta(before, after, "serve_batch_len");
        let lat = hist_delta(before, after, "serve_request_ns");
        Self {
            requests: c("serve_requests"),
            errors: c("serve_errors"),
            batches: batch.count,
            batched_jobs: batch.sum,
            request_p50_us: lat.quantile(0.5) / 1e3,
            request_p99_us: lat.quantile(0.99) / 1e3,
            hits: c("cache_hits"),
            misses: c("cache_misses"),
            evictions: c("cache_evictions"),
        }
    }

    /// One line of the phase's counter deltas.
    pub fn summary(&self) -> String {
        format!(
            "serve.requests {} serve.errors {} serve.batch_len mean {:.2} over {} batches, \
             serve.request_ns p50 {:.1} p99 {:.1} µs, cache.hits {} cache.misses {} cache.evictions {}",
            self.requests,
            self.errors,
            self.batched_jobs / self.batches.max(1) as f64,
            self.batches,
            self.request_p50_us,
            self.request_p99_us,
            self.hits,
            self.misses,
            self.evictions
        )
    }

    /// Sums the counts of two phases (latency quantiles do not add; they
    /// keep `self`'s).
    pub fn add(&mut self, o: &CounterDelta) {
        self.requests += o.requests;
        self.errors += o.errors;
        self.batches += o.batches;
        self.batched_jobs += o.batched_jobs;
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
    }
}

/// The difference of two cumulative histogram scrapes.
struct HistDelta {
    /// `(upper edge, cumulative count)` over the phase.
    cumulative: Vec<(f64, u64)>,
    count: u64,
    sum: f64,
}

impl HistDelta {
    /// Upper bucket edge of quantile `q`; 0 with no samples.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        self.cumulative
            .iter()
            .find(|&&(_, c)| c >= rank)
            .map_or(f64::INFINITY, |&(le, _)| le)
    }
}

fn hist_delta(before: &ParsedProm, after: &ParsedProm, name: &str) -> HistDelta {
    let empty = prom::ParsedHistogram::default();
    let b = before.histograms.get(name).unwrap_or(&empty);
    let a = after.histograms.get(name).unwrap_or(&empty);
    // Buckets appear once non-empty, so `before` may lack an edge `after`
    // has: its cumulative count there is that of its highest edge below.
    let before_at = |le: f64| {
        b.buckets
            .iter()
            .take_while(|&&(edge, _)| edge <= le)
            .last()
            .map_or(0, |&(_, c)| c)
    };
    HistDelta {
        cumulative: a
            .buckets
            .iter()
            .map(|&(le, c)| (le, c.saturating_sub(before_at(le))))
            .collect(),
        count: a.count.saturating_sub(b.count),
        sum: a.sum - b.sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm() {
        let status = "Name:\tdvfs\nVmPeak:\t  9000 kB\nVmHWM:\t    6144 kB\n";
        assert_eq!(vm_hwm_mb(status).unwrap(), 6.0);
    }

    #[test]
    fn histogram_deltas_subtract_bucketwise() {
        let reg_before = gpu_dvfs::obs::MetricsRegistry::new();
        let h = reg_before.histogram("serve.request_ns");
        for v in [100, 100, 5000] {
            h.record(v);
        }
        let before = prom::parse(&prom::render(&reg_before)).unwrap();
        for v in [20_000, 20_000, 20_000, 100] {
            h.record(v);
        }
        let after = prom::parse(&prom::render(&reg_before)).unwrap();
        let d = hist_delta(&before, &after, "serve_request_ns");
        assert_eq!(d.count, 4);
        assert!(d.quantile(0.25) <= 128.0, "{}", d.quantile(0.25));
        assert!(d.quantile(0.5) >= 20_000.0);
    }
}
