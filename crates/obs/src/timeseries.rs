//! Rolling time-series over the metrics registry: a fixed-capacity ring
//! of periodic snapshots ("ticks") plus windowed queries over them.
//!
//! A [`Sampler`] background thread captures one [`Tick`] per interval
//! (`DVFS_TS_INTERVAL` seconds, default 1.0). Each tick stores counter
//! and gauge values plus, for every histogram, the *raw sparse bucket
//! counts* — not a percentile summary. Because counters and buckets are
//! monotone, any window statistic is a delta between two ticks:
//!
//! * rate over window = `(counter(last) - counter(base)) / dt`;
//! * windowed p50/p99 = percentile over the per-bucket count deltas;
//! * windowed good/total ratios (for SLO burn rates) = cumulative
//!   bucket deltas up to a threshold edge.
//!
//! This makes "p99 over the last 5 minutes" exact with respect to the
//! histogram's own ~3% bucket quantization, with no decay math and no
//! per-request cost beyond what the histogram already pays.

use crate::hist::bounds_of_index;
use crate::metrics::MetricsRegistry;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

/// One histogram's state at a tick: totals plus raw (non-cumulative)
/// sparse bucket counts, index-ascending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistTick {
    /// Total recorded values so far.
    pub count: u64,
    /// Sum of recorded values so far.
    pub sum: u64,
    /// `(bucket_index, count)` for every non-empty bucket.
    pub buckets: Vec<(usize, u64)>,
}

/// One periodic snapshot of the registry.
#[derive(Debug, Clone)]
pub struct Tick {
    /// Monotonic capture time.
    pub at: Instant,
    /// `(name, value)` for every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` for every histogram, name-sorted.
    pub histograms: Vec<(String, HistTick)>,
}

impl Tick {
    /// Captures the registry now.
    pub fn capture(registry: &MetricsRegistry) -> Self {
        let snap = registry.snapshot();
        let histograms = registry
            .histogram_entries()
            .into_iter()
            .map(|(name, h)| {
                (
                    name,
                    HistTick {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.sparse_buckets(),
                    },
                )
            })
            .collect();
        Self {
            at: Instant::now(),
            counters: snap.counters,
            gauges: snap.gauges,
            histograms,
        }
    }

    fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    fn histogram(&self, name: &str) -> Option<&HistTick> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }
}

/// A fixed-capacity ring of [`Tick`]s. Push-side is the sampler thread;
/// query-side is anyone holding the `Arc` (scrape handler, stats frame,
/// SLO engine). One short mutex around the deque — ticks are captured
/// *outside* the lock.
pub struct TimeSeries {
    ring: Mutex<VecDeque<Tick>>,
    capacity: usize,
}

impl TimeSeries {
    /// An empty series retaining at most `capacity` ticks (minimum 2 —
    /// a single tick supports no deltas).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(2),
        }
    }

    /// Captures one tick of `registry` and appends it, evicting the
    /// oldest past capacity.
    pub fn sample(&self, registry: &MetricsRegistry) {
        let tick = Tick::capture(registry);
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(tick);
    }

    /// Number of retained ticks.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether no tick has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The age of the oldest retained tick, i.e. how much history a
    /// window can actually cover.
    pub fn retained_span(&self) -> Duration {
        let ring = self.ring.lock();
        match ring.front() {
            Some(first) => first.at.elapsed(),
            None => Duration::ZERO,
        }
    }

    /// The delta window over the last `span`: from the oldest retained
    /// tick no older than `span` (relative to the newest tick) to the
    /// newest tick. `None` until two such ticks exist — windowed rates
    /// need a base to diff against.
    pub fn window(&self, span: Duration) -> Option<Window> {
        let ring = self.ring.lock();
        let last = ring.back()?;
        let base = ring.iter().find(|t| last.at.duration_since(t.at) <= span)?;
        let dt = last.at.duration_since(base.at);
        if dt.is_zero() {
            return None;
        }
        Some(Window {
            base: base.clone(),
            last: last.clone(),
            dt_s: dt.as_secs_f64(),
        })
    }
}

/// A pair of ticks bounding a time window, with delta queries.
#[derive(Debug, Clone)]
pub struct Window {
    base: Tick,
    last: Tick,
    /// Window length in seconds (always > 0).
    pub dt_s: f64,
}

impl Window {
    /// Counter increase across the window. Saturating: a registry reset
    /// mid-window reads as 0, not an underflow.
    pub fn counter_delta(&self, name: &str) -> u64 {
        let last = self.last.counter(name).unwrap_or(0);
        let base = self.base.counter(name).unwrap_or(0);
        last.saturating_sub(base)
    }

    /// Counter rate in events/second across the window.
    pub fn rate(&self, name: &str) -> f64 {
        self.counter_delta(name) as f64 / self.dt_s
    }

    /// The gauge's value at the window's end (gauges are last-write-wins
    /// — deltas are meaningless).
    pub fn gauge_last(&self, name: &str) -> Option<f64> {
        self.last.gauge(name)
    }

    /// `num_delta / (num_delta + den_delta)` over the window — e.g. a
    /// cache hit-rate from `hits` and `misses` counters. 0 when the
    /// window saw no events.
    pub fn ratio(&self, num: &str, den_rest: &str) -> f64 {
        let n = self.counter_delta(num) as f64;
        let d = n + self.counter_delta(den_rest) as f64;
        if d == 0.0 {
            0.0
        } else {
            n / d
        }
    }

    /// Per-bucket histogram deltas across the window, or `None` if the
    /// histogram was absent at either edge.
    pub fn hist_delta(&self, name: &str) -> Option<HistDelta> {
        let last = self.last.histogram(name)?;
        let base = self.base.histogram(name)?;
        let mut buckets = Vec::with_capacity(last.buckets.len());
        let mut bi = 0usize;
        for &(index, count) in &last.buckets {
            // Sparse merge: base buckets are index-ascending too.
            while bi < base.buckets.len() && base.buckets[bi].0 < index {
                bi += 1;
            }
            let base_count = match base.buckets.get(bi) {
                Some(&(i, c)) if i == index => c,
                _ => 0,
            };
            let delta = count.saturating_sub(base_count);
            if delta > 0 {
                buckets.push((index, delta));
            }
        }
        Some(HistDelta {
            count: last.count.saturating_sub(base.count),
            sum: last.sum.saturating_sub(base.sum),
            buckets,
        })
    }
}

/// Histogram activity within a window: what was recorded between two
/// ticks, in the same sparse-bucket shape as [`HistTick`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistDelta {
    /// Values recorded within the window.
    pub count: u64,
    /// Sum of values recorded within the window.
    pub sum: u64,
    /// `(bucket_index, count)` deltas, index-ascending, zeros omitted.
    pub buckets: Vec<(usize, u64)>,
}

impl HistDelta {
    /// Mean of values recorded in the window (0 when none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` among values recorded in the window,
    /// reported as its bucket midpoint (same rank convention as
    /// [`crate::Histogram::percentile`], without the exact min/max
    /// endpoints — a delta has no tracked extremes).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)) as u64;
        let mut seen = 0u64;
        for &(index, count) in &self.buckets {
            seen += count;
            if seen > rank {
                let (lo, width) = bounds_of_index(index);
                return lo + width / 2;
            }
        }
        match self.buckets.last() {
            Some(&(index, _)) => {
                let (lo, width) = bounds_of_index(index);
                lo + width / 2
            }
            None => 0,
        }
    }

    /// How many window values were `<= threshold`, counting a boundary
    /// bucket (one straddling the threshold) as entirely below it — the
    /// error is bounded by one bucket (~3% in value). Used as the
    /// "good events" numerator in latency SLOs.
    pub fn count_le(&self, threshold: u64) -> u64 {
        self.buckets
            .iter()
            .filter(|&&(index, _)| bounds_of_index(index).0 <= threshold)
            .map(|&(_, c)| c)
            .sum()
    }
}

/// Reads `DVFS_TS_INTERVAL` (seconds, fractional allowed) with a 1.0s
/// default, clamped to at least 10ms so a typo cannot spin a core.
pub fn interval_from_env() -> Duration {
    let secs = std::env::var("DVFS_TS_INTERVAL")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v > 0.0)
        .unwrap_or(1.0);
    Duration::from_secs_f64(secs.max(0.01))
}

/// Handle to the background sampler thread. Stops (joining the thread)
/// on [`Sampler::stop`] or drop.
pub struct Sampler {
    stop: Arc<StopSignal>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// The sampler's stop flag and the condition variable its thread waits
/// on between ticks, so a stop ends the wait at once.
#[derive(Default)]
struct StopSignal {
    stopped: Mutex<bool>,
    changed: Condvar,
}

impl Sampler {
    /// Spawns a thread sampling the global registry into `series` every
    /// `interval`. `pre_sample` runs before each capture — servers use
    /// it to publish derived metrics (cache stats, uptime) so ticks and
    /// scrapes see fresh values.
    pub fn start<F>(series: Arc<TimeSeries>, interval: Duration, pre_sample: F) -> Self
    where
        F: Fn() + Send + 'static,
    {
        let stop = Arc::new(StopSignal::default());
        let signal = Arc::clone(&stop);
        let ticks = crate::global().counter("obs.ts_ticks");
        let cost = crate::global().histogram("obs.ts_sample_ns");
        let handle = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || loop {
                let t0 = Instant::now();
                pre_sample();
                series.sample(crate::global());
                cost.record_duration(t0.elapsed());
                ticks.inc();
                // Sleep out the interval unless a stop arrives first.
                let stopped = signal.stopped.lock();
                let (stopped, _) = signal
                    .changed
                    .wait_timeout_while(stopped, interval, |stopped| !*stopped)
                    .unwrap_or_else(PoisonError::into_inner);
                if *stopped {
                    return;
                }
            })
            .expect("spawn obs-sampler thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        *self.stop.stopped.lock() = true;
        self.stop.changed.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_rates_come_from_counter_deltas() {
        let reg = MetricsRegistry::new();
        let ts = TimeSeries::new(16);
        let c = reg.counter("reqs");
        c.add(100);
        ts.sample(&reg);
        std::thread::sleep(Duration::from_millis(20));
        c.add(50);
        ts.sample(&reg);
        let w = ts.window(Duration::from_secs(60)).expect("two ticks");
        assert_eq!(w.counter_delta("reqs"), 50);
        assert!(w.rate("reqs") > 0.0);
        // Absent counters read as zero deltas, not panics.
        assert_eq!(w.counter_delta("nope"), 0);
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let reg = MetricsRegistry::new();
        let ts = TimeSeries::new(3);
        for i in 0..10u64 {
            reg.counter("c").set(i);
            ts.sample(&reg);
        }
        assert_eq!(ts.len(), 3);
        let w = ts.window(Duration::from_secs(3600)).unwrap();
        // Oldest retained tick holds 7 (ticks 7, 8, 9 survive).
        assert_eq!(w.counter_delta("c"), 2);
    }

    #[test]
    fn hist_delta_percentiles_see_only_window_traffic() {
        let reg = MetricsRegistry::new();
        let ts = TimeSeries::new(8);
        let h = reg.histogram("lat");
        // Old regime: fast requests.
        for _ in 0..1000 {
            h.record(1_000);
        }
        ts.sample(&reg);
        // New regime: slow requests only.
        for _ in 0..100 {
            h.record(1_000_000);
        }
        std::thread::sleep(Duration::from_millis(5));
        ts.sample(&reg);
        let w = ts.window(Duration::from_secs(60)).unwrap();
        let d = w.hist_delta("lat").unwrap();
        assert_eq!(d.count, 100);
        // Whole-histogram p50 is still fast; the *window* p50 is slow.
        assert!(h.percentile(0.5) < 2_000);
        let p50 = d.percentile(0.5);
        let (lo, width) = crate::hist::bucket_bounds(1_000_000);
        assert!(
            p50 >= lo && p50 < lo + width,
            "window p50 {p50} should sit in the slow bucket [{lo}, {})",
            lo + width
        );
        // count_le splits the window at a threshold between regimes.
        assert_eq!(d.count_le(10_000), 0);
        assert_eq!(d.count_le(2_000_000), 100);
        assert_eq!(d.mean() as u64, 1_000_000);
    }

    #[test]
    fn window_requires_two_ticks() {
        let reg = MetricsRegistry::new();
        let ts = TimeSeries::new(4);
        assert!(ts.window(Duration::from_secs(1)).is_none());
        ts.sample(&reg);
        assert!(ts.window(Duration::from_secs(1)).is_none());
    }

    #[test]
    fn sampler_thread_ticks_and_stops() {
        let ts = Arc::new(TimeSeries::new(64));
        let sampler = Sampler::start(Arc::clone(&ts), Duration::from_millis(10), || {});
        let deadline = Instant::now() + Duration::from_secs(5);
        while ts.len() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        sampler.stop();
        assert!(ts.len() >= 3, "sampler must have captured ticks");
    }

    #[test]
    fn stop_ends_a_long_interval_at_once() {
        let ts = Arc::new(TimeSeries::new(4));
        let sampler = Sampler::start(Arc::clone(&ts), Duration::from_secs(3600), || {});
        let deadline = Instant::now() + Duration::from_secs(5);
        while ts.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let t0 = Instant::now();
        sampler.stop();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "stop waited {:?} on an hour-long interval",
            t0.elapsed()
        );
        assert_eq!(ts.len(), 1, "one tick at start, none after the stop");
    }

    #[test]
    fn env_interval_has_a_floor_and_default() {
        // Only checks the pure parts — the env var itself is shared
        // process state other tests may race on.
        assert_eq!(
            interval_from_env().max(Duration::from_millis(10)),
            interval_from_env()
        );
    }
}
