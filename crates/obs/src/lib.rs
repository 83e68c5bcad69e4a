//! # obs — self-instrumentation for the DVFS stack
//!
//! Hermetic (no external dependencies beyond the in-tree `compat/`
//! crates) observability for *our own* pipeline: where `telemetry` is
//! the DCGM stand-in that profiles the synthetic GPU, `obs` watches the
//! training/prediction/serving code itself.
//!
//! Five pieces:
//!
//! * [`span!`] / [`span::Span`] — RAII tracing spans with nesting, wall
//!   clock timing, and a per-thread span stack that aggregates into a
//!   call-tree summary (`pipeline/train/epoch`);
//! * [`metrics::MetricsRegistry`] — named counters, gauges, and
//!   log-linear [`hist::Histogram`]s (p50/p90/p99/max). Lock-cheap: the
//!   registry mutex is taken only on name registration, all handles are
//!   shared atomics;
//! * [`export::MetricsSnapshot`] — human-readable table to stderr and
//!   machine-readable JSON via the compat `serde_json`, surfaced by the
//!   CLI's `--metrics[=json|table]` / `--metrics-out <path>` flags;
//! * [`trace`] — the flight recorder: typed timeline events in
//!   per-thread ring buffers (lock-free, zero steady-state allocation),
//!   exported as Chrome trace-event / Perfetto JSON by the CLI's
//!   `--trace-out <path>` flag. Every [`span!`] lands on the timeline
//!   automatically while tracing is enabled;
//! * [`quality`] — the model-drift monitor: rolling MAPE / max-APE over
//!   the last N predicted-vs-observed pairs per model, with an alert
//!   band that fires once per crossing (counter + `log!(Warn, …)` +
//!   trace instant). Reported by `dvfs monitor`;
//! * [`prom`] — Prometheus text exposition (0.0.4) of a registry, with
//!   log-linear histograms exported as cumulative
//!   `_bucket`/`_sum`/`_count` series, plus a strict validating parser;
//! * [`timeseries`] — a fixed-capacity ring of periodic registry
//!   snapshots (background [`timeseries::Sampler`], `DVFS_TS_INTERVAL`)
//!   answering windowed queries — rates, ratios, per-window percentiles
//!   — via snapshot deltas;
//! * [`slo`] — declarative objectives (latency threshold, error ratio,
//!   gauge band) with fast/slow multi-window burn-rate alerting,
//!   edge-triggered like the quality monitor;
//! * [`journal`] — the decision journal: an append-only segmented
//!   binary log (length prefix + CRC32 per record, size-based rotation
//!   under a disk budget, torn-tail truncation on open) fed by bounded
//!   per-producer rings drained by one writer thread — producers never
//!   block, a full ring drops and counts `journal.dropped`.
//!
//! Plus [`log!`], a leveled stderr logger filtered by the `DVFS_LOG`
//! environment variable (`off|error|warn|info|debug`, default `info`),
//! and [`worker_threads`], which sizes a parallel stage: by request, or
//! like the `rayon` pool, whose `current_num_threads` is the one reader
//! of `DVFS_THREADS`.
//!
//! ```
//! let requests = obs::global().counter("server.requests");
//! let latency = obs::global().histogram("server.latency_ns");
//! {
//!     obs::span!("serve");
//!     requests.inc();
//!     latency.record(800);
//! }
//! obs::log!(Info, "served {} request(s)", requests.get());
//! let snapshot = obs::MetricsSnapshot::global();
//! assert!(snapshot.to_json().contains("server.requests"));
//! ```

pub mod export;
pub mod hist;
pub mod journal;
pub mod log;
pub mod metrics;
pub mod prom;
pub mod quality;
pub mod slo;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use export::{attach_json, fmt_ns, MetricsSnapshot};
pub use hist::{Histogram, HistogramSnapshot};
pub use journal::{JournalConfig, JournalProducer, JournalRecord, JournalWriter};
pub use log::Level;
pub use metrics::{global, Counter, Gauge, MetricsRegistry};
pub use quality::{QualityConfig, QualityMonitor, QualityStat};
pub use serde::value::Value;
pub use slo::{SloEngine, SloKind, SloSpec, SloStatus};
pub use span::{Span, SpanStat};
pub use timeseries::{HistDelta, Sampler, TimeSeries, Window};
pub use trace::{ArgValue, EventKind, TraceEvent};

/// Opens a tracing span for the rest of the enclosing scope.
///
/// ```
/// fn phase() {
///     obs::span!("phase");
///     // ... timed work ...
/// } // recorded on scope exit
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _obs_span_guard = $crate::span::Span::enter($name);
    };
}

/// Logs a leveled line to stderr, subject to the `DVFS_LOG` filter.
///
/// The first argument is a bare [`Level`] variant name:
///
/// ```
/// obs::log!(Info, "trained {} epochs", 25);
/// obs::log!(Debug, "cache key = {:?}", (1, 2));
/// ```
#[macro_export]
macro_rules! log {
    ($level:ident, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::$level) {
            $crate::log::write($crate::log::Level::$level, format_args!($($arg)*));
        }
    };
}

/// Worker threads for a parallel stage (training engine, collection
/// campaign): `requested` when positive, else the size of the `rayon`
/// pool, which `DVFS_THREADS` sets once, at the pool's first use
/// ([`rayon::current_num_threads`]).
pub fn worker_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        rayon::current_num_threads()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn worker_threads_default_to_the_pool_size() {
        assert_eq!(crate::worker_threads(3), 3);
        assert_eq!(crate::worker_threads(0), rayon::current_num_threads());
    }

    #[test]
    fn doc_example_flow_composes() {
        let reg = crate::MetricsRegistry::new();
        let c = reg.counter("requests");
        let h = reg.histogram("latency");
        {
            crate::span!("lib-doc-span");
            c.inc();
            h.record(123);
        }
        crate::log!(Debug, "composed {} request(s)", c.get());
        assert_eq!(c.get(), 1);
        assert_eq!(h.count(), 1);
        assert!(crate::span::stat("lib-doc-span").is_some());
    }
}
