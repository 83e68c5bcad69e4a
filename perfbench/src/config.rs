//! The fixed rates and latency limits of each workload.
//!
//! Sized on the reference box (2 vCPUs, `dvfs serve` with its default two
//! workers, one client connection): the light rate is at most about 10%
//! and the busy rate at most about 50% of the workload's seed
//! `max_rate_rps` (README.md says where each sits and why). The limits sit
//! above what the box's own scheduling noise produces below saturation, so
//! a ladder rung fails when the daemon falls behind, not when the host
//! delays a thread. They are constants so that every commit is measured at
//! the same offered load.

use crate::stream::Workload;

/// One workload's open-loop settings.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub light_rps: f64,
    pub busy_rps: f64,
    /// The p99 a ladder rung must meet, µs from due time.
    pub p99_limit_us: f64,
    /// The median latency of a rung's last quarter must stay under this,
    /// µs: above it, a backlog grew through the rung.
    pub backlog_limit_us: f64,
}

/// Ladder rung `k` offers `light_rps * LADDER_STEP^k` requests per second.
pub const LADDER_STEP: f64 = 1.05;
/// The highest rung (about 50 times the light rate).
pub const LADDER_TOP: i32 = 80;
/// Rungs skipped per coarse step before the search refines one at a time.
pub const LADDER_COARSE: i32 = 3;
/// The search starts this many rungs above the busy rate (about 1.55 times
/// it), so a run needs only a few probes.
pub const LADDER_START_ABOVE_BUSY: i32 = 9;
/// The generator is on schedule while its median lateness stays below
/// this, µs.
pub const SENDER_LATE_LIMIT_US: f64 = 1_000.0;

/// Share of `--seconds` given to each fixed-rate phase; the ladder gets
/// the rest.
pub const FIXED_PHASE_SHARE: f64 = 0.3;
/// Ladder probe length as a share of `--seconds` (a search takes five to
/// thirteen probes, repeats included).
pub const PROBE_SHARE: f64 = 1.0 / 15.0;

/// Daemon starts per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Replies compared with the in-process oracle per phase.
pub const ORACLE_SAMPLES: usize = 8;
/// Requests in flight during the closed-loop warm-up: more than one
/// 32-job batch, so both workers take part.
pub const WARMUP_WINDOW: usize = 64;

pub fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::HotRepeat => Plan {
            light_rps: 12_000.0,
            busy_rps: 60_000.0,
            p99_limit_us: 25_000.0,
            backlog_limit_us: 3_000.0,
        },
        Workload::FreshRuns | Workload::PaperRetrain => Plan {
            light_rps: 1_700.0,
            busy_rps: 8_500.0,
            p99_limit_us: 60_000.0,
            backlog_limit_us: 15_000.0,
        },
        Workload::UnseenApps => Plan {
            light_rps: 100.0,
            busy_rps: 500.0,
            p99_limit_us: 100_000.0,
            backlog_limit_us: 30_000.0,
        },
    }
}

impl Plan {
    pub fn rung_rps(&self, k: i32) -> f64 {
        self.light_rps * LADDER_STEP.powi(k)
    }

    /// The rung the ladder search starts from.
    pub fn start_rung(&self) -> i32 {
        let busy = ((self.busy_rps / self.light_rps).ln() / LADDER_STEP.ln()).round() as i32;
        busy + LADDER_START_ABOVE_BUSY
    }
}
