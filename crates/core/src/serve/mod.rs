//! `dvfs serve` — the online phase as a long-lived daemon.
//!
//! The paper's deployment story is a controller: profile a workload once
//! at the default clock, predict its power/time profile across the DVFS
//! grid, pick a frequency. This module packages that loop as a hermetic,
//! std-only TCP service:
//!
//! * [`framing`] — 4-byte big-endian length prefix + JSON payload, with
//!   an incremental reader that survives short reads and rejects
//!   oversized frames before allocating;
//! * [`protocol`] — the request/response structs
//!   (`predict`/`select`/`version`/`stats`/`reload`/`shutdown`);
//! * [`dispatch`] — sharded per-worker job queues with work stealing
//!   (one shard per worker, whole pipelined bursts land on one shard so
//!   they stay coalescible into one prediction batch);
//! * [`reply`] — pooled, generation-guarded reply slots replacing the
//!   per-request `mpsc::channel()` (workers swap serialization buffers
//!   into slots; steady state allocates nothing per request);
//! * [`server`] — [`server::Server`]: handler threads drain every frame
//!   a socket read buffered and serve the burst as one batch through the
//!   cached predictor against a [`crate::cache::ShardedProfileCache`]
//!   (plus a serialized-fragment cache per serving state): on the
//!   handler's own thread with a parked worker's serving state when the
//!   burst fits in one batch, else on the worker threads; replies leave
//!   in one vectored write, and every response names the
//!   [`crate::snapshot::ModelSnapshot`] version that produced it;
//! * [`loadgen`] — open-/closed-loop zipf load generator reporting
//!   throughput and p50/p90/p99 from the shared `loadgen.rtt_ns`
//!   histogram;
//! * [`telemetry`] — the HTTP side-port serving Prometheus text
//!   exposition (`/metrics`) and liveness (`/healthz`), plus the
//!   one-shot [`telemetry::http_get`] client behind `dvfs scrape` and
//!   `dvfs top`;
//! * [`journal`] — the per-decision audit payload written through
//!   [`obs::journal`] when `--journal-dir` is set, the energy-savings
//!   ledger it feeds, and the deterministic [`journal::replay`] engine
//!   behind `dvfs replay`.
//!
//! The observability plane rides on the same process: a background
//! sampler feeds an [`obs::TimeSeries`] of registry snapshots, an
//! [`obs::SloEngine`] turns its windows into burn rates and
//! edge-triggered alerts, and both the `stats` frame and the scrape
//! surfaces report from that shared view.

pub mod dispatch;
pub mod framing;
pub mod journal;
pub mod loadgen;
pub mod protocol;
pub mod reply;
pub mod server;
pub mod telemetry;

pub use dispatch::Dispatcher;
pub use framing::{write_frame, write_frames_vectored, FrameError, FrameReader, DEFAULT_MAX_FRAME};
pub use journal::{DecisionRecord, EnergyLedger, ReplayReport};
pub use loadgen::{LoadgenConfig, LoadgenReport, Pacing, ZipfSampler};
pub use protocol::{CacheStatsReply, QualityReply, Request, Response, ServerStatsReply, SloReply};
pub use reply::ReplyTable;
pub use server::{default_slos, Client, ServeConfig, Server, StopHandle};
pub use telemetry::http_get;
