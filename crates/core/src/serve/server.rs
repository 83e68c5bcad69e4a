//! The prediction server.
//!
//! Topology: one **acceptor** thread (blocked in `accept`), one
//! **handler** thread per connection (framing + protocol + control
//! commands), and `workers` **worker** threads that drain a sharded
//! job [`Dispatcher`]. Every one of them blocks on the event it serves;
//! a stop wakes them all (see [`Server::shutdown`]), and a handler that
//! finishes is joined by the next one to finish.
//!
//! **Where a batch runs.** What serving keeps across batches (the
//! snapshot binding, the fragment cache and its admission table, the
//! scratch buffers and the journal producer) is one *serving state* per
//! worker, each behind its own mutex, and a batch runs on whichever
//! thread holds a state. A burst of at most `max_batch` predicts runs on
//! its own handler thread: the handler borrows the state of a parked
//! worker with `try_lock`, starting from the connection's preferred
//! state (so a connection's hot keys stay in one fragment cache) and
//! skipping any worker that has popped work, and answers with no
//! cross-thread wake. A bigger burst, or one that finds no state free,
//! goes to the dispatcher as one job per predict, and the handler waits
//! for the workers' replies. Either way at most `workers` batches run at
//! once.
//!
//! The request path is built around four hot-path structures:
//!
//! * **Sharded dispatch** ([`super::dispatch`]) — each worker owns a
//!   queue shard; a handler pushes a whole pipelined burst to one shard
//!   (round-robin across bursts) and an idle worker steals from a loaded
//!   sibling, so handlers and workers only contend when someone is
//!   otherwise idle.
//! * **Pooled replies** — the serving thread *swaps* its serialization
//!   buffer into the request's reply buffer and takes the old buffer back
//!   as scratch, so the steady state allocates nothing per request. A
//!   dispatched burst's replies go through the connection's
//!   generation-guarded [`ReplyTable`] ([`super::reply`]); an inline
//!   burst's go straight into the handler's buffers.
//! * **Zero-copy framing** ([`super::framing`]) — the handler drains
//!   every frame buffered by one socket read (pipelining) and coalesces
//!   consecutive `predict`/`select` frames into **one** batch; all their
//!   replies leave in a single vectored write, length prefixes and
//!   payloads as separate iovecs.
//! * **Serde-free hot shapes** ([`super::protocol::fast`]) — predict
//!   frames parse and responses render without the boxed JSON value
//!   tree, byte-identical to the serde path (pinned by tests); each
//!   serving state additionally caches the serialized,
//!   workload-independent profile fragment per (quantized activities,
//!   exec time), admitted on the key's second sighting, so a hot key's
//!   response is a few memcpys and a key seen once stores nothing.
//!
//! Each serving state binds to the current [`ModelSnapshot`] and
//! rebinds (dropping its per-snapshot fragment cache) when
//! [`ModelStore::changed_since`], checked before every batch, reports a
//! publish; a publish also wakes the parked workers, which rebind at
//! once. A snapshot swap never blocks a reader and never stalls the
//! queues; a batch is served by a version at least as new as the one
//! current when it started (the response carries that version id), so
//! versions never move backwards on a connection.
//!
//! The profile cache is a [`ShardedProfileCache`] with one shard per
//! worker, rounded up to a power of two: requests touch only the shard
//! their quantized key hashes to, and fragment hits are
//! booked into the same counters
//! ([`ShardedProfileCache::record_front_hits`]) so `lookups == hits +
//! misses` stays true for the request stream as a whole.

use super::dispatch::Dispatcher;
use super::framing::{write_frame, write_frames_vectored, Fill, FrameError, FrameReader};
use super::protocol::{
    fast, parse_objective, CacheStatsReply, QualityReply, Request, Response, ServerStatsReply,
    SloReply,
};
use super::reply::ReplyTable;
use super::telemetry;
use crate::cache::{CacheHandle, CacheKey, ShardedProfileCache};
use crate::models::PowerTimeModels;
use crate::objective::select_optimal;
use crate::predictor::{PredictedProfile, Predictor};
use crate::snapshot::{ModelSnapshot, ModelStore, SnapshotMeta};
use gpu_model::{DvfsGrid, MetricSample};
use nn::Precision;
use obs::slo::{SloEngine, SloSpec};
use obs::timeseries::{Sampler, TimeSeries};
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a handler waits for the worker pool to answer a dispatched
/// batch before failing the requests (covers a crashed worker).
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// How long an acceptor waits after a failed `accept` (say, out of file
/// descriptors) before the next, so a lasting error does not spin it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long a stop waits to connect to its own listener (see
/// [`wake_listener`]).
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Max entries in each serving state's fragment cache before it is
/// reset wholesale (a cheap epoch clear beats per-entry LRU bookkeeping
/// at this size; the cache also clears on every snapshot rebind).
const FRAGMENT_CACHE_MAX: usize = 8192;

/// Slots in each serving state's [`Sightings`] table: twice the
/// fragment cache, 128 KiB of fingerprints.
const SIGHTING_SLOTS: usize = 2 * FRAGMENT_CACHE_MAX;

/// Server tunables. `Default` is sized for tests and smoke runs; the CLI
/// scales `workers` to the machine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker (prediction) threads, and serving states: at most this
    /// many batches run at once, on the workers or on the connection
    /// handlers that borrow a parked worker's state.
    pub workers: usize,
    /// Total cached profiles across all shards.
    pub cache_capacity: usize,
    /// Max jobs coalesced into one prediction batch.
    pub max_batch: usize,
    /// Max accepted frame payload, bytes.
    pub max_frame: usize,
    /// Bind address for the HTTP telemetry side-port (`None` disables
    /// the responder; the protocol-level `scrape` frame always works).
    pub telemetry_addr: Option<String>,
    /// Time-series sampler interval (`None` = `DVFS_TS_INTERVAL` env,
    /// default 1s).
    pub ts_interval: Option<Duration>,
    /// Retained time-series ticks (bounds how far back SLO windows can
    /// actually see).
    pub ts_capacity: usize,
    /// Rolling window the `stats` frame and `serve.window.*` gauges
    /// report over.
    pub stats_window: Duration,
    /// Declared objectives the burn-rate engine evaluates each tick.
    pub slos: Vec<SloSpec>,
    /// Precision requested for reloaded snapshots (`dvfs serve
    /// --precision`). Reduced-precision candidates still pass through the
    /// snapshot accuracy gate, so the *active* precision (exposed in
    /// `stats` and scrapes) may fall back to f64.
    pub precision: Precision,
    /// Decision-journal configuration (`dvfs serve --journal-dir`).
    /// `None` disables the journal; the energy ledger and its gauges
    /// stay live either way.
    pub journal: Option<obs::journal::JournalConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 4096,
            max_batch: 32,
            max_frame: super::framing::DEFAULT_MAX_FRAME,
            telemetry_addr: None,
            ts_interval: None,
            ts_capacity: 1024,
            stats_window: Duration::from_secs(10),
            slos: default_slos(),
            precision: Precision::F64,
            journal: None,
        }
    }
}

/// The stock serve objectives: p99 latency under 500µs at 99%,
/// availability (non-error replies) at 99.9%, and the power model's
/// rolling MAPE inside the paper's 12% band. Standard 5m/1h windows,
/// burn threshold 1.0; `dvfs serve --slo-*` flags override.
pub fn default_slos() -> Vec<SloSpec> {
    vec![
        SloSpec::latency("latency_p99", "serve.request_ns", 500_000, 0.99),
        SloSpec::error_ratio("availability", "serve.requests", "serve.errors", 0.999),
        SloSpec::gauge_below("quality_mape", "quality.power.mape", 12.0, 0.999),
    ]
}

/// One validated prediction request plus what its reply records.
struct Task {
    req: Request,
    t0: Instant,
    t0_ns: u64,
    /// Process-unique request id: the flow id tying the handler's
    /// `serve.recv` slice to the `serve.request` slice of the thread
    /// that served it on the trace timeline.
    req_id: u64,
}

impl AsRef<Task> for Task {
    fn as_ref(&self) -> &Task {
        self
    }
}

/// A task queued for the worker pool, plus its connection's reply slot.
struct Job {
    task: Task,
    /// The connection's reply table plus the slot coordinates the worker
    /// fills. The generation guard makes a timed-out batch's late fills
    /// harmless.
    reply: Arc<ReplyTable>,
    generation: u64,
    index: usize,
}

impl AsRef<Task> for Job {
    fn as_ref(&self) -> &Task {
        &self.task
    }
}

/// Shared server state.
struct Shared {
    store: Arc<ModelStore>,
    cache: ShardedProfileCache,
    dispatch: Dispatcher<Job>,
    /// One serving state per worker (see the module docs).
    serving: Box<[ServingSlot]>,
    /// Max predicts served as one batch.
    max_batch: usize,
    stats: ServeStats,
    /// Set once by [`Shared::stop`].
    stop: AtomicBool,
    /// The connection handlers, live and finished.
    conns: Mutex<Connections>,
    /// The listeners' bound addresses, which a stop connects to.
    local_addr: SocketAddr,
    telemetry_addr: Option<SocketAddr>,
    max_frame: usize,
    started: Instant,
    /// Rolling metric snapshots the sampler thread feeds; everything
    /// windowed (stats frame, `serve.window.*` gauges, SLO burn rates)
    /// reads from here.
    series: Arc<TimeSeries>,
    slo: SloEngine,
    stats_window: Duration,
    next_req_id: AtomicU64,
    errors: obs::Counter,
    /// Responses that failed to serialize and were degraded to an error
    /// frame instead of panicking the handler.
    serialize_errors: obs::Counter,
    /// The precision `reload` requests for fresh snapshots (the gate may
    /// still veto it down to f64 per snapshot).
    precision: Precision,
    /// Predicted-savings accounting; every `select` decision books its
    /// joules-vs-max-clock here whether or not the journal is enabled.
    ledger: super::journal::EnergyLedger,
}

/// The connection registry: a socket clone of every live connection,
/// so a stop can end its handler's blocked read, and the handlers that
/// finished but are not joined yet.
#[derive(Default)]
struct Connections {
    next_id: u64,
    live: HashMap<u64, LiveConnection>,
    /// Handlers past their last use of the registry. The next handler
    /// to finish joins them (so at most a few finished threads keep
    /// their stacks), and [`Server::join`] joins the rest.
    finished: Vec<JoinHandle<()>>,
}

struct LiveConnection {
    stream: TcpStream,
    /// The handler thread; `None` until its spawn returns.
    handle: Option<JoinHandle<()>>,
}

/// Deregisters a handler's connection when the handler returns or
/// unwinds.
struct Registered<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        join_handlers(self.shared.deregister(self.id));
    }
}

impl Shared {
    /// The connection registry, locked.
    fn registry(&self) -> MutexGuard<'_, Connections> {
        self.conns.lock().expect(
            "the registry's holders only insert, remove and move entries, which cannot panic",
        )
    }

    /// Stops the server and wakes every thread blocked on its event:
    /// the acceptor and the telemetry responder (their `accept` returns
    /// a connection of ours, see [`wake_listener`]), the connection
    /// handlers (their read sides
    /// shut down, so a blocked read returns EOF while replies still in
    /// flight go out), and the parked workers. Only the first call does
    /// anything.
    fn stop(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        wake_listener(self.local_addr);
        if let Some(addr) = self.telemetry_addr {
            wake_listener(addr);
        }
        for conn in self.registry().live.values() {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        self.dispatch.wake_all();
    }

    /// Registers an accepted connection under a fresh id, keeping a
    /// clone of its socket. Returns `None`, and the connection closes,
    /// once a stop has begun: checking the flag under the registry lock
    /// means every connection [`Shared::stop`] does not see is refused.
    fn register(&self, stream: &TcpStream) -> io::Result<Option<u64>> {
        let stream = stream.try_clone()?;
        let mut conns = self.registry();
        if self.stop.load(Ordering::Acquire) {
            return Ok(None);
        }
        let id = conns.next_id;
        conns.next_id += 1;
        conns.live.insert(
            id,
            LiveConnection {
                stream,
                handle: None,
            },
        );
        Ok(Some(id))
    }

    /// Drops connection `id` from the registry, parks its handler's
    /// `JoinHandle` (when the acceptor stored it already) among the
    /// finished ones, and returns the handlers that finished before it
    /// for the caller to join.
    fn deregister(&self, id: u64) -> Vec<JoinHandle<()>> {
        let (earlier, idle) = {
            let mut conns = self.registry();
            let own = conns.live.remove(&id).and_then(|conn| conn.handle);
            let earlier = std::mem::replace(&mut conns.finished, own.into_iter().collect());
            (earlier, conns.live.is_empty())
        };
        // Workers outlive the last connection of a stopping server.
        if idle && self.stop.load(Ordering::Acquire) {
            self.dispatch.wake_all();
        }
        earlier
    }

    /// Whether a worker may exit: stopped, no connection left that
    /// could push a job, and no job queued.
    fn drained(&self) -> bool {
        self.stop.load(Ordering::Acquire)
            && self.registry().live.is_empty()
            && self.dispatch.is_empty()
    }

    /// Refreshes every derived gauge in the registry: cache counters
    /// (which only move on publish), uptime, the rolling-window view,
    /// and the SLO burn rates. The sampler calls this before each tick
    /// so scrapes and exports always see live values.
    fn publish_live(&self) {
        self.cache.publish_stats();
        let reg = obs::global();
        reg.gauge("serve.uptime_s")
            .set(self.started.elapsed().as_secs_f64());
        reg.gauge("energy.predicted_joules_saved")
            .set(self.ledger.total_joules());
        if let Some(w) = self.series.window(self.stats_window) {
            reg.gauge("serve.window.qps").set(w.rate("serve.requests"));
            reg.gauge("serve.window.hit_rate")
                .set(w.ratio("cache.hits", "cache.misses"));
            // The ledger counter is millijoules; its window rate is
            // mJ/s, i.e. milliwatts of predicted savings.
            reg.gauge("serve.window.watts_saved")
                .set(w.rate("energy.predicted_joules_saved_mj") / 1e3);
            if let Some(d) = w.hist_delta("serve.request_ns") {
                reg.gauge("serve.window.p50_us")
                    .set(d.percentile(0.50) as f64 / 1_000.0);
                reg.gauge("serve.window.p99_us")
                    .set(d.percentile(0.99) as f64 / 1_000.0);
            }
        }
        self.slo.evaluate(&self.series);
    }
}

/// A running `dvfs serve` instance.
///
/// Start with [`Server::start`], stop with [`Server::shutdown`] (or a
/// `shutdown` frame from any client), reap with [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sampler: Option<Sampler>,
    telemetry: Option<JoinHandle<()>>,
    /// The decision journal's writer thread; stopped (final drain +
    /// flush) after the workers and handlers join, so every served
    /// decision lands.
    journal: Option<obs::journal::JournalWriter>,
}

/// Stops a [`Server`] from any thread (see [`Server::stop_handle`]); a
/// no-op once the server is gone.
#[derive(Clone)]
pub struct StopHandle(std::sync::Weak<Shared>);

impl StopHandle {
    /// Runs [`Server::shutdown`] if the server still exists.
    pub fn stop(&self) {
        if let Some(shared) = self.0.upgrade() {
            shared.stop();
        }
    }
}

impl Server {
    /// Binds `config.addr` and spawns the acceptor and worker threads.
    pub fn start(config: ServeConfig, store: Arc<ModelStore>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let telemetry_listener = match config.telemetry_addr.as_deref() {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let telemetry_addr = match &telemetry_listener {
            Some(tl) => Some(tl.local_addr()?),
            None => None,
        };
        let reg = obs::global();
        let worker_count = config.workers.max(1);
        let journal = match config.journal.clone() {
            Some(journal_config) => {
                let writer = obs::journal::JournalWriter::open(journal_config)?;
                obs::log!(
                    Info,
                    "serve: journal in {} ({} record(s) recovered)",
                    writer.dir().display(),
                    writer.recovered().records
                );
                Some(writer)
            }
            None => None,
        };
        // Each serving state gets its own bounded journal ring, so
        // producers never contend with each other, only with the drain.
        let serving = (0..worker_count)
            .map(|_| ServingSlot {
                claimed: AtomicBool::new(false),
                state: Mutex::new(ServingState::new(
                    store.load(),
                    journal.as_ref().map(|j| j.producer()),
                )),
            })
            .collect();
        let shared = Arc::new(Shared {
            store,
            cache: ShardedProfileCache::new(
                config.cache_capacity,
                worker_count.next_power_of_two(),
            ),
            dispatch: Dispatcher::new(worker_count),
            serving,
            max_batch: config.max_batch.max(1),
            stats: ServeStats::new(reg),
            stop: AtomicBool::new(false),
            conns: Mutex::new(Connections::default()),
            local_addr,
            telemetry_addr,
            max_frame: config.max_frame,
            started: Instant::now(),
            series: Arc::new(TimeSeries::new(config.ts_capacity)),
            slo: SloEngine::with_registry(config.slos.clone(), reg),
            stats_window: config.stats_window,
            next_req_id: AtomicU64::new(0),
            errors: reg.counter("serve.errors"),
            serialize_errors: reg.counter("serve.serialize_errors"),
            precision: config.precision,
            ledger: super::journal::EnergyLedger::new(),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn serve worker")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn serve acceptor")
        };
        // The sampler periodically captures a registry snapshot into the
        // time series; its pre-hook republishes the derived gauges so
        // each tick (and anything reading the registry) is fresh.
        let sampler = {
            let series = Arc::clone(&shared.series);
            let live = Arc::clone(&shared);
            let interval = config
                .ts_interval
                .unwrap_or_else(obs::timeseries::interval_from_env);
            Some(Sampler::start(series, interval, move || {
                live.publish_live()
            }))
        };
        let telemetry = match (telemetry_listener, telemetry_addr) {
            (Some(tl), Some(taddr)) => {
                let scrape_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("serve-telemetry".to_string())
                    .spawn(move || {
                        let stop_shared = Arc::clone(&scrape_shared);
                        telemetry::telemetry_loop(
                            tl,
                            move || stop_shared.stop.load(Ordering::Acquire),
                            move |path| match path {
                                "/metrics" => {
                                    scrape_shared.publish_live();
                                    Some((
                                        obs::prom::CONTENT_TYPE.to_string(),
                                        render_exposition(&scrape_shared),
                                    ))
                                }
                                "/healthz" => Some(("text/plain".to_string(), "ok\n".to_string())),
                                _ => None,
                            },
                        );
                    })
                    .expect("spawn serve telemetry");
                obs::log!(Info, "serve: telemetry on {taddr}");
                Some(handle)
            }
            _ => None,
        };
        obs::log!(Info, "serve: listening on {local_addr}");
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers,
            sampler,
            telemetry,
            journal,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The bound HTTP telemetry address, when `telemetry_addr` was set.
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.shared.telemetry_addr
    }

    /// Requests shutdown, as a `shutdown` frame does: the listeners stop
    /// accepting, each connection's handler answers what it has already
    /// read and closes, and the workers drain the shards and exit once
    /// the last connection is gone.
    pub fn shutdown(&self) {
        self.shared.stop();
    }

    /// A handle that runs [`Server::shutdown`] from another thread while
    /// this one waits in [`Server::join`].
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle(Arc::downgrade(&self.shared))
    }

    /// Connections whose handlers are still running.
    pub fn connections(&self) -> usize {
        self.shared.registry().live.len()
    }

    /// A consistent snapshot of the shared cache's counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.shared.cache.stats()
    }

    /// Waits for every thread to exit (call [`Server::shutdown`] first,
    /// or send a `shutdown` frame). Republishes the derived gauges so a
    /// `--metrics-out` export taken after join reflects the run.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers exit only after the last connection's handler has
        // deregistered, so what is left has finished or is finishing.
        let handlers = {
            let mut conns = self.shared.registry();
            let mut handlers = std::mem::take(&mut conns.finished);
            handlers.extend(conns.live.drain().filter_map(|(_, conn)| conn.handle));
            handlers
        };
        join_handlers(handlers);
        if let Some(sampler) = self.sampler.take() {
            sampler.stop();
        }
        if let Some(telemetry) = self.telemetry.take() {
            let _ = telemetry.join();
        }
        // Workers are gone, so the rings are quiescent: one final drain
        // makes every decision durable before the process can exit.
        if let Some(journal) = self.journal.take() {
            journal.stop();
        }
        self.shared.publish_live();
    }
}

/// The exposition document a scrape (HTTP or `scrape` frame) returns:
/// the global registry plus the build-info pseudo-metric, labeled with
/// the precision the live snapshot actually serves (post-veto).
fn render_exposition(shared: &Shared) -> String {
    let precision = shared.store.load().precision();
    obs::prom::render_with(
        obs::global(),
        &[(
            "dvfs_build_info",
            "dvfs build metadata",
            &[
                ("version", telemetry::BUILD_VERSION),
                ("git", telemetry::BUILD_GIT),
                ("precision", precision.name()),
            ],
        )],
    )
}

/// Accepts connections on `listener`, handing each to `serve`, until
/// `stopped()` holds when an `accept` returns; [`wake_listener`] makes
/// one return. A failed `accept` is logged and retried after
/// [`ACCEPT_BACKOFF`].
pub(crate) fn accept_until_stopped(
    listener: &TcpListener,
    what: &str,
    stopped: impl Fn() -> bool,
    mut serve: impl FnMut(TcpStream),
) {
    loop {
        let accepted = listener.accept();
        if stopped() {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => serve(stream),
            // A client that left before it was accepted, or a signal.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => {
                obs::log!(Warn, "{what}: accept failed: {e}");
                std::thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
}

/// Wakes a thread blocked in `accept` on `addr` by connecting to it
/// (through loopback when `addr` is unspecified). The connection closes
/// at once; the woken thread checks its stop flag before serving it.
pub(crate) fn wake_listener(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    if let Err(e) = TcpStream::connect_timeout(&target, WAKE_TIMEOUT) {
        obs::log!(Warn, "serve: cannot wake the listener on {addr}: {e}");
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let connections = obs::global().counter("serve.connections");
    accept_until_stopped(
        listener,
        "serve",
        || shared.stop.load(Ordering::Acquire),
        |stream| {
            if spawn_handler(stream, shared) {
                connections.inc();
            }
        },
    );
}

/// Registers `stream` and spawns its handler thread. A connection that
/// cannot be registered or given a thread is dropped with a warning;
/// one that arrives once a stop has begun is dropped silently. Returns
/// whether a handler took the connection.
fn spawn_handler(stream: TcpStream, shared: &Arc<Shared>) -> bool {
    let id = match shared.register(&stream) {
        Ok(Some(id)) => id,
        Ok(None) => return false,
        Err(e) => {
            obs::log!(
                Warn,
                "serve: dropping a connection: cannot register it: {e}"
            );
            return false;
        }
    };
    let handler_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("serve-conn".to_string())
        .spawn(move || {
            let _registered = Registered {
                shared: &handler_shared,
                id,
            };
            handle_connection(stream, &handler_shared, id);
        });
    match spawned {
        Ok(handle) => {
            let mut conns = shared.registry();
            match conns.live.get_mut(&id) {
                Some(conn) => conn.handle = Some(handle),
                // The handler finished already; the next one joins it.
                None => conns.finished.push(handle),
            }
            true
        }
        Err(e) => {
            obs::log!(
                Warn,
                "serve: dropping a connection: cannot spawn its handler: {e}"
            );
            join_handlers(shared.deregister(id));
            false
        }
    }
}

/// Joins finished connection handlers, logging any that panicked.
fn join_handlers(handles: Vec<JoinHandle<()>>) {
    for handle in handles {
        if let Err(panic) = handle.join() {
            let reason = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("a non-string payload");
            obs::log!(Error, "serve: a connection handler panicked: {reason}");
        }
    }
}

/// What one decoded frame asks of the connection handler. Consecutive
/// `Predict` actions coalesce into one batch; anything else is answered
/// on the handler thread (after flushing the batch, to keep replies in
/// request order).
enum Action {
    /// A validated `predict`/`select` bound for a serving state.
    Predict(Request),
    /// A control command answered on the handler thread.
    Control(Request),
    /// An immediate reply (decode or validation failure). Boxed so the
    /// hot `Predict` variant isn't padded out to `Response`'s size.
    Reply(Box<Response>),
}

/// Per-connection handler: drains every frame each socket read buffered,
/// batches the prediction run, and answers in request order.
struct Connection<'a> {
    stream: TcpStream,
    shared: &'a Arc<Shared>,
    reader: FrameReader,
    /// The serving state this connection tries first when it serves a
    /// burst itself.
    preferred: usize,
    /// This connection's reply slots for dispatched bursts (shared with
    /// the worker pool).
    table: Arc<ReplyTable>,
    /// The run of predicts decoded since the last flush (reused between
    /// bursts).
    pending: Vec<Request>,
    /// The flushed run, stamped, while it is served (reused between
    /// bursts).
    tasks: Vec<Task>,
    /// The burst's reply buffers, filled inline or collected from the
    /// table (reused between bursts).
    replies: Vec<Vec<u8>>,
    /// Scratch for handler-side (control/error) responses.
    scratch: Vec<u8>,
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, id: u64) {
    let _ = stream.set_nodelay(true);
    let mut conn = Connection {
        stream,
        shared,
        reader: FrameReader::new(),
        preferred: (id % shared.serving.len() as u64) as usize,
        table: Arc::new(ReplyTable::new()),
        pending: Vec::new(),
        tasks: Vec::new(),
        replies: Vec::new(),
        scratch: Vec::new(),
    };
    conn.run();
}

impl Connection<'_> {
    fn run(&mut self) {
        loop {
            // Once stopped, a handler answers the frames its last read
            // returned and closes: a client that keeps sending cannot
            // hold the server open.
            if self.shared.stop.load(Ordering::Acquire) {
                return;
            }
            // Blocks until the client sends, closes, or a stop shuts the
            // read side down (which reads as a close once the bytes that
            // arrived before it are consumed).
            match self.reader.fill(&mut self.stream) {
                Ok(Fill::Idle) => continue,
                Ok(Fill::Read(_)) => {}
                Err(_) => return,
            }
            // Handle every frame this read completed — that's the whole
            // pipelined burst — then dispatch the predicts still pending.
            loop {
                let action = match self.reader.next_frame(self.shared.max_frame) {
                    Ok(Some(frame)) => classify(frame),
                    Ok(None) => break,
                    Err(FrameError::TooLarge { announced, max }) => {
                        // The stream is desynced past the oversized
                        // frame; answer what came before it, then reply
                        // with the reason and drop the connection.
                        let resp =
                            Response::err(0, format!("frame of {announced} bytes exceeds {max}"));
                        self.handle(Action::Reply(Box::new(resp)));
                        return;
                    }
                    Err(_) => unreachable!("next_frame only fails on size"),
                };
                if !self.handle(action) {
                    return;
                }
            }
            if !self.flush_predicts() {
                return;
            }
        }
    }

    /// Handles one decoded frame in request order: a predict joins the
    /// pending run, anything else flushes that run first and is then
    /// answered on this thread. Returns false when the connection must
    /// close (shutdown or a dead socket).
    fn handle(&mut self, action: Action) -> bool {
        match action {
            Action::Predict(req) => {
                self.pending.push(req);
                true
            }
            Action::Reply(resp) => {
                if !self.flush_predicts() {
                    return false;
                }
                if !resp.ok {
                    self.shared.errors.inc();
                }
                self.respond(&resp)
            }
            Action::Control(req) => self.flush_predicts() && self.control(&req),
        }
    }

    /// Serves the pending predicts as one batch, on this thread when the
    /// run fits in a batch and a parked worker's state is free, else
    /// through the dispatcher, and writes every reply in one vectored
    /// write. Returns false when the socket died.
    fn flush_predicts(&mut self) -> bool {
        let n = self.pending.len();
        if n == 0 {
            return true;
        }
        let t0 = Instant::now();
        let t0_ns = obs::trace::now_ns();
        let first_id = self
            .shared
            .next_req_id
            .fetch_add(n as u64, Ordering::Relaxed)
            + 1;
        for (index, req) in self.pending.drain(..).enumerate() {
            let req_id = first_id + index as u64;
            if obs::trace::enabled() {
                // Flow start before closing the recv slice, so its
                // timestamp falls inside the slice and Perfetto draws
                // the arrow from here to the request span.
                obs::trace::flow_start(obs::trace::intern("serve.req"), req_id);
                obs::trace::complete(obs::trace::intern("serve.recv"), t0_ns, &[]);
            }
            self.tasks.push(Task {
                req,
                t0,
                t0_ns,
                req_id,
            });
        }
        if self.replies.len() < n {
            self.replies.resize_with(n, Vec::new);
        }
        let answered = (n <= self.shared.max_batch && self.serve_inline()) || self.dispatch();
        if answered {
            let spans: Vec<&[u8]> = self.replies[..n].iter().map(Vec::as_slice).collect();
            write_frames_vectored(&mut self.stream, &spans).is_ok()
        } else {
            let resp = Response::err(0, "server shutting down");
            for _ in 0..n {
                self.shared.errors.inc();
                if !self.respond(&resp) {
                    return false;
                }
            }
            true
        }
    }

    /// Serves the staged tasks on this thread with a parked worker's
    /// state, their replies landing in `self.replies`. Returns false,
    /// leaving the tasks staged, when no state is free.
    fn serve_inline(&mut self) -> bool {
        let Some(mut state) = self.shared.borrow_serving(self.preferred) else {
            return false;
        };
        let replies = &mut self.replies;
        state.serve(self.shared, &self.tasks, |i, buf| {
            std::mem::swap(&mut replies[i], buf);
        });
        drop(state);
        self.tasks.clear();
        true
    }

    /// Pushes the staged tasks to the dispatcher as one burst and
    /// collects their replies into `self.replies`. Returns false when
    /// the workers did not answer in time.
    fn dispatch(&mut self) -> bool {
        let generation = self.table.begin(self.tasks.len());
        let table = &self.table;
        self.shared
            .dispatch
            .push_batch(self.tasks.drain(..).enumerate().map(|(index, task)| Job {
                task,
                reply: Arc::clone(table),
                generation,
                index,
            }));
        // Workers drain the shards even after stop, so the replies
        // normally arrive; the timeout covers a worker that died.
        self.table
            .wait_collect(generation, &mut self.replies, REPLY_TIMEOUT)
    }

    /// Handles one control command on this thread. Returns false when the
    /// connection should close.
    fn control(&mut self, req: &Request) -> bool {
        let shared = self.shared;
        match req.cmd.as_str() {
            "ping" => {
                let resp = Response::ok(shared.store.current_version());
                self.respond(&resp)
            }
            "version" => {
                let snap = shared.store.load();
                let mut resp = Response::ok(snap.version);
                resp.label = Some(snap.meta.label.clone());
                self.respond(&resp)
            }
            "stats" => {
                let stats = shared.cache.stats();
                let mut resp = Response::ok(shared.store.current_version());
                resp.stats = Some(CacheStatsReply {
                    lookups: stats.lookups as f64,
                    hits: stats.hits as f64,
                    misses: stats.misses as f64,
                    evictions: stats.evictions as f64,
                    hit_rate: stats.hit_rate(),
                    resident: shared.cache.len() as f64,
                    shards: shared.cache.num_shards() as f64,
                });
                resp.server = Some(server_stats(shared));
                self.respond(&resp)
            }
            "scrape" => {
                shared.publish_live();
                let mut resp = Response::ok(shared.store.current_version());
                resp.text = Some(render_exposition(shared));
                self.respond(&resp)
            }
            "reload" => {
                let resp = reload(req, shared);
                if !resp.ok {
                    shared.errors.inc();
                }
                self.respond(&resp)
            }
            "shutdown" => {
                let resp = Response::ok(shared.store.current_version());
                let _ = self.respond(&resp);
                shared.stop();
                false
            }
            other => {
                shared.errors.inc();
                let resp = Response::err(0, format!("unknown command `{other}`"));
                self.respond(&resp)
            }
        }
    }

    /// Writes one handler-side response frame. Hot shapes render through
    /// the serde-free writer; anything else falls back to serde — and a
    /// response that fails even that is **degraded to an error frame**
    /// (never a panic: the server documents that malformed input and
    /// internal serialization trouble cannot take it down).
    fn respond(&mut self, resp: &Response) -> bool {
        self.scratch.clear();
        if !fast::write_response(&mut self.scratch, resp) {
            match serde_json::to_string(resp) {
                Ok(json) => self.scratch.extend_from_slice(json.as_bytes()),
                Err(e) => {
                    self.shared.serialize_errors.inc();
                    obs::log!(Warn, "serve: response failed to serialize: {e}");
                    let fallback =
                        Response::err(0, format!("internal error: response serialization: {e}"));
                    let wrote = fast::write_response(&mut self.scratch, &fallback);
                    debug_assert!(wrote, "error shape is always fast-serializable");
                }
            }
        }
        write_frame(&mut self.stream, &self.scratch).is_ok()
    }
}

/// Decodes one frame into an [`Action`]: the serde-free parser handles
/// the canonical shape; everything else (escapes, missing fields,
/// garbage) goes through the serde path so error semantics — including
/// exact error text — match the previous implementation.
fn classify(frame: &[u8]) -> Action {
    let req = match fast::parse_request(frame) {
        Some(req) => req,
        None => {
            let text = match std::str::from_utf8(frame) {
                Ok(text) => text,
                Err(e) => {
                    return Action::Reply(Box::new(Response::err(0, format!("bad request: {e}"))))
                }
            };
            match serde_json::from_str::<Request>(text) {
                Ok(req) => req,
                Err(e) => {
                    return Action::Reply(Box::new(Response::err(0, format!("bad request: {e}"))))
                }
            }
        }
    };
    match req.cmd.as_str() {
        "predict" | "select" => match validate(&req) {
            Ok(()) => Action::Predict(req),
            Err(reason) => Action::Reply(Box::new(Response::err(0, reason))),
        },
        _ => Action::Control(req),
    }
}

/// Builds the `server` section of the stats frame: uptime, build info,
/// the rolling-window view, and the current SLO + quality states.
fn server_stats(shared: &Arc<Shared>) -> ServerStatsReply {
    shared.publish_live();
    let window = shared.series.window(shared.stats_window);
    let (qps, hit_rate) = window
        .as_ref()
        .map(|w| {
            (
                w.rate("serve.requests"),
                w.ratio("cache.hits", "cache.misses"),
            )
        })
        .unwrap_or((0.0, 0.0));
    let (p50_us, p99_us) = window
        .as_ref()
        .and_then(|w| w.hist_delta("serve.request_ns"))
        .map(|d| {
            (
                d.percentile(0.50) as f64 / 1_000.0,
                d.percentile(0.99) as f64 / 1_000.0,
            )
        })
        .unwrap_or((0.0, 0.0));
    ServerStatsReply {
        uptime_s: shared.started.elapsed().as_secs_f64(),
        build_version: telemetry::BUILD_VERSION.to_string(),
        build_git: telemetry::BUILD_GIT.to_string(),
        precision: shared.store.load().precision().name().to_string(),
        window_s: shared.stats_window.as_secs_f64(),
        qps,
        p50_us,
        p99_us,
        hit_rate,
        slo: shared
            .slo
            .status()
            .into_iter()
            .map(|s| SloReply {
                name: s.name,
                target: s.target,
                burn_fast: s.burn_fast,
                burn_slow: s.burn_slow,
                firing: s.firing,
                alerts: s.alerts as f64,
            })
            .collect(),
        quality: obs::quality::snapshot()
            .into_iter()
            .map(|q| QualityReply {
                model: q.model,
                mape: q.mape,
                max_ape: q.max_ape,
                samples: q.samples as f64,
                alerts: q.alerts as f64,
                above_band: q.above_band,
            })
            .collect(),
        energy: super::protocol::EnergyReply {
            predicted_joules_saved: shared.ledger.total_joules(),
            decisions: shared.ledger.decisions() as f64,
            window_watts_saved: window
                .as_ref()
                .map(|w| w.rate("energy.predicted_joules_saved_mj") / 1e3)
                .unwrap_or(0.0),
            journal_appended: obs::global().counter("journal.appended").get() as f64,
            journal_dropped: obs::global().counter("journal.dropped").get() as f64,
        },
    }
}

fn validate(req: &Request) -> Result<(), String> {
    let need = |name: &str, v: Option<f64>| -> Result<f64, String> {
        match v {
            Some(v) if v.is_finite() => Ok(v),
            Some(_) => Err(format!("`{name}` must be finite")),
            None => Err(format!("`{}` requires `{name}`", req.cmd)),
        }
    };
    if req.workload.is_none() {
        return Err(format!("`{}` requires `workload`", req.cmd));
    }
    let fp = need("fp_active", req.fp_active)?;
    let dram = need("dram_active", req.dram_active)?;
    let exec = need("exec_time", req.exec_time)?;
    if !(0.0..=1.0).contains(&fp) || !(0.0..=1.0).contains(&dram) {
        return Err("activities must lie in [0, 1]".to_string());
    }
    if exec <= 0.0 {
        return Err("`exec_time` must be positive".to_string());
    }
    if req.cmd == "select" {
        let name = req
            .objective
            .as_deref()
            .ok_or_else(|| "`select` requires `objective`".to_string())?;
        parse_objective(name)?;
        if let Some(th) = req.threshold {
            if !th.is_finite() || th < 0.0 {
                return Err("`threshold` must be a non-negative fraction".to_string());
            }
        }
    }
    Ok(())
}

fn reload(req: &Request, shared: &Arc<Shared>) -> Response {
    let path = match req.path.as_deref() {
        Some(p) => p,
        None => return Response::err(0, "`reload` requires `path`"),
    };
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(e) => return Response::err(0, format!("read {path}: {e}")),
    };
    let models = match PowerTimeModels::from_json(&json) {
        Ok(models) => models,
        Err(e) => return Response::err(0, format!("parse {path}: {e}")),
    };
    let spec = shared.store.load().spec.clone();
    let version = shared.store.publish(ModelSnapshot::with_precision(
        models,
        spec,
        SnapshotMeta {
            label: path.to_string(),
            dataset_rows: 0,
            train_seconds: 0.0,
        },
        shared.precision,
    ));
    obs::log!(
        Info,
        "serve: reloaded models from {path} as version {version}"
    );
    // A publish invalidates every serving state's fragment cache; wake
    // parked workers so an idle server rebinds promptly too.
    shared.dispatch.wake_all();
    Response::ok(version)
}

/// Builds the default-clock reference sample a wire request stands for.
/// Only the fields the online phase reads are populated (workload,
/// activities, clock, exec time); the rest are zero. Shared with
/// [`super::journal::replay`] so the replayed reference is bit-identical
/// to the served one.
pub(crate) fn reference_from(req: &Request, max_core_mhz: f64) -> MetricSample {
    MetricSample {
        workload: req.workload.clone().unwrap_or_default(),
        run: 0,
        fp64_active: req.fp_active.unwrap_or(0.0),
        fp32_active: 0.0,
        sm_app_clock: max_core_mhz,
        dram_active: req.dram_active.unwrap_or(0.0),
        gr_engine_active: 0.0,
        gpu_utilization: 0.0,
        power_usage: 0.0,
        sm_active: 0.0,
        sm_occupancy: 0.0,
        pcie_tx_bytes: 0.0,
        pcie_rx_bytes: 0.0,
        exec_time: req.exec_time.unwrap_or(0.0),
    }
}

/// One cached serialized profile: the numeric response fragment
/// plus the vectors `select` needs. Both are pure functions of the
/// quantized cache key and the exact exec-time bits (the workload string
/// only names the profile — it never enters the math), so the entry is
/// shared across workloads that quantize alike.
struct Fragment {
    profile: PredictedProfile,
    tail: Box<[u8]>,
    /// FNV-1a digest of the predicted curves, computed once on insert
    /// so journaled fragment hits don't re-hash the profile. Only the
    /// journal record reads it, so it is 0 when the journal is off.
    digest: u64,
}

impl Fragment {
    fn view(&self) -> FragmentView<'_> {
        FragmentView {
            profile: &self.profile,
            tail: &self.tail,
            digest: self.digest,
        }
    }
}

/// What [`Responder::respond`] reads of a fragment, borrowed: from a
/// cached [`Fragment`], or from a miss that was not admitted (its
/// predicted profile and the serving state's reused tail buffer), so
/// that reply copies nothing.
#[derive(Clone, Copy)]
struct FragmentView<'a> {
    profile: &'a PredictedProfile,
    tail: &'a [u8],
    digest: u64,
}

/// The fragment cache's admission filter: a direct-mapped table of
/// fragment-key fingerprints, one per [`Binding`].
///
/// A miss stores its fragment only on the key's second sighting, when
/// the key's fingerprint already holds its slot. A key that never
/// repeats (an unseen application, a fresh profiling run) then costs one
/// slot write instead of a ~6 KB fragment that nothing reads again. Two
/// keys that share a slot evict each other's fingerprint, which only
/// delays their admission; replies never depend on the table.
struct Sightings {
    slots: Box<[u64]>,
}

impl Sightings {
    /// A table of `slots` empty slots (a power of two).
    fn new(slots: usize) -> Self {
        assert!(
            slots.is_power_of_two(),
            "sighting slots must be a power of two"
        );
        Self {
            slots: vec![0; slots].into_boxed_slice(),
        }
    }

    /// Records a sighting of fingerprint `fp` and reports whether its
    /// slot already held it.
    fn seen_before(&mut self, fp: u64) -> bool {
        // Zero marks an empty slot, so it is never stored as a
        // fingerprint; 0 and 1 share one.
        let fp = fp.max(1);
        // The high bits: FNV-1a mixes every input byte into them.
        let index = (fp >> (64 - self.slots.len().trailing_zeros())) as usize;
        let slot = &mut self.slots[index];
        let seen = *slot == fp;
        *slot = fp;
        seen
    }
}

/// A 64-bit fingerprint of a fragment key: the exec-time bits folded
/// into the cache key's FNV-1a shard hash.
fn fingerprint(key: &(CacheKey, u64)) -> u64 {
    key.1
        .to_le_bytes()
        .into_iter()
        .fold(key.0.shard_hash(), |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Interned trace/metric handles every serving thread records through.
struct ServeStats {
    requests: obs::Counter,
    batches: obs::Counter,
    latency: obs::Histogram,
    predict_latency: obs::Histogram,
    batch_len: obs::Histogram,
    trace_request: u32,
    trace_predict: u32,
    trace_flow: u32,
    trace_workload: u32,
    trace_version: u32,
    trace_hit: u32,
}

impl ServeStats {
    fn new(reg: &obs::MetricsRegistry) -> Self {
        Self {
            requests: reg.counter("serve.requests"),
            batches: reg.counter("serve.batches"),
            latency: reg.histogram("serve.request_ns"),
            predict_latency: reg.histogram("predict.request_ns"),
            batch_len: reg.histogram("serve.batch_len"),
            trace_request: obs::trace::intern("serve.request"),
            trace_predict: obs::trace::intern("predict.request"),
            trace_flow: obs::trace::intern("serve.req"),
            trace_workload: obs::trace::intern("workload"),
            trace_version: obs::trace::intern("version"),
            trace_hit: obs::trace::intern("hit"),
        }
    }
}

/// One worker's serving state and the worker's claim on it.
struct ServingSlot {
    /// Set while the worker has work for the state (a popped batch, or a
    /// rebind after a publish). Handlers skip a claimed slot, so a worker
    /// waits at most for the one batch a handler is already serving. A
    /// hint only: the mutex does the excluding.
    claimed: AtomicBool,
    state: Mutex<ServingState>,
}

impl ServingSlot {
    /// Runs `f` on the state for the slot's worker, waiting while a
    /// handler serves a batch with it.
    fn for_worker<R>(&self, f: impl FnOnce(&mut ServingState) -> R) -> R {
        self.claimed.store(true, Ordering::Relaxed);
        // A batch that panicked leaves nothing to repair (see
        // `ServingState`), so a poisoned state is served as it is.
        let out = f(&mut self.state.lock().unwrap_or_else(PoisonError::into_inner));
        self.claimed.store(false, Ordering::Relaxed);
        out
    }

    /// The state, unless the worker claimed it or a thread holds it.
    fn try_borrow(&self) -> Option<MutexGuard<'_, ServingState>> {
        if self.claimed.load(Ordering::Relaxed) {
            return None;
        }
        match self.state.try_lock() {
            Ok(state) => Some(state),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

impl Shared {
    /// A parked worker's serving state, trying `preferred` first and
    /// then the others in turn; `None` when every state is busy.
    fn borrow_serving(&self, preferred: usize) -> Option<MutexGuard<'_, ServingState>> {
        let n = self.serving.len();
        (0..n).find_map(|k| self.serving[(preferred + k) % n].try_borrow())
    }
}

/// What serving keeps across batches (see the module docs). A batch
/// clears or overwrites every buffer before it reads it, so one that
/// panicked midway leaves nothing to repair.
struct ServingState {
    binding: Binding,
    /// This state's bounded journal ring, when the journal is on.
    journal: Option<obs::journal::JournalProducer>,
    /// The reply being rendered; swapped into the reply's buffer, which
    /// comes back as the next scratch.
    scratch: Vec<u8>,
    /// The journal record being encoded.
    jbuf: Vec<u8>,
    /// Each miss renders its tail here; an admitted fragment keeps an
    /// exact-size copy.
    tail: Vec<u8>,
    miss_refs: Vec<MetricSample>,
    /// Each miss's batch index and fragment key, kept from pass 1.
    misses: Vec<(usize, (CacheKey, u64))>,
}

/// A serving state's view of one snapshot. A publish changes the models
/// and the version in the prefix, so a rebind replaces it whole.
struct Binding {
    /// Keeps the snapshot alive (and bitwise stable) even if a publish
    /// lands mid-batch.
    snap: Arc<ModelSnapshot>,
    freqs: Vec<f64>,
    /// The fixed response prefix: everything up to the profile's
    /// workload string, version already rendered.
    prefix: Vec<u8>,
    /// The serialized-fragment cache and its admission filter.
    fragments: HashMap<(CacheKey, u64), Fragment>,
    sightings: Sightings,
}

impl Binding {
    fn new(snap: Arc<ModelSnapshot>) -> Self {
        let freqs = DvfsGrid::for_spec(&snap.spec).used();
        let mut prefix = Vec::new();
        prefix.extend_from_slice(fast::RESPONSE_OK_HEAD);
        fast::write_f64(&mut prefix, snap.version as f64);
        prefix.extend_from_slice(fast::RESPONSE_PROFILE_HEAD);
        Self {
            snap,
            freqs,
            prefix,
            fragments: HashMap::new(),
            sightings: Sightings::new(SIGHTING_SLOTS),
        }
    }
}

impl ServingState {
    fn new(snap: Arc<ModelSnapshot>, journal: Option<obs::journal::JournalProducer>) -> Self {
        Self {
            binding: Binding::new(snap),
            journal,
            scratch: Vec::with_capacity(8 * 1024),
            jbuf: Vec::with_capacity(256),
            tail: Vec::with_capacity(4096),
            miss_refs: Vec::new(),
            misses: Vec::new(),
        }
    }

    /// Binds to the current snapshot if a publish landed since the last
    /// bind.
    fn rebind_if_stale(&mut self, store: &ModelStore) {
        if store.changed_since(self.binding.snap.version) {
            self.binding = Binding::new(store.load());
        }
    }

    /// Serves one batch of at most `max_batch` tasks, handing each
    /// task's reply to `deliver` with the task's index in `batch`:
    /// fragment-cache hits first, then every miss through one
    /// `predict_batch_cached` call. The batch is served by a snapshot at
    /// least as new as the one current when the call began.
    fn serve<T: AsRef<Task>>(
        &mut self,
        shared: &Shared,
        batch: &[T],
        mut deliver: impl FnMut(usize, &mut Vec<u8>),
    ) {
        self.rebind_if_stale(&shared.store);
        let Self {
            binding,
            journal,
            scratch,
            jbuf,
            tail,
            miss_refs,
            misses,
        } = self;
        let Binding {
            snap,
            freqs,
            prefix,
            fragments,
            sightings,
        } = binding;
        let responder = Responder {
            shared,
            prefix,
            version: snap.version,
            journal: journal.as_ref(),
        };
        shared.stats.batches.inc();
        shared.stats.batch_len.record(batch.len() as u64);
        // Pass 1: answer fragment-cache hits immediately; stage the
        // misses for one coalesced predict_batch_cached call.
        miss_refs.clear();
        misses.clear();
        for (i, task) in batch.iter().map(AsRef::as_ref).enumerate() {
            let key = fragment_key(&shared.cache, &snap.spec, &task.req, freqs);
            if let Some(fragment) = fragments.get(&key) {
                // Booked before the reply is delivered, so a `stats`
                // frame sent after this reply arrives counts the hit.
                shared.cache.record_front_hits(1);
                responder.respond(task, fragment.view(), &key, true, scratch, jbuf);
                responder.finish(task);
                deliver(i, scratch);
            } else {
                miss_refs.push(reference_from(&task.req, snap.spec.max_core_mhz));
                misses.push((i, key));
            }
        }
        if miss_refs.is_empty() {
            return;
        }
        // Every sweep runs on the snapshot's packed batch-fused engines
        // (f64 mode is bitwise-identical to the training-path forward).
        let predictor = Predictor::with_engines(&snap.models, &snap.engines, snap.spec.clone());
        let profiles = predictor.predict_batch_cached(&shared.cache, miss_refs, freqs);
        for (&(i, key), profile) in misses.iter().zip(profiles) {
            let task = batch[i].as_ref();
            if curves_are_finite(&profile) {
                tail.clear();
                fast::write_profile_tail(tail, &profile);
                let digest = match journal {
                    Some(_) => super::journal::profile_digest(&profile),
                    None => 0,
                };
                // A key seen for the first time replies from what it
                // already has; the second sighting stores the fragment.
                let view = if sightings.seen_before(fingerprint(&key)) {
                    // Epoch reset at capacity: cheaper than LRU chains
                    // for a cache this small, and misses just recompute.
                    if fragments.len() >= FRAGMENT_CACHE_MAX {
                        fragments.clear();
                    }
                    let fragment = fragments.entry(key).or_insert_with(|| Fragment {
                        profile,
                        tail: tail.as_slice().into(),
                        digest,
                    });
                    fragment.view()
                } else {
                    FragmentView {
                        profile: &profile,
                        tail,
                        digest,
                    }
                };
                responder.respond(task, view, &key, false, scratch, jbuf);
            } else {
                responder.write_overflow(task, scratch);
            }
            responder.finish(task);
            deliver(i, scratch);
        }
    }
}

/// Pops batches from the worker's shard (or a sibling's) and serves each
/// with the worker's own state, until the server is stopped and drained.
fn worker_loop(shared: &Shared, worker: usize) {
    let slot = &shared.serving[worker];
    let mut batch: Vec<Job> = Vec::with_capacity(shared.max_batch);
    // The dispatcher's wake epoch this worker last saw (see
    // `Dispatcher::pop_batch_parked`).
    let mut wakes = 0;
    loop {
        shared
            .dispatch
            .pop_batch_parked(worker, shared.max_batch, &mut wakes, &mut batch);
        if batch.is_empty() {
            // Woken with no work: a stop, or a publish, which the state
            // binds to now rather than at its next batch.
            if shared.drained() {
                return;
            }
            slot.for_worker(|state| state.rebind_if_stale(&shared.store));
            continue;
        }
        slot.for_worker(|state| {
            state.serve(shared, &batch, |i, buf| {
                let job = &batch[i];
                // A closed generation (handler timed out / moved on) is
                // fine; the work still warmed the caches.
                let _ = job.reply.fill(job.generation, job.index, buf);
            });
        });
        batch.clear();
    }
}

/// The fragment-cache key: the L2 cache key (quantized activities +
/// device/grid fingerprint) extended with the exact exec-time bits that
/// anchor absolute times. Everything in a predict/select response except
/// the workload name is a pure function of this pair and the snapshot.
fn fragment_key(
    cache: &ShardedProfileCache,
    spec: &gpu_model::DeviceSpec,
    req: &Request,
    freqs: &[f64],
) -> (CacheKey, u64) {
    (
        cache.key(
            spec,
            req.fp_active.unwrap_or(0.0),
            req.dram_active.unwrap_or(0.0),
            freqs,
        ),
        req.exec_time.unwrap_or(0.0).to_bits(),
    )
}

/// What composing a reply reads besides the task and its fragment,
/// bound for one batch.
struct Responder<'a> {
    shared: &'a Shared,
    prefix: &'a [u8],
    version: u64,
    journal: Option<&'a obs::journal::JournalProducer>,
}

impl Responder<'_> {
    /// Composes one task's response from a fragment into `scratch`.
    /// Byte-identical to serde-serializing the equivalent [`Response`]
    /// (pinned by protocol tests); `select` re-runs the objective on the
    /// cached vectors, which is deterministic in its inputs, so hits and
    /// misses answer bitwise alike.
    ///
    /// This is also where the audit trail forks off: every `select` books
    /// its predicted saving into the energy ledger, and with the journal
    /// enabled the full [`super::journal::DecisionRecord`] is encoded into
    /// `jbuf` and handed to the serving state's bounded ring — a full ring
    /// drops (`journal.dropped`), it never blocks the reply.
    fn respond(
        &self,
        task: &Task,
        fragment: FragmentView<'_>,
        key: &(CacheKey, u64),
        hit: bool,
        scratch: &mut Vec<u8>,
        jbuf: &mut Vec<u8>,
    ) {
        let stats = &self.shared.stats;
        let predict_t0 = Instant::now();
        let predict_t0_ns = obs::trace::now_ns();
        let selection = if task.req.cmd == "select" {
            let objective = parse_objective(task.req.objective.as_deref().unwrap_or(""))
                .expect("validated at dispatch");
            Some(select_optimal(
                &fragment.profile.frequencies,
                &fragment.profile.energy_j,
                &fragment.profile.time_s,
                objective,
                task.req.threshold,
            ))
        } else {
            None
        };
        let profile = fragment.profile;
        let max_idx = profile.max_freq_index();
        // Finite curves can still put E·T or E·T² past f64::MAX, or 1/T
        // past it for a near-zero exec_time.
        let overflow = selection
            .as_ref()
            .is_some_and(|s| !(s.score.is_finite() && s.perf_degradation.is_finite()));
        if overflow {
            self.write_overflow(task, scratch);
        } else {
            if let Some(s) = &selection {
                self.shared
                    .ledger
                    .record(profile.energy_j[max_idx] - profile.energy_j[s.index]);
            }
            if let Some(producer) = self.journal {
                let (chosen, decided_idx) = match &selection {
                    Some(s) => (
                        Some(super::journal::ChosenClock {
                            index: s.index as u32,
                            frequency_mhz: s.frequency_mhz,
                        }),
                        s.index,
                    ),
                    None => (None, max_idx),
                };
                super::journal::DecisionView {
                    version: self.version,
                    req_id: task.req_id,
                    select: selection.is_some(),
                    hit,
                    workload: task.req.workload.as_deref().unwrap_or(""),
                    fp_active: task.req.fp_active.unwrap_or(0.0),
                    dram_active: task.req.dram_active.unwrap_or(0.0),
                    exec_time: task.req.exec_time.unwrap_or(0.0),
                    objective: task.req.objective.as_deref(),
                    threshold: task.req.threshold,
                    cache_key: key.0.shard_hash(),
                    profile_digest: fragment.digest,
                    chosen,
                    predicted_time_s: profile.time_s[decided_idx],
                    predicted_energy_j: profile.energy_j[decided_idx],
                    baseline_energy_j: profile.energy_j[max_idx],
                }
                .encode(jbuf);
                producer.append_buf(jbuf);
            }
            scratch.clear();
            scratch.extend_from_slice(self.prefix);
            fast::write_json_str(scratch, task.req.workload.as_deref().unwrap_or(""));
            scratch.extend_from_slice(fragment.tail);
            scratch.extend_from_slice(fast::RESPONSE_SELECTION_HEAD);
            match &selection {
                Some(s) => fast::write_selection(scratch, s),
                None => scratch.extend_from_slice(b"null"),
            }
            scratch.extend_from_slice(fast::RESPONSE_TAIL);
        }
        // Fragment hits answer without entering the predictor, so mirror
        // the predictor's own per-request surface here (latency histogram
        // + `predict.request` span with `hit=true`): predict accounting
        // stays 1:1 with requests no matter which cache layer answered.
        // Misses already recorded theirs inside `predict_batch_cached`.
        if hit {
            stats.predict_latency.record_duration(predict_t0.elapsed());
            if obs::trace::enabled() {
                let workload = task.req.workload.as_deref().unwrap_or("?");
                obs::trace::complete(
                    stats.trace_predict,
                    predict_t0_ns,
                    &[
                        (
                            stats.trace_workload,
                            obs::trace::ArgValue::Str(obs::trace::intern(workload)),
                        ),
                        (stats.trace_hit, obs::trace::ArgValue::Bool(true)),
                    ],
                );
            }
        }
    }

    /// Renders the error frame for a prediction that does not fit in
    /// f64. JSON has no inf or NaN: an `ok` reply would carry `null`s that
    /// no client can read back as numbers. Counted in `serve.errors`; the
    /// caller neither caches, journals nor books it.
    fn write_overflow(&self, task: &Task, scratch: &mut Vec<u8>) {
        self.shared.errors.inc();
        let exec = task.req.exec_time.unwrap_or(0.0);
        let resp = Response::err(
            self.version,
            format!("`exec_time` {exec:?} is out of range: the prediction overflows f64"),
        );
        scratch.clear();
        let wrote = fast::write_response(scratch, &resp);
        debug_assert!(wrote, "error shape is always fast-serializable");
    }

    /// Records a finished request.
    fn finish(&self, task: &Task) {
        let stats = &self.shared.stats;
        stats.requests.inc();
        stats.latency.record_duration(task.t0.elapsed());
        if obs::trace::enabled() {
            let workload = task.req.workload.as_deref().unwrap_or("?");
            // Flow end inside the request span (emitted just before the
            // span closes) — the arrow head lands on the serving slice.
            obs::trace::flow_end(stats.trace_flow, task.req_id);
            obs::trace::complete(
                stats.trace_request,
                task.t0_ns,
                &[
                    (
                        stats.trace_workload,
                        obs::trace::ArgValue::Str(obs::trace::intern(workload)),
                    ),
                    (stats.trace_version, obs::trace::ArgValue::U64(self.version)),
                ],
            );
        }
    }
}

/// Whether every entry of the predicted curves is finite. An exec_time
/// near f64::MAX anchors them past it.
fn curves_are_finite(profile: &PredictedProfile) -> bool {
    [
        &profile.frequencies,
        &profile.power_w,
        &profile.time_s,
        &profile.energy_j,
    ]
    .iter()
    .all(|curve| curve.iter().all(|v| v.is_finite()))
}

/// A blocking protocol client (loadgen, tests, CLI helpers).
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    max_frame: usize,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            reader: FrameReader::new(),
            max_frame: super::framing::DEFAULT_MAX_FRAME,
        })
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, FrameError> {
        let payload = serde_json::to_string(req).expect("request serializes");
        write_frame(&mut self.stream, payload.as_bytes()).map_err(FrameError::Io)?;
        self.read_response()
    }

    /// Sends raw bytes as one frame (protocol-abuse tests).
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    /// Sends several payloads as one pipelined burst: every frame in a
    /// single vectored write (the server answers them in order).
    pub fn send_frames(&mut self, payloads: &[&[u8]]) -> io::Result<()> {
        write_frames_vectored(&mut self.stream, payloads)
    }

    /// Reads one response frame (pairs with [`Client::send_raw`]).
    pub fn read_response(&mut self) -> Result<Response, FrameError> {
        let frame = self.read_frame_raw()?;
        let text = std::str::from_utf8(&frame)
            .map_err(|e| FrameError::Io(io::Error::new(io::ErrorKind::InvalidData, e)))?;
        serde_json::from_str(text).map_err(|e| {
            FrameError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response: {e}"),
            ))
        })
    }

    /// Reads one raw response frame without parsing it (the load
    /// generator scans these bytes instead of building a value tree).
    pub fn read_frame_raw(&mut self) -> Result<Vec<u8>, FrameError> {
        self.reader.read_frame(&mut self.stream, self.max_frame)
    }

    /// The underlying stream (tests poke at it to truncate frames).
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_sighting_is_admitted_and_first_is_not() {
        let mut table = Sightings::new(16);
        let fp = 0xdead_beef_0000_0042;
        assert!(!table.seen_before(fp), "first sighting admitted");
        assert!(table.seen_before(fp), "second sighting not admitted");
        assert!(table.seen_before(fp), "third sighting not admitted");
    }

    #[test]
    fn wake_listener_reaches_an_unspecified_bind_through_loopback() {
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let addr = listener.local_addr().unwrap();
        assert!(addr.ip().is_unspecified());
        let (accepted_tx, accepted_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || accepted_tx.send(listener.accept().is_ok()));
        wake_listener(addr);
        assert_eq!(
            accepted_rx.recv_timeout(Duration::from_secs(5)),
            Ok(true),
            "the blocked accept did not return"
        );
    }

    #[test]
    fn overwritten_slot_only_delays_admission() {
        let mut table = Sightings::new(16);
        // Same top four bits, so the same slot of sixteen.
        let (a, b) = (0x7000_0000_0000_0001, 0x7000_0000_0000_0002);
        assert!(!table.seen_before(a));
        assert!(!table.seen_before(b), "b took a's slot");
        assert!(!table.seen_before(a), "a's sighting was overwritten");
        assert!(
            table.seen_before(a),
            "a admitted once it holds the slot again"
        );
        // A key in another slot is unaffected by the contest.
        let c = 0x1000_0000_0000_0003;
        assert!(!table.seen_before(c));
        assert!(table.seen_before(c));
    }

    #[test]
    fn fingerprint_zero_is_never_seen_in_an_empty_slot() {
        let mut table = Sightings::new(16);
        assert!(
            !table.seen_before(0),
            "an empty slot read as a sighting of 0"
        );
        assert!(table.seen_before(0));
    }

    #[test]
    fn fingerprint_separates_exec_times_and_keys() {
        let cache = ShardedProfileCache::new(8, 1);
        let spec = gpu_model::DeviceSpec::ga100();
        let grid = [510.0, 1410.0];
        let k1 = cache.key(&spec, 0.5, 0.25, &grid);
        let k2 = cache.key(&spec, 0.25, 0.5, &grid);
        let fps = [
            fingerprint(&(k1, 1.0f64.to_bits())),
            fingerprint(&(k1, 2.0f64.to_bits())),
            fingerprint(&(k2, 1.0f64.to_bits())),
        ];
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[0], fps[2]);
        assert_eq!(fps[0], fingerprint(&(k1, 1.0f64.to_bits())));
    }
}
