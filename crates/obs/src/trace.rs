//! Flight recorder: typed trace events in per-thread ring buffers,
//! exported as Chrome trace-event / Perfetto-compatible JSON.
//!
//! Where [`crate::span`](mod@crate::span) aggregates *totals* per call-tree path, the
//! flight recorder keeps a bounded *timeline*: the last
//! `DVFS_TRACE_CAP` (default 16384) events each thread produced, with
//! monotonic nanosecond timestamps, so a trace of the parallel engine —
//! shard workers, campaign threads, cache hits interleaving — can be
//! opened in `ui.perfetto.dev`.
//!
//! Design constraints, in order:
//!
//! * **Zero steady-state allocation.** Event names and string argument
//!   values are interned once into `u32` ids (leaked `&'static str`s);
//!   the hot record path touches only a fixed array of atomics.
//! * **No locks on the record path.** Each thread owns one ring buffer;
//!   slots are seqlock-stamped (`2·seq+1` while writing, `2·seq+2` when
//!   committed), so the drain — which runs under the registry lock on
//!   whatever thread asks for the trace — can read every buffer without
//!   stopping writers. A slot whose stamp changes mid-read is simply
//!   skipped: the trace is *lossy but bounded*, never torn.
//! * **Cheap when off.** Recording starts with one relaxed atomic load;
//!   when tracing is disabled (the default) every record call is a load
//!   and a branch.
//!
//! The export ([`chrome_trace_json`]) sorts events by timestamp and
//! repairs what ring-buffer wraparound can break: a `E` (end) whose `B`
//! (begin) was overwritten is dropped, and a `B` whose `E` fell off the
//! end is closed at the thread's last known timestamp — so the file is
//! always structurally valid for trace viewers.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// What an event means on the timeline (maps to a Chrome trace `ph`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ph: "B"`).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
    /// A point in time (`ph: "i"`).
    Instant,
    /// A span recorded after the fact with an explicit duration
    /// (`ph: "X"`); `value` is the duration in nanoseconds.
    Complete,
    /// A sampled numeric series (`ph: "C"`); `value` is the `f64` bits.
    Counter,
    /// The start of a flow arrow (`ph: "s"`); `value` is the flow id.
    FlowStart,
    /// The end of a flow arrow (`ph: "f"`); `value` is the flow id.
    FlowEnd,
}

impl EventKind {
    fn code(self) -> u64 {
        match self {
            EventKind::Begin => 1,
            EventKind::End => 2,
            EventKind::Instant => 3,
            EventKind::Complete => 4,
            EventKind::Counter => 5,
            EventKind::FlowStart => 6,
            EventKind::FlowEnd => 7,
        }
    }

    fn from_code(code: u64) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::Begin,
            2 => EventKind::End,
            3 => EventKind::Instant,
            4 => EventKind::Complete,
            5 => EventKind::Counter,
            6 => EventKind::FlowStart,
            7 => EventKind::FlowEnd,
            _ => return None,
        })
    }

    /// The Chrome trace-event phase letter.
    pub fn ph(self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
            EventKind::Complete => "X",
            EventKind::Counter => "C",
            EventKind::FlowStart => "s",
            EventKind::FlowEnd => "f",
        }
    }
}

/// A typed argument value attached to an event (at most two per event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// A float argument.
    F64(f64),
    /// An integer argument.
    U64(u64),
    /// A boolean argument (cache hit/miss and friends).
    Bool(bool),
    /// An interned string argument (workload names and friends).
    Str(u32),
}

impl ArgValue {
    fn encode(self) -> (u64, u64) {
        match self {
            ArgValue::F64(v) => (1, v.to_bits()),
            ArgValue::U64(v) => (2, v),
            ArgValue::Bool(v) => (3, v as u64),
            ArgValue::Str(id) => (4, u64::from(id)),
        }
    }

    fn decode(kind: u64, bits: u64) -> Option<ArgValue> {
        Some(match kind {
            1 => ArgValue::F64(f64::from_bits(bits)),
            2 => ArgValue::U64(bits),
            3 => ArgValue::Bool(bits != 0),
            4 => ArgValue::Str(bits as u32),
            _ => return None,
        })
    }
}

/// A decoded trace event, as produced by [`drain`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The recording thread's trace id (small integers, assigned in
    /// first-record order; the main thread is usually 1).
    pub tid: u64,
    /// The per-thread sequence number (strictly increasing per tid).
    pub seq: u64,
    /// Monotonic nanoseconds since the process's trace epoch.
    pub ts_ns: u64,
    /// What kind of event this is.
    pub kind: EventKind,
    /// The interned event name (resolve with [`name`]).
    pub name: u32,
    /// Kind-specific payload: duration (ns) for `Complete`, `f64` bits
    /// for `Counter`, the flow id for `FlowStart`/`FlowEnd`, else 0.
    pub value: u64,
    /// Up to two named arguments (interned name, value).
    pub args: [Option<(u32, ArgValue)>; 2],
}

// ---------------------------------------------------------------------------
// String interning
// ---------------------------------------------------------------------------

struct InternTable {
    ids: BTreeMap<&'static str, u32>,
    names: Vec<&'static str>,
}

static INTERN: Mutex<InternTable> = Mutex::new(InternTable {
    ids: BTreeMap::new(),
    names: Vec::new(),
});

thread_local! {
    // Per-thread cache so steady-state interning of a known name is a
    // BTreeMap lookup with no global lock and no allocation.
    static INTERN_CACHE: RefCell<BTreeMap<String, u32>> = const { RefCell::new(BTreeMap::new()) };
}

/// Interns `name`, returning a stable process-wide id. The first call
/// per string leaks it; steady-state calls hit a thread-local cache.
pub fn intern(name: &str) -> u32 {
    INTERN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(&id) = cache.get(name) {
            return id;
        }
        let mut table = INTERN.lock();
        let id = match table.ids.get(name) {
            Some(&id) => id,
            None => {
                let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
                let id = table.names.len() as u32;
                table.names.push(leaked);
                table.ids.insert(leaked, id);
                id
            }
        };
        drop(table);
        cache.insert(name.to_string(), id);
        id
    })
}

/// Resolves an interned id back to its string (`"?"` for unknown ids).
pub fn name(id: u32) -> &'static str {
    INTERN.lock().names.get(id as usize).copied().unwrap_or("?")
}

// ---------------------------------------------------------------------------
// Per-thread ring buffer (seqlock slots)
// ---------------------------------------------------------------------------

const WORDS: usize = 7;

struct Slot {
    /// 0 = empty; `2·seq+1` = being written; `2·seq+2` = committed.
    stamp: AtomicU64,
    /// Encoded event payload: `[ts_ns, kind<<32|name, value,
    /// arg0_meta, arg0_bits, arg1_meta, arg1_bits]` where `arg_meta`
    /// is `name<<8 | argkind` (0 = no argument).
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; WORDS],
        }
    }
}

/// One thread's fixed-capacity event ring. Single-writer (the owning
/// thread), any-reader (the drain): slot stamps make concurrent reads
/// safe — a reader that races a writer skips the slot instead of
/// observing a torn event.
pub struct RingBuffer {
    tid: u64,
    /// Events ever written (the owner's next sequence number). Owner
    /// writes with relaxed stores; readers only load.
    seq: AtomicU64,
    /// `slots.len() - 1`; the slot count is a power of two so the ring
    /// index is a mask instead of an integer division on the hot path.
    mask: u64,
    slots: Box<[Slot]>,
}

impl RingBuffer {
    /// A standalone ring with at least `capacity` slots (min 2, rounded
    /// up to the next power of two so indexing is a mask). Buffers used
    /// by the global recorder come from [`drain`]'s registry instead.
    pub fn new(tid: u64, capacity: usize) -> RingBuffer {
        let capacity = capacity.max(2).next_power_of_two();
        RingBuffer {
            tid,
            seq: AtomicU64::new(0),
            mask: capacity as u64 - 1,
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
        }
    }

    /// The ring's slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The trace id events from this ring carry.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Events ever recorded into this ring (not just those retained).
    pub fn written(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Records one event. Called only by the ring's owning thread; the
    /// path is lock-free and allocation-free.
    pub fn record(
        &self,
        ts_ns: u64,
        kind: EventKind,
        name: u32,
        value: u64,
        args: &[(u32, ArgValue)],
    ) {
        let seq = self.seq.load(Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        // Seqlock write: odd stamp, release fence, payload, even stamp.
        slot.stamp.store(2 * seq + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.words[0].store(ts_ns, Ordering::Relaxed);
        slot.words[1].store(kind.code() << 32 | u64::from(name), Ordering::Relaxed);
        slot.words[2].store(value, Ordering::Relaxed);
        for i in 0..2 {
            let (meta, bits) = match args.get(i) {
                Some(&(arg_name, v)) => {
                    let (code, bits) = v.encode();
                    ((u64::from(arg_name) << 8) | code, bits)
                }
                None => (0, 0),
            };
            slot.words[3 + 2 * i].store(meta, Ordering::Relaxed);
            slot.words[4 + 2 * i].store(bits, Ordering::Relaxed);
        }
        slot.stamp.store(2 * seq + 2, Ordering::Release);
        self.seq.store(seq + 1, Ordering::Relaxed);
    }

    /// Snapshots every committed slot, skipping any the owner is
    /// concurrently overwriting. Non-destructive; events come back in
    /// arbitrary slot order (sort by `seq` or `ts_ns`).
    pub fn read_all(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == 0 || stamp % 2 == 1 {
                continue; // empty or mid-write
            }
            let mut words = [0u64; WORDS];
            for (w, word) in words.iter_mut().zip(slot.words.iter()) {
                *w = word.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.stamp.load(Ordering::Relaxed) != stamp {
                continue; // overwritten while we copied
            }
            let seq = stamp / 2 - 1;
            let kind = match EventKind::from_code(words[1] >> 32) {
                Some(k) => k,
                None => continue,
            };
            let mut args = [None, None];
            for (i, arg) in args.iter_mut().enumerate() {
                let meta = words[3 + 2 * i];
                if meta == 0 {
                    continue;
                }
                *arg = ArgValue::decode(meta & 0xff, words[4 + 2 * i])
                    .map(|v| ((meta >> 8) as u32, v));
            }
            out.push(TraceEvent {
                tid: self.tid,
                seq,
                ts_ns: words[0],
                kind,
                name: (words[1] & 0xffff_ffff) as u32,
                value: words[2],
                args,
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Global recorder
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static BUFFERS: Mutex<Vec<Arc<RingBuffer>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<Option<(u64, Arc<RingBuffer>)>> = const { RefCell::new(None) };
}

/// Whether the flight recorder is on. One relaxed load — the entire
/// cost of a record call while tracing is disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the flight recorder on or off. Events recorded while off are
/// simply not recorded; buffers already written are kept.
pub fn set_enabled(on: bool) {
    // Pin the epoch before the first event so timestamps are small.
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Per-thread ring capacity: `DVFS_TRACE_CAP` if set and valid, else
/// 16384 events (≈1 MiB/thread). The ring rounds this up to the next
/// power of two.
fn capacity() -> usize {
    let cap = CAPACITY.load(Ordering::Relaxed);
    if cap != 0 {
        return cap;
    }
    let cap = std::env::var("DVFS_TRACE_CAP")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(16384);
    CAPACITY.store(cap, Ordering::Relaxed);
    cap
}

/// Monotonic nanoseconds since the trace epoch (first recorder use).
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    let d = epoch.elapsed();
    // u64 arithmetic (not `as_nanos`'s u128): saturates after ~584 years.
    d.as_secs()
        .saturating_mul(1_000_000_000)
        .saturating_add(u64::from(d.subsec_nanos()))
}

fn with_buffer(f: impl FnOnce(&RingBuffer)) {
    LOCAL.with(|local| {
        let generation = GENERATION.load(Ordering::Relaxed);
        let mut local = local.borrow_mut();
        match local.as_ref() {
            Some((g, buf)) if *g == generation => f(buf),
            _ => {
                let buf = Arc::new(RingBuffer::new(
                    NEXT_TID.fetch_add(1, Ordering::Relaxed),
                    capacity(),
                ));
                BUFFERS.lock().push(Arc::clone(&buf));
                f(&buf);
                *local = Some((generation, buf));
            }
        }
    });
}

/// Records an event with an explicit timestamp. Prefer the named
/// helpers ([`begin`], [`instant`], …) unless you measured `ts_ns`
/// yourself (e.g. [`complete`] start times).
#[inline]
pub fn record(ts_ns: u64, kind: EventKind, name: u32, value: u64, args: &[(u32, ArgValue)]) {
    if !enabled() {
        return;
    }
    with_buffer(|buf| buf.record(ts_ns, kind, name, value, args));
}

/// Opens a timeline span (`ph: "B"`). Pair with [`end`] on the same
/// thread.
#[inline]
pub fn begin(name: u32) {
    if !enabled() {
        return;
    }
    record(now_ns(), EventKind::Begin, name, 0, &[]);
}

/// Closes the innermost open timeline span (`ph: "E"`).
#[inline]
pub fn end(name: u32) {
    if !enabled() {
        return;
    }
    record(now_ns(), EventKind::End, name, 0, &[]);
}

/// Marks a point in time (`ph: "i"`) carrying up to two arguments.
#[inline]
pub fn instant(name: u32, args: &[(u32, ArgValue)]) {
    if !enabled() {
        return;
    }
    record(now_ns(), EventKind::Instant, name, 0, args);
}

/// Records a span after the fact (`ph: "X"`): it started at `start_ns`
/// (from [`now_ns`]) and ends now. The one-event form the hot paths
/// use — no B/E pairing to lose to wraparound.
#[inline]
pub fn complete(name: u32, start_ns: u64, args: &[(u32, ArgValue)]) {
    if !enabled() {
        return;
    }
    let end = now_ns();
    record(
        start_ns,
        EventKind::Complete,
        name,
        end.saturating_sub(start_ns),
        args,
    );
}

/// Samples a counter series (`ph: "C"`), e.g. a per-epoch loss.
#[inline]
pub fn counter(name: u32, value: f64) {
    if !enabled() {
        return;
    }
    record(now_ns(), EventKind::Counter, name, value.to_bits(), &[]);
}

/// Starts a flow arrow (`ph: "s"`) with `flow_id` linking it to the
/// matching [`flow_end`].
#[inline]
pub fn flow_start(name: u32, flow_id: u64) {
    if !enabled() {
        return;
    }
    record(now_ns(), EventKind::FlowStart, name, flow_id, &[]);
}

/// Ends a flow arrow (`ph: "f"`).
#[inline]
pub fn flow_end(name: u32, flow_id: u64) {
    if !enabled() {
        return;
    }
    record(now_ns(), EventKind::FlowEnd, name, flow_id, &[]);
}

/// Statistics about what the drain saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct DrainStats {
    /// Threads that have recorded at least one event.
    pub threads: usize,
    /// Events returned by this drain.
    pub retained: u64,
    /// Events written but no longer retrievable (overwritten by ring
    /// wraparound or skipped mid-write). Lossy-but-bounded by design.
    pub dropped: u64,
}

/// Snapshots every thread's ring under the registry lock, merged and
/// sorted by `(ts_ns, tid, seq)`. Non-destructive: draining twice
/// returns the same (or more) events. Also publishes
/// `trace.events_retained` / `trace.events_dropped` counters.
pub fn drain() -> (Vec<TraceEvent>, DrainStats) {
    let buffers = BUFFERS.lock();
    let mut events = Vec::new();
    let mut stats = DrainStats {
        threads: buffers.len(),
        ..Default::default()
    };
    let mut written = 0u64;
    for buf in buffers.iter() {
        written += buf.written();
        events.extend(buf.read_all());
    }
    drop(buffers);
    events.sort_by_key(|e| (e.ts_ns, e.tid, e.seq));
    stats.retained = events.len() as u64;
    stats.dropped = written.saturating_sub(stats.retained);
    crate::global()
        .counter("trace.events_retained")
        .set(stats.retained);
    crate::global()
        .counter("trace.events_dropped")
        .set(stats.dropped);
    (events, stats)
}

/// Disables tracing and detaches every thread's ring so the next event
/// starts a fresh buffer. For tests; racing writers on other threads
/// may still land events in the old generation's buffers, which are
/// discarded here.
pub fn reset() {
    ENABLED.store(false, Ordering::Relaxed);
    GENERATION.fetch_add(1, Ordering::Relaxed);
    BUFFERS.lock().clear();
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn push_args(out: &mut String, args: &[Option<(u32, ArgValue)>; 2]) {
    let present: Vec<&(u32, ArgValue)> = args.iter().flatten().collect();
    if present.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    for (i, (arg_name, value)) in present.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, name(*arg_name));
        out.push_str("\":");
        match value {
            ArgValue::F64(v) if v.is_finite() => out.push_str(&format!("{v}")),
            ArgValue::F64(v) => out.push_str(&format!("\"{v}\"")),
            ArgValue::U64(v) => out.push_str(&format!("{v}")),
            ArgValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            ArgValue::Str(id) => {
                out.push('"');
                escape_into(out, name(*id));
                out.push('"');
            }
        }
    }
    out.push('}');
}

fn push_event(out: &mut String, first: &mut bool, e: &TraceEvent) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let ts_us = e.ts_ns as f64 / 1000.0;
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3}",
        {
            let mut n = String::new();
            escape_into(&mut n, name(e.name));
            n
        },
        e.kind.ph(),
        e.tid
    ));
    match e.kind {
        EventKind::Complete => {
            out.push_str(&format!(",\"dur\":{:.3}", e.value as f64 / 1000.0));
        }
        EventKind::Counter => {
            let v = f64::from_bits(e.value);
            out.push_str(&format!(
                ",\"args\":{{\"value\":{}}}",
                if v.is_finite() {
                    format!("{v}")
                } else {
                    format!("\"{v}\"")
                }
            ));
            out.push('}');
            return;
        }
        EventKind::Instant => out.push_str(",\"s\":\"t\""),
        EventKind::FlowStart | EventKind::FlowEnd => {
            out.push_str(&format!(",\"cat\":\"flow\",\"id\":{}", e.value));
            if e.kind == EventKind::FlowEnd {
                out.push_str(",\"bp\":\"e\"");
            }
        }
        _ => {}
    }
    push_args(out, &e.args);
    out.push('}');
}

/// Renders events as a Chrome trace-event JSON document
/// (`{"traceEvents": [...]}`) that loads in `chrome://tracing` and
/// `ui.perfetto.dev`.
///
/// Ring wraparound can leave `B`/`E` pairs unmatched; the export keeps
/// the file structurally valid by dropping an `E` whose `B` was lost
/// and synthesizing an `E` (at the thread's last timestamp) for a `B`
/// whose `E` was lost.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    // Per-tid open-span stacks for sanitization, and last-seen ts.
    let mut open: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    for e in events {
        let ts = last_ts.entry(e.tid).or_insert(0);
        *ts = (*ts).max(e.ts_ns);
        match e.kind {
            EventKind::Begin => {
                open.entry(e.tid).or_default().push(e);
                push_event(&mut out, &mut first, e);
            }
            EventKind::End => {
                // Keep an end only when it closes the innermost open
                // begin *by name*; anything else means this end's begin
                // (or an intervening end) fell off the ring — drop it,
                // the unmatched begins get synthesized closers below.
                let stack = open.entry(e.tid).or_default();
                if stack.last().is_some_and(|b| b.name == e.name) {
                    stack.pop();
                    push_event(&mut out, &mut first, e);
                }
            }
            _ => push_event(&mut out, &mut first, e),
        }
    }
    // Close spans whose end fell off the ring (or never happened).
    for (tid, stack) in &open {
        let ts = last_ts.get(tid).copied().unwrap_or(0);
        for b in stack.iter().rev() {
            let closer = TraceEvent {
                ts_ns: ts,
                kind: EventKind::End,
                value: 0,
                args: [None, None],
                ..(*b).clone()
            };
            push_event(&mut out, &mut first, &closer);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Drains the recorder and writes the Chrome trace JSON to `path`.
/// Returns the drain statistics.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<DrainStats> {
    let (events, stats) = drain();
    std::fs::write(path, chrome_trace_json(&events))?;
    Ok(stats)
}

/// Tests that toggle the global recorder serialize on this lock (it
/// spans modules: span tests use it too).
#[cfg(test)]
pub(crate) static GLOBAL_TRACE_TESTS: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_resolvable() {
        let a = intern("trace-test-intern-a");
        let b = intern("trace-test-intern-b");
        assert_ne!(a, b);
        assert_eq!(intern("trace-test-intern-a"), a);
        assert_eq!(name(a), "trace-test-intern-a");
        assert_eq!(name(u32::MAX), "?");
    }

    #[test]
    fn ring_roundtrips_every_field() {
        let ring = RingBuffer::new(7, 16);
        let n = intern("rt-event");
        let an = intern("rt-arg");
        let ws = intern("rt-wl");
        ring.record(
            123,
            EventKind::Complete,
            n,
            456,
            &[(an, ArgValue::Bool(true)), (ws, ArgValue::Str(ws))],
        );
        ring.record(124, EventKind::Counter, n, 2.5f64.to_bits(), &[]);
        let mut events = ring.read_all();
        events.sort_by_key(|e| e.seq);
        assert_eq!(events.len(), 2);
        let e = &events[0];
        assert_eq!((e.tid, e.seq, e.ts_ns), (7, 0, 123));
        assert_eq!(e.kind, EventKind::Complete);
        assert_eq!(e.name, n);
        assert_eq!(e.value, 456);
        assert_eq!(e.args[0], Some((an, ArgValue::Bool(true))));
        assert_eq!(e.args[1], Some((ws, ArgValue::Str(ws))));
        assert_eq!(events[1].kind, EventKind::Counter);
        assert_eq!(f64::from_bits(events[1].value), 2.5);
        assert_eq!(events[1].args, [None, None]);
    }

    #[test]
    fn wraparound_keeps_the_newest_events() {
        let ring = RingBuffer::new(1, 8);
        let n = intern("wrap-event");
        for i in 0..20u64 {
            ring.record(i, EventKind::Instant, n, 0, &[]);
        }
        assert_eq!(ring.written(), 20);
        let mut events = ring.read_all();
        events.sort_by_key(|e| e.seq);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
        // Timestamps ride along with their sequence numbers.
        assert!(events.iter().all(|e| e.ts_ns == e.seq));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _guard = GLOBAL_TRACE_TESTS.lock();
        reset();
        let n = intern("disabled-event");
        instant(n, &[]);
        let (events, _) = drain();
        assert!(events.iter().all(|e| e.name != n));
    }

    #[test]
    fn global_drain_merges_sorted_and_counts_drops() {
        let _guard = GLOBAL_TRACE_TESTS.lock();
        reset();
        set_enabled(true);
        let n = intern("drain-event");
        for _ in 0..5 {
            instant(n, &[]);
        }
        let (events, stats) = drain();
        set_enabled(false);
        let mine: Vec<&TraceEvent> = events.iter().filter(|e| e.name == n).collect();
        assert_eq!(mine.len(), 5);
        assert!(stats.retained >= 5);
        for pair in events.windows(2) {
            assert!(
                (pair[0].ts_ns, pair[0].tid, pair[0].seq)
                    <= (pair[1].ts_ns, pair[1].tid, pair[1].seq),
                "drain output must be sorted"
            );
        }
    }

    #[test]
    fn export_is_valid_and_sanitizes_unbalanced_spans() {
        let b = intern("x-begin");
        let orphan = intern("x-orphan-end");
        let events = vec![
            TraceEvent {
                tid: 1,
                seq: 0,
                ts_ns: 1000,
                kind: EventKind::End, // begin fell off the ring
                name: orphan,
                value: 0,
                args: [None, None],
            },
            TraceEvent {
                tid: 1,
                seq: 1,
                ts_ns: 2000,
                kind: EventKind::Begin, // end fell off the ring
                name: b,
                value: 0,
                args: [None, None],
            },
            TraceEvent {
                tid: 1,
                seq: 2,
                ts_ns: 3000,
                kind: EventKind::Instant,
                name: intern("x-instant"),
                value: 0,
                args: [Some((intern("hit"), ArgValue::Bool(false))), None],
            },
        ];
        let json = chrome_trace_json(&events);
        // Orphan end dropped; dangling begin closed at the last ts.
        assert!(!json.contains("x-orphan-end"));
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
        assert!(json.contains("\"ts\":3.000"), "closer at last ts: {json}");
        assert!(json.contains("\"args\":{\"hit\":false}"));
        assert!(json.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn complete_events_carry_duration_in_microseconds() {
        let events = vec![TraceEvent {
            tid: 2,
            seq: 0,
            ts_ns: 1_500,
            kind: EventKind::Complete,
            name: intern("x-complete"),
            value: 2_500,
            args: [None, None],
        }];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.500"));
    }

    #[test]
    fn counter_and_flow_events_export_their_payloads() {
        let events = vec![
            TraceEvent {
                tid: 1,
                seq: 0,
                ts_ns: 10,
                kind: EventKind::Counter,
                name: intern("x-loss"),
                value: 0.125f64.to_bits(),
                args: [None, None],
            },
            TraceEvent {
                tid: 1,
                seq: 1,
                ts_ns: 20,
                kind: EventKind::FlowStart,
                name: intern("x-flow"),
                value: 42,
                args: [None, None],
            },
            TraceEvent {
                tid: 2,
                seq: 0,
                ts_ns: 30,
                kind: EventKind::FlowEnd,
                name: intern("x-flow"),
                value: 42,
                args: [None, None],
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("{\"value\":0.125}"));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"id\":42"));
        assert!(json.contains("\"bp\":\"e\""));
    }

    #[test]
    fn json_strings_are_escaped() {
        let tricky = intern("quote\"back\\slash");
        let events = vec![TraceEvent {
            tid: 1,
            seq: 0,
            ts_ns: 0,
            kind: EventKind::Instant,
            name: tricky,
            value: 0,
            args: [None, None],
        }];
        let json = chrome_trace_json(&events);
        assert!(json.contains("quote\\\"back\\\\slash"));
    }
}
