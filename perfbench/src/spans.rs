//! In-memory span recorder for the traced run.
//!
//! A span records its name, start, end, parent span and request id. Spans
//! stay in memory while the run measures and are written out when it ends.
//! A layer's self time is its span's duration minus the time its child
//! spans cover. Recording is per thread; with recording off, [`begin`]
//! reads no clock, so the same code doubles as the untraced baseline that
//! gives the tracing overhead.

use gpu_dvfs::obs::trace::{EventKind, TraceEvent};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<u32>,
    pub req: u64,
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Ends its span when dropped. Guards must drop in reverse order of
/// creation (the natural order of nested scopes).
pub struct Guard(Option<u32>);

impl Guard {
    /// Renames the open span, for a call whose kind (say, a cache hit or
    /// miss) is known only once it has run.
    pub fn rename(&self, name: &'static str) {
        if let Some(index) = self.0 {
            REC.with(|r| r.borrow_mut().spans[index as usize].name = name);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let end = r.epoch.elapsed().as_nanos() as u64;
                r.spans[index as usize].end_ns = end;
                let closed = r.open.pop();
                debug_assert_eq!(closed, Some(index), "spans must close innermost first");
            });
        }
    }
}

/// Turns recording on or off for this thread and drops recorded spans.
pub fn reset(enabled: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.epoch = Instant::now();
        r.spans.clear();
        r.open.clear();
    });
    enable(enabled);
}

/// Turns recording on or off for this thread, keeping recorded spans.
pub fn enable(enabled: bool) {
    REC.with(|r| r.borrow_mut().enabled = enabled);
}

/// Opens a span under the innermost open one.
pub fn begin(name: &'static str, req: u64) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Guard(None);
        }
        let index = r.spans.len() as u32;
        let parent = r.open.last().copied();
        let start = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            req,
        });
        r.open.push(index);
        Guard(Some(index))
    })
}

/// Takes every span recorded on this thread so far.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// The spans the program's own `obs` instrumentation put on the flight
/// recorder's timeline (`obs::span!` emits a begin/end pair per span),
/// with each thread's nesting as the parent. Other event kinds are
/// skipped; times are the recorder's nanoseconds since its epoch.
pub fn from_trace(events: &[TraceEvent]) -> Vec<Span> {
    let mut spans: Vec<Span> = Vec::new();
    let mut open: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for e in events {
        let stack = open.entry(e.tid).or_default();
        match e.kind {
            EventKind::Begin => {
                let parent = stack.last().copied();
                stack.push(spans.len() as u32);
                spans.push(Span {
                    name: gpu_dvfs::obs::trace::name(e.name),
                    start_ns: e.ts_ns,
                    end_ns: e.ts_ns,
                    parent,
                    req: 0,
                });
            }
            EventKind::End => {
                if let Some(i) = stack.pop() {
                    spans[i as usize].end_ns = e.ts_ns;
                }
            }
            _ => {}
        }
    }
    spans
}

/// Appends `more` to `spans`, keeping each appended span's parent index.
pub fn append(spans: &mut Vec<Span>, more: &[Span]) {
    let base = spans.len() as u32;
    spans.extend(more.iter().map(|s| Span {
        parent: s.parent.map(|p| p + base),
        ..*s
    }));
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean span duration in nanoseconds (0 when the span never ran).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Count, total and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child);
    }
    out
}

/// Writes spans as CSV: `index,parent,req,name,start_ns,end_ns`.
pub fn write_csv(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index,parent,req,name,start_ns,end_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, i64::from);
        writeln!(
            out,
            "{i},{parent},{},{},{},{}",
            s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = [
            Span {
                name: "request",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                req: 1,
            },
            Span {
                name: "parse",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                req: 1,
            },
            Span {
                name: "predict",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
                req: 1,
            },
            Span {
                name: "engine",
                start_ns: 55,
                end_ns: 85,
                parent: Some(2),
                req: 1,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["request"].self_ns, 30);
        assert_eq!(t["predict"].self_ns, 10);
        assert_eq!(t["engine"].self_ns, 30);
        assert_eq!(t["parse"].mean_ns(), 30.0);
    }

    #[test]
    fn trace_spans_nest_per_thread_and_append_keeps_parents() {
        let name = gpu_dvfs::obs::trace::intern("phase");
        let event = |tid, seq, ts_ns, kind| TraceEvent {
            tid,
            seq,
            ts_ns,
            kind,
            name,
            value: 0,
            args: [None, None],
        };
        let events = [
            event(1, 0, 0, EventKind::Begin),
            event(1, 1, 10, EventKind::Begin),
            event(2, 0, 12, EventKind::Begin),
            event(1, 2, 15, EventKind::Counter),
            event(1, 3, 20, EventKind::End),
            event(2, 1, 25, EventKind::End),
            event(1, 4, 30, EventKind::End),
        ];
        let spans = from_trace(&events);
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].start_ns, spans[0].end_ns, spans[0].parent),
            (0, 30, None)
        );
        assert_eq!(
            (spans[1].start_ns, spans[1].end_ns, spans[1].parent),
            (10, 20, Some(0))
        );
        assert_eq!(
            (spans[2].start_ns, spans[2].end_ns, spans[2].parent),
            (12, 25, None)
        );
        assert_eq!(spans[0].name, "phase");
        assert_eq!(totals(&spans)["phase"].self_ns, 20 + 10 + 13);

        let mut all = vec![spans[2]];
        append(&mut all, &spans);
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[1].parent, None);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        reset(false);
        {
            let _g = begin("x", 0);
        }
        assert!(take().is_empty());
        reset(true);
        {
            let _outer = begin("outer", 7);
            let _inner = begin("inner", 7);
        }
        let spans = take();
        reset(false);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
