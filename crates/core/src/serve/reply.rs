//! Pooled reply slots for the serve request path.
//!
//! The previous path allocated one `mpsc::channel()` per request: a
//! heap-allocated queue, two `Arc`s, and a condvar handshake, all
//! discarded after a single message. A [`ReplyTable`] replaces that with
//! one table per connection, alive for the connection's lifetime: the
//! handler opens a *generation* covering the current pipelined batch,
//! workers fill indexed slots by **swapping** their serialization
//! buffer into the slot (taking the slot's previous buffer back as their
//! next scratch — zero copies, zero steady-state allocation), and the
//! handler collects the filled buffers the same way. Generations make
//! timeouts safe: a late fill against a closed generation is dropped
//! without touching the next batch's slots.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a table's lock is never poisoned.
const HOLDERS: &str =
    "a reply table's holders only swap buffers and bump counters, which cannot panic";

struct Slot {
    buf: Vec<u8>,
    full: bool,
}

struct Inner {
    generation: u64,
    expected: usize,
    filled: usize,
    slots: Vec<Slot>,
}

/// Per-connection reply slots shared between one handler and the worker
/// pool. See the module docs for the lifecycle.
pub struct ReplyTable {
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl Default for ReplyTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplyTable {
    /// Creates an empty table (no open generation).
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                generation: 0,
                expected: 0,
                filled: 0,
                slots: Vec::new(),
            }),
            ready: Condvar::new(),
        }
    }

    /// The table, locked.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect(HOLDERS)
    }

    /// Opens a new generation expecting `n` replies and returns its id.
    /// Implicitly closes the previous generation: stragglers filling
    /// against the old id are dropped.
    pub fn begin(&self, n: usize) -> u64 {
        let mut inner = self.lock();
        inner.generation += 1;
        inner.expected = n;
        inner.filled = 0;
        while inner.slots.len() < n {
            inner.slots.push(Slot {
                buf: Vec::new(),
                full: false,
            });
        }
        for slot in inner.slots.iter_mut().take(n) {
            slot.full = false;
        }
        inner.generation
    }

    /// Fills slot `index` of `generation` by swapping `buf` into it;
    /// `buf` comes back holding the slot's previous buffer (reusable
    /// capacity). Returns false — dropping the reply — when the
    /// generation has moved on (handler timed out or reset).
    pub fn fill(&self, generation: u64, index: usize, buf: &mut Vec<u8>) -> bool {
        let mut inner = self.lock();
        if inner.generation != generation || index >= inner.expected {
            return false;
        }
        let slot = &mut inner.slots[index];
        if slot.full {
            return false;
        }
        std::mem::swap(&mut slot.buf, buf);
        slot.full = true;
        inner.filled += 1;
        if inner.filled == inner.expected {
            self.ready.notify_one();
        }
        true
    }

    /// Waits until every slot of `generation` is filled, then swaps each
    /// slot buffer into `out[i]` (growing `out` as needed; handler-side
    /// buffers recycle the same way worker-side scratch does). On
    /// timeout the generation is closed so late fills are dropped, and
    /// `false` is returned — `out` contents are then unspecified.
    pub fn wait_collect(&self, generation: u64, out: &mut Vec<Vec<u8>>, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        while inner.generation == generation && inner.filled < inner.expected {
            let now = Instant::now();
            let Some(left) = deadline.checked_duration_since(now) else {
                break;
            };
            let (guard, _) = self.ready.wait_timeout(inner, left).expect(HOLDERS);
            inner = guard;
        }
        if inner.generation != generation || inner.filled < inner.expected {
            // Close the generation: stragglers must not land in slots
            // the next batch will reuse.
            if inner.generation == generation {
                inner.generation += 1;
                inner.expected = 0;
            }
            return false;
        }
        while out.len() < inner.expected {
            out.push(Vec::new());
        }
        for (slot, dst) in inner.slots.iter_mut().zip(out.iter_mut()) {
            std::mem::swap(&mut slot.buf, dst);
            slot.full = false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fill_and_collect_round_trip_in_index_order() {
        let table = ReplyTable::new();
        let generation = table.begin(3);
        // Fill out of order; collection is by index, not arrival.
        for index in [2usize, 0, 1] {
            let mut buf = format!("reply-{index}").into_bytes();
            assert!(table.fill(generation, index, &mut buf));
        }
        let mut out = Vec::new();
        assert!(table.wait_collect(generation, &mut out, Duration::from_secs(1)));
        let got: Vec<String> = out
            .iter()
            .map(|b| String::from_utf8(b.clone()).unwrap())
            .collect();
        assert_eq!(got, ["reply-0", "reply-1", "reply-2"]);
    }

    #[test]
    fn buffers_recycle_through_the_swap() {
        let table = ReplyTable::new();
        let mut scratch = Vec::with_capacity(4096);
        let mut out = vec![Vec::new()];
        for round in 0..3 {
            let generation = table.begin(1);
            scratch.clear();
            scratch.extend_from_slice(format!("round-{round}").as_bytes());
            assert!(table.fill(generation, 0, &mut scratch));
            assert!(table.wait_collect(generation, &mut out, Duration::from_secs(1)));
            assert_eq!(out[0], format!("round-{round}").as_bytes());
        }
        // After round 0 the original 4096-capacity buffer circulates
        // slot→out→(next fill swaps it back); no round allocates afresh
        // beyond the first rotation.
        assert!(scratch.capacity() > 0);
    }

    #[test]
    fn stale_generation_fill_is_dropped() {
        let table = ReplyTable::new();
        let old = table.begin(1);
        let new = table.begin(1);
        let mut buf = b"stale".to_vec();
        assert!(!table.fill(old, 0, &mut buf), "old generation must reject");
        assert!(table.fill(new, 0, &mut buf));
    }

    #[test]
    fn timeout_closes_the_generation() {
        let table = ReplyTable::new();
        let generation = table.begin(2);
        let mut buf = b"one".to_vec();
        assert!(table.fill(generation, 0, &mut buf));
        let mut out = Vec::new();
        assert!(!table.wait_collect(generation, &mut out, Duration::from_millis(10)));
        // The straggler now lands in a closed generation and is dropped.
        let mut late = b"late".to_vec();
        assert!(!table.fill(generation, 1, &mut late));
        // A fresh batch is unaffected.
        let next = table.begin(1);
        let mut ok = b"ok".to_vec();
        assert!(table.fill(next, 0, &mut ok));
        assert!(table.wait_collect(next, &mut out, Duration::from_secs(1)));
        assert_eq!(out[0], b"ok");
    }

    #[test]
    fn double_fill_of_one_slot_is_rejected() {
        let table = ReplyTable::new();
        let generation = table.begin(1);
        let mut a = b"first".to_vec();
        let mut b = b"second".to_vec();
        assert!(table.fill(generation, 0, &mut a));
        assert!(!table.fill(generation, 0, &mut b));
        let mut out = Vec::new();
        assert!(table.wait_collect(generation, &mut out, Duration::from_secs(1)));
        assert_eq!(out[0], b"first");
    }

    #[test]
    fn concurrent_fillers_wake_the_collector() {
        let table = Arc::new(ReplyTable::new());
        let n = 16;
        let generation = table.begin(n);
        std::thread::scope(|scope| {
            for index in 0..n {
                let table = Arc::clone(&table);
                scope.spawn(move || {
                    let mut buf = index.to_string().into_bytes();
                    assert!(table.fill(generation, index, &mut buf));
                });
            }
            let mut out = Vec::new();
            assert!(table.wait_collect(generation, &mut out, Duration::from_secs(5)));
            for (index, buf) in out.iter().take(n).enumerate() {
                assert_eq!(buf, index.to_string().as_bytes());
            }
        });
    }
}
