//! Sharded handler→worker dispatch with work stealing.
//!
//! The previous serving queue was one `Mutex<VecDeque<Job>>` plus a
//! `Condvar`: every handler and every worker serialized on the same lock
//! and every push took the condvar's wait-queue lock, so at saturation
//! the queue itself showed up ahead of the prediction work. This
//! dispatcher gives each worker its own mutex'd deque; handlers push a
//! whole connection burst to one shard (round-robin across bursts), the
//! owning worker drains its shard in batches, and an idle worker steals
//! a batch from the busiest sibling instead of sleeping. Two workers
//! only ever contend when one of them is otherwise idle.
//!
//! Parking uses a separate sleep mutex/`Condvar` pair plus an atomic
//! pending count, ordered to make lost wakeups impossible: a pusher
//! increments `pending`, then passes through the sleep mutex *before*
//! notifying — so a worker that observed `pending == 0` under that mutex
//! is guaranteed to be waiting (or re-checking) when the notify lands.
//!
//! A pop takes at most one batch, so a burst bigger than that leaves
//! jobs queued. A pop that leaves any (read off the value its
//! `pending.fetch_sub` returns) wakes one parked sibling the same way a
//! push does, and the sibling steals the next batch while the popper
//! serves its own; a pop that empties the queue pays nothing new.
//!
//! The sleep mutex guards a **wake epoch** that [`Dispatcher::wake_all`]
//! bumps. A daemon worker parks with no time bound
//! ([`Dispatcher::pop_batch_parked`]) only while nothing is pending and
//! the epoch still holds the value its last empty pop returned with, so a
//! `wake_all` that lands between the worker's stop/version checks and
//! its park makes the park return at once instead of being lost.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Why the sleep mutex is never poisoned.
const SLEEP_HOLDERS: &str =
    "the sleep mutex's holders only read or bump the wake epoch, which cannot panic";

struct Shard<T> {
    jobs: Mutex<VecDeque<T>>,
}

impl<T> Shard<T> {
    /// The shard's queue, locked.
    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.jobs.lock().expect(
            "a shard's holders only move jobs between its queue and a vector or \
             `push_batch`'s iterator, none of which panics",
        )
    }
}

/// A fixed set of per-worker job shards with batched push/pop and work
/// stealing. `T` is the job type; the dispatcher never inspects it.
pub struct Dispatcher<T> {
    shards: Box<[Shard<T>]>,
    /// Jobs pushed but not yet popped, across all shards. Maintained
    /// push-side before wakeup and pop-side after removal, so a worker
    /// that sees 0 under the sleep mutex can safely park.
    pending: AtomicUsize,
    /// Round-robin cursor: each pushed burst lands wholly in one shard
    /// (keeping it poppable as one batch), successive bursts spread out.
    cursor: AtomicUsize,
    /// The wake epoch: how many [`Dispatcher::wake_all`] calls ran.
    sleep: Mutex<u64>,
    wake: Condvar,
}

impl<T> Dispatcher<T> {
    /// Creates a dispatcher with one shard per worker.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "dispatcher needs at least one shard");
        Self {
            shards: (0..workers)
                .map(|_| Shard {
                    jobs: Mutex::new(VecDeque::new()),
                })
                .collect(),
            pending: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            sleep: Mutex::new(0),
            wake: Condvar::new(),
        }
    }

    /// Number of shards (== workers).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Jobs currently queued (pushed, not yet popped).
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Whether no job is queued. A job already popped by a worker is the
    /// worker's responsibility — drain loops pair this with per-worker
    /// completion of the batch in hand.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Pushes one job (see [`Dispatcher::push_batch`]).
    pub fn push(&self, job: T) {
        self.push_batch(std::iter::once(job));
    }

    /// Pushes a burst of jobs into the next round-robin shard as one
    /// unit, so the popping worker can coalesce the whole burst into one
    /// prediction batch. Wakes one parked worker per burst; when the
    /// burst is bigger than that worker's batch, its pop wakes the next.
    pub fn push_batch(&self, jobs: impl IntoIterator<Item = T>) {
        let shard = &self.shards[self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len()];
        let mut n = 0;
        {
            let mut queue = shard.lock();
            for job in jobs {
                queue.push_back(job);
                n += 1;
            }
        }
        if n == 0 {
            return;
        }
        self.pending.fetch_add(n, Ordering::Release);
        // Pass through the sleep mutex so any worker that read
        // `pending == 0` has since started waiting.
        drop(self.sleep());
        self.wake.notify_one();
    }

    /// The wake epoch, locked.
    fn sleep(&self) -> MutexGuard<'_, u64> {
        self.sleep.lock().expect(SLEEP_HOLDERS)
    }

    /// Wakes every parked worker (shutdown, snapshot publish). A worker
    /// about to park in [`Dispatcher::pop_batch_parked`] returns instead.
    pub fn wake_all(&self) {
        *self.sleep() += 1;
        self.wake.notify_all();
    }

    /// Pops up to `max` jobs into `out` (cleared first): from the
    /// worker's own shard if it has any, otherwise stolen from the
    /// fullest sibling reachable without blocking. Returns with `out`
    /// empty after parking for at most `park` without work — callers
    /// re-check stop/rebind conditions then.
    pub fn pop_batch_into(&self, worker: usize, max: usize, park: Duration, out: &mut Vec<T>) {
        if self.try_pop_into(worker, max, out) {
            return;
        }
        // Park until a push passes through the sleep mutex or `park`
        // elapses. Checking `pending` under the mutex closes the race
        // with a push that landed between the drains above and here.
        let guard = self.sleep();
        if self.pending.load(Ordering::Acquire) == 0 {
            let _ = self.wake.wait_timeout(guard, park).expect(SLEEP_HOLDERS);
        }
    }

    /// Pops up to `max` jobs into `out` like [`Dispatcher::pop_batch_into`],
    /// but parks with no time bound: it returns with jobs, or with `out`
    /// empty once a [`Dispatcher::wake_all`] ran since the last empty
    /// return. `epoch` is the caller's record of that return: start it
    /// at 0 and pass the same variable on every call, so a `wake_all`
    /// that lands while the caller is re-checking its stop or rebind
    /// condition makes the next call return at once.
    pub fn pop_batch_parked(&self, worker: usize, max: usize, epoch: &mut u64, out: &mut Vec<T>) {
        loop {
            if self.try_pop_into(worker, max, out) {
                return;
            }
            let mut wakes = self.sleep();
            while *wakes == *epoch && self.pending.load(Ordering::Acquire) == 0 {
                wakes = self.wake.wait(wakes).expect(SLEEP_HOLDERS);
            }
            if *wakes != *epoch {
                *epoch = *wakes;
                return;
            }
            // A push landed: pop it.
        }
    }

    /// Clears `out`, then pops up to `max` jobs into it from the worker's
    /// own shard, or failing that from the fullest sibling, and wakes a
    /// parked sibling if jobs are left. Returns whether it got any.
    fn try_pop_into(&self, worker: usize, max: usize, out: &mut Vec<T>) -> bool {
        out.clear();
        let own = &self.shards[worker % self.shards.len()];
        {
            let mut queue = own.lock();
            let n = queue.len().min(max);
            out.extend(queue.drain(..n));
        }
        if out.is_empty() && self.shards.len() > 1 {
            self.steal_into(worker, max, out);
        }
        if out.is_empty() {
            return false;
        }
        // Jobs left behind (a burst bigger than `max`): wake a parked
        // sibling to steal them now, in `push_batch`'s order. `pending`
        // can dip below `out.len()` while a pusher that already queued
        // its jobs has yet to count them; that pusher wakes someone.
        if self.pending.fetch_sub(out.len(), Ordering::Release) > out.len() {
            drop(self.sleep());
            self.wake.notify_one();
        }
        true
    }

    /// Steals up to `max` jobs from the fullest sibling shard, skipping
    /// any shard whose lock is currently held (a busy owner) — stealing
    /// must never add contention to a worker that is making progress.
    fn steal_into(&self, worker: usize, max: usize, out: &mut Vec<T>) {
        let mut best: Option<(usize, usize)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            if i == worker % self.shards.len() {
                continue;
            }
            if let Ok(queue) = shard.jobs.try_lock() {
                let len = queue.len();
                if len > 0 && best.map(|(_, l)| len > l).unwrap_or(true) {
                    best = Some((i, len));
                }
            }
        }
        if let Some((victim, _)) = best {
            if let Ok(mut queue) = self.shards[victim].jobs.try_lock() {
                let n = queue.len().min(max);
                out.extend(queue.drain(..n));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    const PARK: Duration = Duration::from_millis(5);

    #[test]
    fn bursts_stay_whole_and_round_robin_across_shards() {
        let d: Dispatcher<u32> = Dispatcher::new(2);
        d.push_batch([1, 2, 3]);
        d.push_batch([4, 5]);
        assert_eq!(d.pending(), 5);
        let mut a = Vec::new();
        let mut b = Vec::new();
        d.pop_batch_into(0, 16, PARK, &mut a);
        d.pop_batch_into(1, 16, PARK, &mut b);
        // Each burst arrived intact in its own shard.
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(b, vec![4, 5]);
        assert!(d.is_empty());
    }

    #[test]
    fn pop_respects_max_batch() {
        let d: Dispatcher<u32> = Dispatcher::new(1);
        d.push_batch(0..10);
        let mut out = Vec::new();
        d.pop_batch_into(0, 4, PARK, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(d.pending(), 6);
        d.pop_batch_into(0, 100, PARK, &mut out);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn idle_worker_steals_from_a_loaded_sibling() {
        let d: Dispatcher<u32> = Dispatcher::new(4);
        // All bursts land in shard 0's round-robin turns 0 and 4.
        d.push_batch([7, 8]);
        let mut out = Vec::new();
        // Worker 2's own shard is empty; it must steal the burst.
        d.pop_batch_into(2, 16, PARK, &mut out);
        assert_eq!(out, vec![7, 8]);
        assert!(d.is_empty());
    }

    #[test]
    fn empty_pop_parks_then_returns_empty() {
        let d: Dispatcher<u32> = Dispatcher::new(1);
        let mut out = vec![99];
        let t0 = std::time::Instant::now();
        d.pop_batch_into(0, 16, Duration::from_millis(20), &mut out);
        assert!(out.is_empty(), "pop must clear the output vec");
        assert!(
            t0.elapsed() >= Duration::from_millis(10),
            "must have parked"
        );
    }

    #[test]
    fn parked_pop_sleeps_until_a_push_or_a_wake() {
        let d: Arc<Dispatcher<u32>> = Arc::new(Dispatcher::new(2));
        let returned = Arc::new(AtomicU64::new(0));
        let worker = {
            let (d, returned) = (Arc::clone(&d), Arc::clone(&returned));
            std::thread::spawn(move || {
                let (mut epoch, mut out) = (0, Vec::new());
                d.pop_batch_parked(1, 16, &mut epoch, &mut out);
                returned.store(1, Ordering::Release);
                let first = std::mem::take(&mut out);
                d.pop_batch_parked(1, 16, &mut epoch, &mut out);
                (first, out, epoch)
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(returned.load(Ordering::Acquire), 0, "returned with no work");
        // A push to the other worker's shard is stolen.
        d.push_batch([3, 4]);
        while returned.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        d.wake_all();
        let (first, second, epoch) = worker.join().unwrap();
        assert_eq!(first, vec![3, 4]);
        assert!(second.is_empty(), "a wake returns with no jobs");
        assert_eq!(epoch, 1, "the caller's epoch follows the wakes");
    }

    /// The stop race an untimed park must close: the worker reads the
    /// stop flag, `wake_all` runs, and only then does the worker park.
    /// With the wake lost, a worker here would never exit.
    #[test]
    fn a_wake_between_the_stop_check_and_the_park_is_not_lost() {
        for round in 0..500u32 {
            let d: Arc<Dispatcher<u32>> = Arc::new(Dispatcher::new(1));
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let worker = {
                let (d, stop) = (Arc::clone(&d), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let (mut epoch, mut out) = (0, Vec::new());
                    loop {
                        d.pop_batch_parked(0, 16, &mut epoch, &mut out);
                        if out.is_empty() && stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    done_tx.send(()).unwrap();
                })
            };
            // Vary where the wake lands relative to the worker's loop.
            for _ in 0..round % 7 {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);
            d.wake_all();
            assert!(
                done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
                "round {round}: the worker missed its wake"
            );
            worker.join().unwrap();
        }
    }

    /// A burst of two batches must run on both workers at once: the pop
    /// that leaves the second batch queued wakes the parked sibling,
    /// with no further push or `wake_all`.
    #[test]
    fn a_pop_that_leaves_jobs_queued_wakes_a_parked_sibling() {
        const MAX: usize = 4;
        let d: Arc<Dispatcher<usize>> = Arc::new(Dispatcher::new(2));
        let (tx, rx) = std::sync::mpsc::channel();
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (d, tx) = (Arc::clone(&d), tx.clone());
                std::thread::spawn(move || {
                    let (mut epoch, mut out) = (0, Vec::new());
                    d.pop_batch_parked(w, MAX, &mut epoch, &mut out);
                    tx.send(out.len()).unwrap();
                })
            })
            .collect();
        // Both workers park before the burst lands.
        std::thread::sleep(Duration::from_millis(50));
        d.push_batch(0..2 * MAX);
        let popped: Vec<usize> = (0..2)
            .map_while(|_| rx.recv_timeout(Duration::from_secs(2)).ok())
            .collect();
        // Release a worker the burst never reached, so a failure ends.
        d.wake_all();
        for worker in workers {
            worker.join().unwrap();
        }
        assert_eq!(popped, vec![MAX, MAX], "one worker was left parked");
        assert!(d.is_empty());
    }

    #[test]
    fn concurrent_push_pop_loses_no_jobs() {
        let workers = 3;
        let per_pusher = 5_000u64;
        let pushers = 4;
        let d: Arc<Dispatcher<u64>> = Arc::new(Dispatcher::new(workers));
        let popped = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for p in 0..pushers {
                let d = Arc::clone(&d);
                scope.spawn(move || {
                    let mut next = p * per_pusher;
                    while next < (p + 1) * per_pusher {
                        let burst = (next % 7) + 1;
                        let end = ((p + 1) * per_pusher).min(next + burst);
                        d.push_batch(next..end);
                        next = end;
                    }
                });
            }
            let total = pushers * per_pusher;
            for w in 0..workers {
                let d = Arc::clone(&d);
                let popped = Arc::clone(&popped);
                let sum = Arc::clone(&sum);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while popped.load(Ordering::Acquire) < total {
                        d.pop_batch_into(w, 32, Duration::from_millis(1), &mut out);
                        if !out.is_empty() {
                            sum.fetch_add(out.iter().sum::<u64>(), Ordering::Relaxed);
                            popped.fetch_add(out.len() as u64, Ordering::Release);
                        }
                    }
                });
            }
        });
        assert_eq!(popped.load(Ordering::Acquire), pushers * per_pusher);
        // Every job arrived exactly once: the sum over 0..N is exact.
        let n = pushers * per_pusher;
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
        assert!(d.is_empty());
    }
}
