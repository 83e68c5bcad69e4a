//! The fixed fork-join pool every parallel call runs on.
//!
//! The pool holds `current_num_threads() − 1` named worker threads
//! (`rayon-pool-0`, …), started on first use and kept for the life of the
//! process. A parallel call publishes a [`Job`] of `pieces` numbered
//! pieces; idle workers and the calling thread claim piece indices from
//! the job's atomic counter until none is left, and the caller then blocks
//! until every claimed piece has finished. Because the caller claims too,
//! a call never depends on a free worker: a nested call made inside a
//! piece, or a call made while every worker is busy, finishes on its own
//! thread. Idle workers wait on a condition variable and use no CPU.
//!
//! There is no work stealing: a worker only ever takes pieces of a job it
//! found in the queue while idle, and a caller waiting on its own job only
//! claims that job's pieces. Every piece (and `join`'s calling-thread
//! closure) runs under `catch_unwind`; the first panic is re-raised on the
//! calling thread once every piece of the call has finished.

use crate::lock;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Name prefix of the pool's worker threads (`rayon-pool-0`, …).
pub(crate) const THREAD_NAME_PREFIX: &str = "rayon-pool-";

type Panic = Box<dyn Any + Send>;

/// The process-wide pool, started on first use.
pub(crate) fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::start(crate::current_num_threads().saturating_sub(1)))
}

pub(crate) struct Pool {
    shared: Arc<Shared>,
    workers: usize,
}

/// What the calling threads and the workers share.
struct Shared {
    /// Jobs that may still have unclaimed pieces, oldest first.
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Signalled when a job is published.
    work: Condvar,
}

/// One parallel call: `pieces` calls of `task`, one per piece index.
struct Job {
    /// The call's borrowed closure with its lifetime erased by
    /// [`Pool::run`]; only called for a piece index claimed from `next`.
    task: &'static (dyn Fn(usize) + Sync),
    pieces: usize,
    /// The next unclaimed piece index. `fetch_add` hands each index to
    /// exactly one thread; it publishes no data (the pieces' inputs and
    /// results travel through mutexes), so `Relaxed` suffices.
    next: AtomicUsize,
    progress: Mutex<Progress>,
    /// Signalled when the last piece finishes.
    finished: Condvar,
}

struct Progress {
    done: usize,
    panic: Option<Panic>,
}

impl Pool {
    /// Starts `workers` worker threads and returns once every one of them
    /// runs under its name and has entered its work loop, so the pool's
    /// threads are all visible from the moment it exists. A thread the
    /// OS refuses to start only makes the pool smaller: callers finish
    /// their calls alone.
    fn start(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
        });
        let (entered, all_entered) = mpsc::channel::<()>();
        let started = (0..workers)
            .filter(|i| {
                let shared = Arc::clone(&shared);
                let entered = entered.clone();
                std::thread::Builder::new()
                    .name(format!("{THREAD_NAME_PREFIX}{i}"))
                    .spawn(move || {
                        drop(entered);
                        shared.work_loop()
                    })
                    .is_ok()
            })
            .count();
        // `recv` fails once every sender is gone: each started worker
        // drops its own on entry, and a spawn that failed dropped its
        // closure with it.
        drop(entered);
        while all_entered.recv().is_ok() {}
        Self {
            shared,
            workers: started,
        }
    }

    /// Number of worker threads (the calling thread is not counted).
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `task(i)` for every `i < pieces` across the pool and `local`
    /// on the calling thread, then claims whatever pieces are left, and
    /// returns `local`'s result once every piece has finished. The first
    /// panic (`local`'s before any piece's) resumes here after that.
    pub(crate) fn run<R>(
        &self,
        pieces: usize,
        task: &(dyn Fn(usize) + Sync),
        local: impl FnOnce() -> R,
    ) -> R {
        let armed = AbortOnUnwind;
        // SAFETY: the transmute only extends the lifetime of `task`, which
        // stays borrowed for this whole call. The reference reaches other
        // threads through `job`, and they call it only for a piece index
        // they claim from `job.next`. This function neither returns nor
        // unwinds until every piece has finished: the wait below ends only
        // when `done == pieces`, `local` and every piece run under
        // `catch_unwind`, and any other unwind before the wait returns
        // aborts the process (`armed`). After that every claim fails, so no
        // thread calls `task` once this call has returned; an `Arc<Job>` a
        // worker still holds never touches it again.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let job = Arc::new(Job {
            task,
            pieces,
            next: AtomicUsize::new(0),
            progress: Mutex::new(Progress {
                done: 0,
                panic: None,
            }),
            finished: Condvar::new(),
        });
        self.publish(&job);
        let local = panic::catch_unwind(AssertUnwindSafe(local));
        job.work();
        job.wait();
        std::mem::forget(armed);
        self.retire(&job);
        let piece_panic = lock(&job.progress).panic.take();
        match (local, piece_panic) {
            (Err(payload), _) | (Ok(_), Some(payload)) => panic::resume_unwind(payload),
            (Ok(result), None) => result,
        }
    }

    /// Queues `job` and wakes one idle worker per piece, at most all.
    fn publish(&self, job: &Arc<Job>) {
        lock(&self.shared.queue).push_back(Arc::clone(job));
        if job.pieces >= self.workers {
            self.shared.work.notify_all();
        } else {
            for _ in 0..job.pieces {
                self.shared.work.notify_one();
            }
        }
    }

    /// Removes a finished `job` from the queue if no worker dropped it.
    fn retire(&self, job: &Arc<Job>) {
        let mut queue = lock(&self.shared.queue);
        if let Some(at) = queue.iter().position(|j| Arc::ptr_eq(j, job)) {
            queue.remove(at);
        }
    }
}

/// Aborts the process if dropped while unwinding: [`Pool::run`] holds one
/// from before it hands out its borrowed closure until every piece has
/// finished, and forgets it after.
struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            std::process::abort();
        }
    }
}

impl Shared {
    /// A worker's life: take the oldest job with unclaimed pieces, work on
    /// it, repeat; block while the queue holds none.
    fn work_loop(&self) {
        let mut queue = lock(&self.queue);
        loop {
            while queue.front().is_some_and(|job| job.exhausted()) {
                queue.pop_front();
            }
            match queue.front().cloned() {
                Some(job) => {
                    drop(queue);
                    job.work();
                    drop(job);
                    queue = lock(&self.queue);
                }
                None => {
                    queue = self
                        .work
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }
}

impl Job {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.pieces
    }

    /// Claims and runs pieces until none is left unclaimed.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.pieces {
                return;
            }
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| (self.task)(i)));
            let mut progress = lock(&self.progress);
            progress.done += 1;
            if let Err(payload) = outcome {
                progress.panic.get_or_insert(payload);
            }
            if progress.done == self.pieces {
                self.finished.notify_all();
            }
        }
    }

    /// Blocks until every piece has finished.
    fn wait(&self) {
        let mut progress = lock(&self.progress);
        while progress.done < self.pieces {
            progress = self
                .finished
                .wait(progress)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}
