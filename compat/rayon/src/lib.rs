//! Hermetic stand-in for the `rayon` crate.
//!
//! Provides the parallel-iterator API subset this workspace uses, run on a
//! fixed fork-join pool of `current_num_threads() − 1` persistent worker
//! threads rather than rayon's work-stealing scheduler (see the `pool`
//! module: workers start on first use, idle ones block, and the calling
//! thread claims pieces of its own call, so nested calls always finish).
//!
//! A parallel iterator is a splittable source — a slice, its chunks, an
//! integer range or a `Vec` — behind any chain of `map`, `flat_map_iter`,
//! `enumerate` and `zip`. A terminal call splits the source's positions
//! into one contiguous range per thread (sizes differing by at most one)
//! and runs each range as an ordinary sequential iterator, so no per-item
//! buffer of inputs or references is ever built. Results keep input order
//! and equal the sequential iterator's bit for bit:
//!
//! * `for_each` runs the pieces and returns;
//! * `collect` concatenates the pieces' outputs in input order;
//! * `sum` and `reduce` fold left to right on the calling thread. When the
//!   chain runs a closure (`map`, `flat_map_iter`), the pieces first
//!   compute its outputs in parallel into one buffer per piece; otherwise
//!   the fold reads the source directly.
//!
//! An input with fewer than two positions, or a machine reporting one
//! CPU, runs inline on the calling thread.

pub mod iter;
mod pool;

use iter::{Chunks, ChunksMut, Enumerate, FlatMapIter, Iter, IterMut, Map, Zip};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of threads a parallel call spreads across: the pool's workers
/// plus the calling thread. Read once, from
/// [`std::thread::available_parallelism`].
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `oper_a` and `oper_b`, potentially in parallel, and returns both
/// results. `oper_a` always runs on the calling thread (so thread-local
/// state — e.g. tracing-span stacks — observed by `oper_a` matches a
/// sequential call); `oper_b` runs on an idle pool worker, or on the
/// calling thread after `oper_a` when none is free. Both always run; a
/// panic (`oper_a`'s first) resumes once both have finished.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let pool = pool::global();
    if pool.workers() == 0 {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    }
    let oper_b = Mutex::new(Some(oper_b));
    let rb = Mutex::new(None);
    let ra = pool.run(
        1,
        &|_| {
            let oper_b = lock(&oper_b).take().expect("oper_b is claimed once");
            let out = oper_b();
            *lock(&rb) = Some(out);
        },
        oper_a,
    );
    let rb = rb.into_inner().unwrap_or_else(PoisonError::into_inner);
    (ra, rb.expect("oper_b finished"))
}

/// Locks `m`. The shim holds its locks only to move a value in or out, so
/// a poisoned lock still guards a consistent value.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Splits `iter` into one contiguous piece per thread, runs `f` on each
/// across the pool and returns the results in input order.
fn drive<P, R, F>(iter: P, f: F) -> Vec<R>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let n = iter.split_len();
    let k = current_num_threads().min(n);
    if k < 2 {
        return vec![f(iter)];
    }
    // The first `n % k` pieces hold one position more than the rest.
    let (size, longer) = (n / k, n % k);
    let mut inputs = Vec::with_capacity(k);
    let mut rest = iter;
    for i in 1..k {
        let (piece, tail) = rest.split_at(size + usize::from(i <= longer));
        inputs.push(Mutex::new(Some(piece)));
        rest = tail;
    }
    inputs.push(Mutex::new(Some(rest)));
    let outputs: Vec<Mutex<Option<R>>> = (0..k).map(|_| Mutex::new(None)).collect();
    pool::global().run(
        k,
        &|i| {
            let piece = lock(&inputs[i]).take().expect("each piece is claimed once");
            let out = f(piece);
            *lock(&outputs[i]) = Some(out);
        },
        || (),
    );
    outputs
        .into_iter()
        .map(|out| {
            out.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every piece finished")
        })
        .collect()
}

/// Whether `sum`/`reduce` over `iter` first compute its items in
/// parallel: only when a closure runs per item and there is more than one
/// piece.
fn maps_in_parallel<P: ParallelIterator>(iter: &P) -> bool {
    P::MAPS && current_num_threads().min(iter.split_len()) > 1
}

/// Each piece's items in input order, computed across the pool.
fn items_by_piece<P: ParallelIterator>(iter: P) -> Vec<Vec<P::Item>> {
    drive(iter, |piece| piece.into_seq().collect())
}

/// A parallel iterator: a source of positions that terminal calls split
/// into contiguous pieces, each run as a sequential iterator.
pub trait ParallelIterator: Sized + Send {
    /// The element type.
    type Item: Send;
    /// The sequential iterator one piece runs as.
    type Seq: Iterator<Item = Self::Item>;
    /// Whether a closure runs per item (`map`, `flat_map_iter`), so that
    /// `sum` and `reduce` compute the items in parallel before folding.
    const MAPS: bool = false;

    /// Number of split positions: the source's items, or its chunks.
    fn split_len(&self) -> usize;
    /// Splits into the positions before `index` and those from it on.
    fn split_at(self, index: usize) -> (Self, Self);
    /// This piece as a sequential iterator.
    fn into_seq(self) -> Self::Seq;

    /// Applies `f` to every item in parallel, preserving order.
    fn map<U, F>(self, f: F) -> Map<Self, F>
    where
        U: Send,
        F: Fn(Self::Item) -> U + Sync + Send,
    {
        Map {
            base: self,
            f: Arc::new(f),
        }
    }

    /// Applies `f` in parallel and flattens the per-item iterators in
    /// input order.
    fn flat_map_iter<I, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(Self::Item) -> I + Sync + Send,
    {
        FlatMapIter {
            base: self,
            f: Arc::new(f),
        }
    }

    /// Runs `f` on every item in parallel.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        drive(self, |piece| piece.into_seq().for_each(&f));
    }

    /// Collects the items, in input order, into any `FromIterator`
    /// container.
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        let mut pieces = items_by_piece(self).into_iter();
        let mut items = pieces.next().unwrap_or_default();
        items.reserve(pieces.as_slice().iter().map(Vec::len).sum());
        for mut piece in pieces {
            items.append(&mut piece);
        }
        items.into_iter().collect()
    }

    /// Folds the items left to right with `op`, starting from
    /// `identity()`, on the calling thread.
    fn reduce<Id, Op>(self, identity: Id, op: Op) -> Self::Item
    where
        Id: Fn() -> Self::Item + Sync,
        Op: Fn(Self::Item, Self::Item) -> Self::Item + Sync,
    {
        if maps_in_parallel(&self) {
            items_by_piece(self)
                .into_iter()
                .flatten()
                .fold(identity(), op)
        } else {
            self.into_seq().fold(identity(), op)
        }
    }

    /// Sums the items left to right on the calling thread.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        if maps_in_parallel(&self) {
            items_by_piece(self).into_iter().flatten().sum()
        } else {
            self.into_seq().sum()
        }
    }
}

/// A parallel iterator whose split positions are its items, one for one,
/// so it can be enumerated and zipped.
pub trait IndexedParallelIterator: ParallelIterator {
    /// Pairs each item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }

    /// Pairs items element-wise with another indexed parallel iterator,
    /// truncating to the shorter side.
    fn zip<Z>(self, other: Z) -> Zip<Self, Z::Iter>
    where
        Z: IntoParallelIterator,
        Z::Iter: IndexedParallelIterator,
    {
        let other = other.into_par_iter();
        let n = self.split_len().min(other.split_len());
        Zip {
            a: self.split_at(n).0,
            b: other.split_at(n).0,
        }
    }
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// The parallel iterator produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<P: ParallelIterator> IntoParallelIterator for P {
    type Item = P::Item;
    type Iter = P;

    fn into_par_iter(self) -> P {
        self
    }
}

/// Borrowing parallel iteration over slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over shared references.
    fn par_iter(&self) -> Iter<'_, T>;
    /// Parallel iterator over non-overlapping chunks.
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> Iter<'_, T> {
        Iter { slice: self }
    }

    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        Chunks {
            slice: self,
            size: chunk_size,
        }
    }
}

/// Mutably-borrowing parallel iteration over slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over exclusive references.
    fn par_iter_mut(&mut self) -> IterMut<'_, T>;
    /// Parallel iterator over non-overlapping exclusive chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> IterMut<'_, T> {
        IterMut { slice: self }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        ChunksMut {
            slice: self,
            size: chunk_size,
        }
    }
}

/// The traits rayon callers conventionally glob-import.
pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, join};
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    /// Lengths that split evenly, unevenly, and into fewer pieces than
    /// there are threads.
    const LENS: [usize; 6] = [0, 1, 2, 3, 1001, 4096];

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sum_matches_sequential() {
        let total: u64 = (1..=100u64).into_par_iter().map(|x| x * x).sum();
        assert_eq!(total, (1..=100u64).map(|x| x * x).sum::<u64>());
    }

    #[test]
    fn par_iter_mut_updates_in_place() {
        let mut data = vec![1.0f64; 64];
        data.par_iter_mut().for_each(|x| *x += 1.0);
        assert!(data.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn par_chunks_mut_enumerate_zip() {
        let mut data = [0usize; 12];
        let tail = [100usize, 200, 300];
        data.par_chunks_mut(4)
            .zip(tail.par_iter())
            .enumerate()
            .for_each(|(i, (chunk, &t))| {
                for slot in chunk.iter_mut() {
                    *slot = i + t;
                }
            });
        assert_eq!(data[0], 100);
        assert_eq!(data[4], 201);
        assert_eq!(data[8], 302);
    }

    #[test]
    fn flat_map_iter_flattens_in_order() {
        let out: Vec<usize> = vec![1usize, 2, 3]
            .into_par_iter()
            .flat_map_iter(|x| (0..x).map(move |y| x * 10 + y))
            .collect();
        assert_eq!(out, vec![10, 20, 21, 30, 31, 32]);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 6 * 7, || "done".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "done");
    }

    #[test]
    fn join_runs_oper_a_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let (a_thread, _) = join(|| std::thread::current().id(), || ());
        assert_eq!(a_thread, caller);
    }

    #[test]
    fn empty_and_single_inputs() {
        let out: Vec<usize> = Vec::<usize>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        let one: Vec<usize> = vec![7usize].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn every_adaptor_keeps_input_order() {
        for n in LENS {
            let xs: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
            let seq_map: Vec<u64> = xs.iter().map(|&x| x * 2).collect();
            let par_map: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
            assert_eq!(par_map, seq_map, "map, n = {n}");

            let seq_enum: Vec<(usize, u64)> = xs.iter().copied().enumerate().collect();
            let par_enum: Vec<(usize, u64)> =
                xs.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
            assert_eq!(par_enum, seq_enum, "enumerate, n = {n}");

            // The shorter side truncates the zip.
            let ys: Vec<u64> = (0..n as u64 / 2 + 1).collect();
            let seq_zip: Vec<(u64, u64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
            let par_zip: Vec<(u64, u64)> = xs
                .par_iter()
                .zip(ys.par_iter())
                .map(|(&a, &b)| (a, b))
                .collect();
            assert_eq!(par_zip, seq_zip, "zip, n = {n}");

            let spread = |x: u64| (0..x % 4).map(move |j| x * 10 + j);
            let seq_flat: Vec<u64> = xs.iter().flat_map(|&x| spread(x)).collect();
            let par_flat: Vec<u64> = xs.par_iter().flat_map_iter(|&x| spread(x)).collect();
            assert_eq!(par_flat, seq_flat, "flat_map_iter, n = {n}");

            let mut visited = vec![usize::MAX; n];
            visited
                .par_iter_mut()
                .enumerate()
                .for_each(|(i, slot)| *slot = i);
            assert_eq!(visited, (0..n).collect::<Vec<_>>(), "for_each, n = {n}");

            let seq_chunks: Vec<u64> = xs.chunks(3).map(|c| c.iter().sum()).collect();
            let par_chunks: Vec<u64> = xs.par_chunks(3).map(|c| c.iter().sum()).collect();
            assert_eq!(par_chunks, seq_chunks, "par_chunks, n = {n}");

            let mut seq_mut = xs.clone();
            seq_mut.chunks_mut(5).enumerate().for_each(|(i, c)| {
                c.iter_mut().for_each(|v| *v = *v * 100 + i as u64);
            });
            let mut par_mut = xs.clone();
            par_mut.par_chunks_mut(5).enumerate().for_each(|(i, c)| {
                c.iter_mut().for_each(|v| *v = *v * 100 + i as u64);
            });
            assert_eq!(par_mut, seq_mut, "par_chunks_mut, n = {n}");

            let owned: Vec<u64> = xs.clone().into_par_iter().map(|x| x + 1).collect();
            assert_eq!(owned, xs.iter().map(|&x| x + 1).collect::<Vec<_>>());
            let half_open: Vec<i64> = (-3..n as i64 - 3).into_par_iter().collect();
            assert_eq!(half_open, (-3..n as i64 - 3).collect::<Vec<_>>());
            let inclusive: Vec<u32> = (5..=n as u32 + 4).into_par_iter().collect();
            assert_eq!(inclusive, (5..=n as u32 + 4).collect::<Vec<_>>());
        }
        let top: Vec<i32> = (i32::MAX - 2..=i32::MAX).into_par_iter().collect();
        assert_eq!(top, vec![i32::MAX - 2, i32::MAX - 1, i32::MAX]);
    }

    #[test]
    fn sum_and_reduce_fold_left_to_right() {
        // A left fold loses every 1.0 against the leading 1e16 and ends
        // at 0; any other grouping keeps some of them.
        let terms: Vec<f64> = (0..4001)
            .map(|i| match i {
                0 => 1e16,
                4000 => -1e16,
                _ => 1.0,
            })
            .collect();
        let left: f64 = terms.iter().sum();
        let (head, tail) = terms.split_at(terms.len() / 2);
        let halves = head.iter().sum::<f64>() + tail.iter().sum::<f64>();
        assert_ne!(
            left.to_bits(),
            halves.to_bits(),
            "terms are order-sensitive"
        );

        let direct: f64 = terms.par_iter().sum();
        assert_eq!(direct.to_bits(), left.to_bits());
        let mapped: f64 = terms.par_iter().map(|&t| t * 0.5).sum();
        let mapped_left: f64 = terms.iter().map(|&t| t * 0.5).sum();
        assert_eq!(mapped.to_bits(), mapped_left.to_bits());

        // An operation that is neither associative nor commutative.
        let op = |a: i64, b: i64| a.wrapping_mul(31).wrapping_sub(b);
        for n in LENS {
            let n = n as i64;
            let want = (0..n).map(|x| x * x).fold(7, op);
            let got = (0..n).into_par_iter().map(|x| x * x).reduce(|| 7, op);
            assert_eq!(got, want, "reduce after map, n = {n}");
            let want = (0..n).fold(7, op);
            assert_eq!((0..n).into_par_iter().reduce(|| 7, op), want, "n = {n}");
        }
    }

    #[test]
    fn nested_calls_finish() {
        let (grid, total) = join(
            || {
                (0..8usize)
                    .into_par_iter()
                    .map(|i| (0..100usize).into_par_iter().map(|j| i * j).sum::<usize>())
                    .collect::<Vec<_>>()
            },
            || {
                [1usize, 2, 3]
                    .par_iter()
                    .map(|&x| {
                        let (a, b) = join(|| [x; 50].par_iter().sum::<usize>(), || x);
                        a + b
                    })
                    .sum::<usize>()
            },
        );
        let want: Vec<usize> = (0..8).map(|i| (0..100).map(|j| i * j).sum()).collect();
        assert_eq!(grid, want);
        assert_eq!(total, 306);
    }

    #[test]
    fn a_panic_reaches_the_caller_after_every_piece_finished() {
        // One item per piece: piece 0 panics, every other piece is slow.
        let n = current_num_threads().max(2);
        let finished = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            (0..n).into_par_iter().for_each(|i| {
                if i == 0 {
                    panic!("piece 0 failed");
                }
                std::thread::sleep(Duration::from_millis(20));
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"piece 0 failed"));
        if current_num_threads() > 1 {
            assert_eq!(finished.load(Ordering::SeqCst), n - 1);
        }

        // `join` waits for `oper_b` before resuming `oper_a`'s panic.
        let b_done = AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            join(
                || panic!("oper_a failed"),
                || {
                    std::thread::sleep(Duration::from_millis(20));
                    b_done.store(true, Ordering::SeqCst);
                },
            )
        }));
        assert!(caught.is_err());
        assert!(b_done.load(Ordering::SeqCst));
        let caught = panic::catch_unwind(|| join(|| 1, || -> i32 { panic!("oper_b failed") }));
        assert!(caught.is_err());

        // The pool still works.
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out, (1..=1000).collect::<Vec<_>>());
        assert_eq!(join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn the_pool_keeps_its_threads_across_many_calls() {
        for i in 0..10_000usize {
            if i % 2 == 0 {
                (0..4usize).into_par_iter().for_each(|x| {
                    std::hint::black_box(x);
                });
            } else {
                std::hint::black_box(join(|| i, || i + 1));
            }
        }
        let pool_threads = std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task lists this process's threads")
            .filter(|task| {
                let comm = task.as_ref().map(|t| t.path().join("comm"));
                comm.is_ok_and(|c| {
                    std::fs::read_to_string(c)
                        .is_ok_and(|name| name.starts_with(super::pool::THREAD_NAME_PREFIX))
                })
            })
            .count();
        assert_eq!(pool_threads, current_num_threads() - 1);
    }
}
