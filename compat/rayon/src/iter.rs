//! The parallel sources (slices, chunks, ranges, `Vec`) and adaptors
//! (`map`, `flat_map_iter`, `enumerate`, `zip`), each with the sequential
//! iterator one of its pieces runs as.

use crate::{IndexedParallelIterator, IntoParallelIterator, ParallelIterator};
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

/// Parallel iterator over `&T` (from [`par_iter`](crate::ParallelSlice::par_iter)).
pub struct Iter<'a, T> {
    pub(crate) slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for Iter<'a, T> {
    type Item = &'a T;
    type Seq = std::slice::Iter<'a, T>;

    fn split_len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.slice.split_at(index);
        (Iter { slice: head }, Iter { slice: tail })
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.iter()
    }
}

impl<T: Sync> IndexedParallelIterator for Iter<'_, T> {}

/// Parallel iterator over `&mut T` (from
/// [`par_iter_mut`](crate::ParallelSliceMut::par_iter_mut)).
pub struct IterMut<'a, T> {
    pub(crate) slice: &'a mut [T],
}

impl<'a, T: Send> ParallelIterator for IterMut<'a, T> {
    type Item = &'a mut T;
    type Seq = std::slice::IterMut<'a, T>;

    fn split_len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.slice.split_at_mut(index);
        (IterMut { slice: head }, IterMut { slice: tail })
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.iter_mut()
    }
}

impl<T: Send> IndexedParallelIterator for IterMut<'_, T> {}

/// Parallel iterator over `&[T]` chunks (from
/// [`par_chunks`](crate::ParallelSlice::par_chunks)); one split position
/// per chunk.
pub struct Chunks<'a, T> {
    pub(crate) slice: &'a [T],
    pub(crate) size: usize,
}

impl<'a, T: Sync> ParallelIterator for Chunks<'a, T> {
    type Item = &'a [T];
    type Seq = std::slice::Chunks<'a, T>;

    fn split_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let at = index.saturating_mul(self.size).min(self.slice.len());
        let (head, tail) = self.slice.split_at(at);
        let size = self.size;
        (Chunks { slice: head, size }, Chunks { slice: tail, size })
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.chunks(self.size)
    }
}

impl<T: Sync> IndexedParallelIterator for Chunks<'_, T> {}

/// Parallel iterator over `&mut [T]` chunks (from
/// [`par_chunks_mut`](crate::ParallelSliceMut::par_chunks_mut)); one split
/// position per chunk.
pub struct ChunksMut<'a, T> {
    pub(crate) slice: &'a mut [T],
    pub(crate) size: usize,
}

impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    type Seq = std::slice::ChunksMut<'a, T>;

    fn split_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let at = index.saturating_mul(self.size).min(self.slice.len());
        let (head, tail) = self.slice.split_at_mut(at);
        let size = self.size;
        (
            ChunksMut { slice: head, size },
            ChunksMut { slice: tail, size },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.size)
    }
}

impl<T: Send> IndexedParallelIterator for ChunksMut<'_, T> {}

/// Parallel iterator that owns a `Vec`'s items. Splitting moves the tail
/// into a buffer of its own (`Vec::split_off`); no call site in this
/// workspace iterates an owned `Vec` in parallel.
pub struct VecIter<T> {
    vec: Vec<T>,
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;
    type Seq = std::vec::IntoIter<T>;

    fn split_len(&self) -> usize {
        self.vec.len()
    }

    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.vec.split_off(index);
        (self, VecIter { vec: tail })
    }

    fn into_seq(self) -> Self::Seq {
        self.vec.into_iter()
    }
}

impl<T: Send> IndexedParallelIterator for VecIter<T> {}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;

    fn into_par_iter(self) -> VecIter<T> {
        VecIter { vec: self }
    }
}

/// Parallel iterator over `len` consecutive integers from `start` (from
/// `into_par_iter` on a `Range` or `RangeInclusive`).
pub struct RangeIter<T> {
    start: T,
    len: usize,
}

/// The sequential iterator over one piece of a [`RangeIter`].
pub struct RangeSeq<T> {
    next: T,
    left: usize,
}

macro_rules! impl_range {
    ($($t:ty),*) => {$(
        impl ParallelIterator for RangeIter<$t> {
            type Item = $t;
            type Seq = RangeSeq<$t>;

            fn split_len(&self) -> usize {
                self.len
            }

            // `index as $t` may wrap for a signed type, but the sum it
            // feeds lies inside the range, so the wrapping add is exact.
            fn split_at(self, index: usize) -> (Self, Self) {
                let tail = RangeIter {
                    start: self.start.wrapping_add(index as $t),
                    len: self.len - index,
                };
                (RangeIter { start: self.start, len: index }, tail)
            }

            fn into_seq(self) -> RangeSeq<$t> {
                RangeSeq { next: self.start, left: self.len }
            }
        }

        impl IndexedParallelIterator for RangeIter<$t> {}

        impl Iterator for RangeSeq<$t> {
            type Item = $t;

            fn next(&mut self) -> Option<$t> {
                if self.left == 0 {
                    return None;
                }
                self.left -= 1;
                let value = self.next;
                // Wraps only past the range's last value, never yielded.
                self.next = value.wrapping_add(1);
                Some(value)
            }

            fn size_hint(&self) -> (usize, Option<usize>) {
                (self.left, Some(self.left))
            }
        }

        impl ExactSizeIterator for RangeSeq<$t> {}

        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Iter = RangeIter<$t>;

            fn into_par_iter(self) -> RangeIter<$t> {
                let len = if self.start < self.end {
                    usize::try_from(self.end.abs_diff(self.start))
                        .expect("range length fits in usize")
                } else {
                    0
                };
                RangeIter { start: self.start, len }
            }
        }

        impl IntoParallelIterator for RangeInclusive<$t> {
            type Item = $t;
            type Iter = RangeIter<$t>;

            fn into_par_iter(self) -> RangeIter<$t> {
                let start = *self.start();
                let len = if self.is_empty() {
                    0
                } else {
                    usize::try_from(self.end().abs_diff(start))
                        .ok()
                        .and_then(|span| span.checked_add(1))
                        .expect("range length fits in usize")
                };
                RangeIter { start, len }
            }
        }
    )*};
}
impl_range!(usize, u64, u32, i64, i32);

/// Parallel `map` (see [`ParallelIterator::map`]). The closure is shared
/// by every piece.
pub struct Map<P, F> {
    pub(crate) base: P,
    pub(crate) f: Arc<F>,
}

/// The sequential iterator over one piece of a [`Map`].
pub struct MapSeq<S, F> {
    seq: S,
    f: Arc<F>,
}

impl<S, F, U> Iterator for MapSeq<S, F>
where
    S: Iterator,
    F: Fn(S::Item) -> U,
{
    type Item = U;

    fn next(&mut self) -> Option<U> {
        self.seq.next().map(&*self.f)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.seq.size_hint()
    }

    fn fold<B, G>(self, init: B, mut g: G) -> B
    where
        G: FnMut(B, U) -> B,
    {
        let f = self.f;
        self.seq.fold(init, move |acc, item| g(acc, f(item)))
    }
}

impl<P, F, U> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> U + Sync + Send,
    U: Send,
{
    type Item = U;
    type Seq = MapSeq<P::Seq, F>;
    const MAPS: bool = true;

    fn split_len(&self) -> usize {
        self.base.split_len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.base.split_at(index);
        let f = Arc::clone(&self.f);
        (
            Map { base: head, f },
            Map {
                base: tail,
                f: self.f,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        MapSeq {
            seq: self.base.into_seq(),
            f: self.f,
        }
    }
}

impl<P, F, U> IndexedParallelIterator for Map<P, F>
where
    P: IndexedParallelIterator,
    F: Fn(P::Item) -> U + Sync + Send,
    U: Send,
{
}

/// Parallel `flat_map_iter` (see [`ParallelIterator::flat_map_iter`]):
/// split positions are the base's, so it is not indexed.
pub struct FlatMapIter<P, F> {
    pub(crate) base: P,
    pub(crate) f: Arc<F>,
}

impl<P, F, I> ParallelIterator for FlatMapIter<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> I + Sync + Send,
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;
    type Seq = std::iter::Flatten<MapSeq<P::Seq, F>>;
    const MAPS: bool = true;

    fn split_len(&self) -> usize {
        self.base.split_len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.base.split_at(index);
        let f = Arc::clone(&self.f);
        (
            FlatMapIter { base: head, f },
            FlatMapIter {
                base: tail,
                f: self.f,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        MapSeq {
            seq: self.base.into_seq(),
            f: self.f,
        }
        .flatten()
    }
}

/// Parallel `enumerate` (see [`IndexedParallelIterator::enumerate`]).
pub struct Enumerate<P> {
    pub(crate) base: P,
    pub(crate) offset: usize,
}

impl<P: IndexedParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);
    type Seq = std::iter::Zip<Range<usize>, P::Seq>;
    const MAPS: bool = P::MAPS;

    fn split_len(&self) -> usize {
        self.base.split_len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.base.split_at(index);
        (
            Enumerate {
                base: head,
                offset: self.offset,
            },
            Enumerate {
                base: tail,
                offset: self.offset + index,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        let end = self.offset + self.base.split_len();
        (self.offset..end).zip(self.base.into_seq())
    }
}

impl<P: IndexedParallelIterator> IndexedParallelIterator for Enumerate<P> {}

/// Parallel `zip` (see [`IndexedParallelIterator::zip`]); both sides hold
/// the same number of items.
pub struct Zip<A, B> {
    pub(crate) a: A,
    pub(crate) b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator,
    B: IndexedParallelIterator,
{
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;
    const MAPS: bool = A::MAPS || B::MAPS;

    fn split_len(&self) -> usize {
        self.a.split_len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a_head, a_tail) = self.a.split_at(index);
        let (b_head, b_tail) = self.b.split_at(index);
        (
            Zip {
                a: a_head,
                b: b_head,
            },
            Zip {
                a: a_tail,
                b: b_tail,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

impl<A, B> IndexedParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator,
    B: IndexedParallelIterator,
{
}
