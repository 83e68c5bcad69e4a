//! A small process-wide pool of inference scratch.
//!
//! Scratch kept per thread costs one copy for every thread that ever ran
//! a forward pass. A server that runs inference on its connection
//! threads would then grow by one copy per connection, each kept until
//! its thread exits. A pool keeps one copy per forward pass running at
//! once instead: the pool holds at most as many items as callers ever
//! held at the same time.

use std::sync::{Mutex, MutexGuard};

/// Free items of type `T`, taken for the length of one call and put
/// back.
pub(crate) struct Pool<T> {
    free: Mutex<Vec<T>>,
}

impl<T> Pool<T> {
    /// An empty pool.
    pub(crate) const fn new() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Takes the free item most recently put back among those that
    /// `fits`, if any.
    pub(crate) fn take(&self, fits: impl Fn(&T) -> bool) -> Option<T> {
        let mut free = self.lock();
        free.iter().rposition(fits).map(|i| free.swap_remove(i))
    }

    /// Puts `item` back for a later [`Pool::take`].
    pub(crate) fn put(&self, item: T) {
        self.lock().push(item);
    }

    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        self.free
            .lock()
            .expect("the pool lock is held only to take or put back an item, which cannot panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_are_reused_and_only_when_they_fit() {
        let pool: Pool<Vec<u8>> = Pool::new();
        assert!(pool.take(|_| true).is_none(), "a new pool is empty");
        let item = Vec::with_capacity(64);
        let ptr = item.as_ptr();
        pool.put(item);
        assert!(
            pool.take(|v| v.capacity() > 1024).is_none(),
            "an item that does not fit was taken"
        );
        let again = pool.take(|_| true).expect("the item was put back");
        assert_eq!(again.as_ptr(), ptr, "the free item was not reused");
        assert!(pool.take(|_| true).is_none(), "an item was taken twice");
    }
}
