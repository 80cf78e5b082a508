//! Reusable-object pools for steady-state serving.
//!
//! The batched query executor (`ktg_core::serve`) wants every per-query
//! allocation — BFS scratch, candidate vectors, conflict-bitmap rows —
//! made once per worker and then recycled, so a long-running serving
//! process settles into zero large allocations per query. A [`Pool`] is
//! the minimal primitive for that: a mutex-guarded free list handing out
//! [`PoolGuard`]s that return their item on drop.
//!
//! The pool is deliberately unbounded: it never holds more items than the
//! peak number of concurrent borrowers (each fresh solve borrows one
//! arena while it runs), so a capacity limit would only add a failure
//! mode. A guard dropped while its thread is panicking drops its item
//! instead of parking it: a borrower that panicked may have left the
//! item half-mutated, so it never reaches another borrower, and the
//! unwind takes no lock. A poisoned mutex is recovered, not propagated —
//! the free list holds plain reusable buffers whose state a panicking
//! borrower cannot corrupt.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};

/// A thread-safe free list of reusable items.
#[derive(Debug, Default)]
pub struct Pool<T> {
    items: Mutex<Vec<T>>,
}

impl<T> Pool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Pool { items: Mutex::new(Vec::new()) }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        // A panic while the lock was held cannot leave a half-updated
        // free list (push/pop are the only operations), so recover.
        match self.items.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Borrows an item, creating a fresh one with `make` when the free
    /// list is empty. The item returns to the pool when the guard drops.
    pub fn acquire_with(&self, make: impl FnOnce() -> T) -> PoolGuard<'_, T> {
        // Fault-injection site (no-op unless a KTG_FAULTS schedule is
        // armed); fires before the lock so it can never poison it.
        crate::fault::inject(crate::fault::FaultSite::PoolAcquire);
        let item = self.lock().pop().unwrap_or_else(make);
        PoolGuard { pool: self, item: Some(item) }
    }

    /// Number of items currently parked in the free list.
    pub fn idle(&self) -> usize {
        self.lock().len()
    }
}

/// An exclusive borrow from a [`Pool`]; dereferences to the item and
/// returns it to the pool on drop, unless the drop is part of a panic's
/// unwind ([`std::thread::panicking`]), which drops the item instead.
#[derive(Debug)]
pub struct PoolGuard<'p, T> {
    pool: &'p Pool<T>,
    item: Option<T>,
}

impl<T> Deref for PoolGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.item {
            Some(item) => item,
            // Invariant: `item` is only taken in `drop`.
            None => unreachable!("pool guard emptied before drop"),
        }
    }
}

impl<T> DerefMut for PoolGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.item {
            Some(item) => item,
            None => unreachable!("pool guard emptied before drop"),
        }
    }
}

impl<T> Drop for PoolGuard<'_, T> {
    fn drop(&mut self) {
        // Unwinding: the item's state is suspect, so it drops with the
        // guard and the pool builds a fresh one on the next acquire.
        if std::thread::panicking() {
            return;
        }
        if let Some(item) = self.item.take() {
            self.pool.lock().push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_creates_then_recycles() {
        let pool: Pool<Vec<u32>> = Pool::new();
        assert_eq!(pool.idle(), 0);
        {
            let mut a = pool.acquire_with(|| Vec::with_capacity(8));
            a.push(7);
            assert_eq!(a[0], 7);
        }
        assert_eq!(pool.idle(), 1, "guard drop parks the item");
        {
            let b = pool.acquire_with(Vec::new);
            // The recycled vector still holds its previous contents —
            // callers clear what they need, preserving capacity.
            assert_eq!(b.as_slice(), &[7]);
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn a_panicking_borrow_drops_instead_of_parking() {
        let pool: Pool<Vec<u32>> = Pool::new();
        let caught = std::panic::catch_unwind(|| {
            let mut a = pool.acquire_with(Vec::new);
            a.push(1);
            panic!("borrower fails mid-use");
        });
        assert!(caught.is_err());
        assert_eq!(pool.idle(), 0, "an unwound item must not re-enter the free list");
        let b = pool.acquire_with(Vec::new);
        assert!(b.is_empty(), "next acquire builds fresh, not the unwound item");
    }

    #[test]
    fn concurrent_borrowers_get_distinct_items() {
        let pool: Pool<Vec<u8>> = Pool::new();
        let a = pool.acquire_with(Vec::new);
        let b = pool.acquire_with(Vec::new);
        assert_eq!(pool.idle(), 0);
        drop(a);
        drop(b);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn shared_across_scoped_threads() {
        let pool: Pool<Vec<usize>> = Pool::new();
        std::thread::scope(|s| {
            for worker in 0..4 {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..16 {
                        let mut item = pool.acquire_with(Vec::new);
                        item.clear();
                        item.push(worker * 100 + i);
                        assert_eq!(item.len(), 1);
                    }
                });
            }
        });
        // At most one item per concurrently-live borrow.
        assert!(pool.idle() <= 4, "free list holds {} items", pool.idle());
        assert!(pool.idle() >= 1);
    }
}
