//! Bounded top-N selection.
//!
//! KTG queries return the N best groups by keyword coverage. [`TopN`] keeps
//! the running N best in a min-heap so that:
//!
//! * the current N-th best is an O(1) peek: the branch-and-bound engine
//!   reads its coverage as the pruning threshold `C_max` of the paper's
//!   Theorem 2, and its member list to cut tied branches that cannot win
//!   on canonical order, and
//! * an item that merely **equals** the current N-th best does *not*
//!   displace an incumbent — matching the paper's worked examples, where
//!   groups tied at coverage 0.8 "can not update the result groups". The
//!   engine's ranked groups order equal coverage by member list, so a
//!   group tied on coverage enters only when its members are canonically
//!   smaller.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A bounded collection of the `n` largest items seen so far.
#[derive(Clone, Debug)]
pub struct TopN<T: Ord> {
    heap: BinaryHeap<Reverse<T>>,
    capacity: usize,
}

impl<T: Ord> TopN<T> {
    /// Creates an empty collection that will retain the `capacity` largest
    /// items. Storage grows with the items actually offered, so a huge
    /// `capacity` (a query's `N`) costs nothing up front.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (a top-0 query is meaningless).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TopN capacity must be positive");
        TopN { heap: BinaryHeap::new(), capacity }
    }

    /// Number of items currently held (≤ capacity).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no items are held yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the collection holds `capacity` items.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.capacity
    }

    /// The configured capacity `n`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The smallest retained item — the "N-th best", i.e. the admission
    /// threshold. `None` while the collection is not yet full (anything is
    /// admissible then).
    #[inline]
    pub fn threshold(&self) -> Option<&T> {
        if self.is_full() {
            let min = self.heap.peek().map(|r| &r.0);
            #[cfg(debug_assertions)]
            if let Some(m) = min {
                debug_assert!(
                    self.heap.iter().all(|r| &r.0 >= m),
                    "heap order violated: peek is not the minimum retained item"
                );
            }
            min
        } else {
            None
        }
    }

    /// Offers an item. Returns `true` if it was retained.
    ///
    /// While under capacity every item is retained. At capacity an item is
    /// retained only if **strictly greater** than the current minimum (ties
    /// keep the incumbent).
    pub fn offer(&mut self, item: T) -> bool {
        debug_assert!(
            self.heap.len() <= self.capacity,
            "TopN invariant violated: holding {} items with capacity {}",
            self.heap.len(),
            self.capacity
        );
        if self.heap.len() < self.capacity {
            self.heap.push(Reverse(item));
            return true;
        }
        // Capacity > 0 and the heap is full, so a minimum always exists.
        let retained = match self.heap.peek() {
            Some(Reverse(current_min)) if item > *current_min => {
                self.heap.pop();
                self.heap.push(Reverse(item));
                true
            }
            _ => false,
        };
        debug_assert!(self.heap.len() == self.capacity, "offer at capacity must preserve size");
        retained
    }

    /// Consumes the collection, returning items in descending order.
    pub fn into_sorted_desc(self) -> Vec<T> {
        let mut items: Vec<T> = self.heap.into_iter().map(|r| r.0).collect();
        items.sort_by(|a, b| b.cmp(a));
        items
    }

    /// Iterates the retained items in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.heap.iter().map(|r| &r.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TopN::<i32>::new(0);
    }

    #[test]
    fn keeps_largest() {
        let mut t = TopN::new(3);
        for x in [5, 1, 9, 3, 7, 2] {
            t.offer(x);
        }
        assert_eq!(t.into_sorted_desc(), vec![9, 7, 5]);
    }

    #[test]
    fn threshold_only_when_full() {
        let mut t = TopN::new(2);
        assert_eq!(t.threshold(), None);
        t.offer(4);
        assert_eq!(t.threshold(), None);
        t.offer(10);
        assert_eq!(t.threshold(), Some(&4));
    }

    #[test]
    fn ties_do_not_displace() {
        let mut t = TopN::new(2);
        t.offer((8, "first"));
        t.offer((8, "second"));
        // Third item ties the minimum (8, "second") only on score; as a
        // tuple it is smaller, so it is rejected.
        assert!(!t.offer((8, "aaa")));
        let items = t.into_sorted_desc();
        assert_eq!(items, vec![(8, "second"), (8, "first")]);
    }

    #[test]
    fn equal_scalar_rejected_at_capacity() {
        let mut t = TopN::new(1);
        assert!(t.offer(5));
        assert!(!t.offer(5), "equal item must not displace incumbent");
        assert!(t.offer(6));
        assert_eq!(t.into_sorted_desc(), vec![6]);
    }

    #[test]
    fn under_capacity_admits_everything() {
        let mut t = TopN::new(10);
        for x in 0..5 {
            assert!(t.offer(x));
        }
        assert_eq!(t.len(), 5);
        assert!(!t.is_full());
    }

    #[test]
    fn huge_capacity_allocates_on_demand() {
        let mut t = TopN::new(usize::MAX);
        for x in [4, 1, 7] {
            assert!(t.offer(x));
        }
        assert!(!t.is_full());
        assert_eq!(t.threshold(), None);
        assert_eq!(t.into_sorted_desc(), vec![7, 4, 1]);
    }

    #[test]
    fn iter_visits_all() {
        let mut t = TopN::new(3);
        for x in [1, 2, 3] {
            t.offer(x);
        }
        let mut seen: Vec<_> = t.iter().copied().collect();
        seen.sort();
        assert_eq!(seen, vec![1, 2, 3]);
    }
}
