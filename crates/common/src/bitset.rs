//! Dense membership structures.
//!
//! Two variants serve the workspace's hot loops:
//!
//! * [`FixedBitSet`] — a plain word-array bitset for long-lived membership
//!   (e.g. "vertex is a query candidate").
//! * [`EpochMarker`] — a "timestamped" visited set: clearing is O(1)
//!   (bump the epoch) instead of O(n), which matters when a branch-and-bound
//!   search runs thousands of bounded BFS traversals per query.

use crate::id::VertexId;

const WORD_BITS: usize = 64;

/// A fixed-capacity bitset over `0..len`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FixedBitSet {
    words: Vec<u64>,
    len: usize,
}

impl FixedBitSet {
    /// Creates an empty bitset with capacity for `len` bits, all zero.
    pub fn new(len: usize) -> Self {
        FixedBitSet {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Number of bits the set can hold.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the capacity is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics when `i ≥ len`, in release builds too: a `debug_assert!`
    /// here would let release code silently set a ghost bit in the tail
    /// word (`len` not a multiple of 64), corrupting `count_ones` and
    /// `iter_ones`. Mutation is not the hot path — `contains` is — so the
    /// hard check is free in practice.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics when `i ≥ len` (hard assert, same rationale as
    /// [`FixedBitSet::insert`]).
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] &= !(1 << (i % WORD_BITS));
    }

    /// Tests bit `i`.
    ///
    /// This *is* the hot path, so the bounds check stays a
    /// `debug_assert!`: reads cannot corrupt state, tail-word ghost bits
    /// cannot exist (mutation hard-asserts), and an index past the word
    /// array still panics on the slice access.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Clears every bit (O(words)).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Re-initializes the set to an all-zero bitset over `0..len`,
    /// reusing the existing word allocation whenever it is large enough.
    /// This is how pooled conflict-bitmap rows are recycled across
    /// queries with different candidate counts without reallocating.
    pub fn reset(&mut self, len: usize) {
        let words = len.div_ceil(WORD_BITS);
        self.words.truncate(words);
        self.words.fill(0);
        self.words.resize(words, 0);
        self.len = len;
    }

    /// Overwrites `self` with `a & !b`, word-parallel: the set difference
    /// `a \ b` computed 64 bits at a time. This is the conflict-bitmap
    /// kernel's child-pool derivation — one pass over the word arrays
    /// replaces one distance-oracle probe per remaining candidate.
    ///
    /// # Panics
    /// Panics when the three bitsets do not share the same capacity.
    pub fn assign_and_not(&mut self, a: &FixedBitSet, b: &FixedBitSet) {
        assert!(
            self.len == a.len && self.len == b.len,
            "capacity mismatch: {} vs {} vs {}",
            self.len,
            a.len,
            b.len
        );
        for (out, (&wa, &wb)) in self.words.iter_mut().zip(a.words.iter().zip(&b.words)) {
            *out = wa & !wb;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            BitIter { word, base: wi * WORD_BITS }
        })
    }

    /// Approximate heap usage in bytes (for index space accounting).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

/// A visited-set with O(1) reset.
///
/// Each slot stores the epoch at which it was last marked; a slot is
/// "marked" iff its stamp equals the current epoch. [`EpochMarker::reset`]
/// just increments the epoch, so repeated BFS traversals over the same
/// arena cost nothing to clear. The 32-bit epoch wraps after ~4 billion
/// resets; on wrap the stamp array is zeroed to stay sound.
#[derive(Clone, Debug)]
pub struct EpochMarker {
    stamps: Vec<u32>,
    epoch: u32,
}

impl Default for EpochMarker {
    /// An empty arena; grow it with [`EpochMarker::grow`] before marking.
    fn default() -> Self {
        EpochMarker::new(0)
    }
}

impl EpochMarker {
    /// Creates a marker arena for `len` slots, all unmarked.
    pub fn new(len: usize) -> Self {
        EpochMarker {
            stamps: vec![0; len],
            epoch: 1,
        }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether the arena has zero slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Unmarks everything in O(1) (amortized; O(n) once every 2^32 resets).
    #[inline]
    pub fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks slot `i`. Returns `true` if it was previously unmarked.
    #[inline]
    pub fn mark(&mut self, i: usize) -> bool {
        let fresh = self.stamps[i] != self.epoch;
        self.stamps[i] = self.epoch;
        fresh
    }

    /// Tests slot `i`.
    #[inline]
    pub fn is_marked(&self, i: usize) -> bool {
        self.stamps[i] == self.epoch
    }

    /// Marks a vertex id (convenience for graph code).
    #[inline]
    pub fn mark_vertex(&mut self, v: VertexId) -> bool {
        self.mark(v.index())
    }

    /// Grows the arena to at least `len` slots (new slots unmarked).
    pub fn grow(&mut self, len: usize) {
        if len > self.stamps.len() {
            self.stamps.resize(len, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_reuses_and_zeroes() {
        let mut bs = FixedBitSet::new(130);
        bs.insert(0);
        bs.insert(129);
        // Shrink: stale high bits must not survive into the tail word.
        bs.reset(70);
        assert_eq!(bs.len(), 70);
        assert_eq!(bs.count_ones(), 0);
        bs.insert(69);
        // Grow: fresh words are zero, old bits are gone.
        bs.reset(200);
        assert_eq!(bs.len(), 200);
        assert_eq!(bs.count_ones(), 0);
        bs.insert(199);
        assert!(bs.contains(199));
        assert_eq!(bs.iter_ones().collect::<Vec<_>>(), vec![199]);
    }

    #[test]
    fn set_get_remove() {
        let mut bs = FixedBitSet::new(130);
        assert!(!bs.contains(0));
        bs.insert(0);
        bs.insert(64);
        bs.insert(129);
        assert!(bs.contains(0) && bs.contains(64) && bs.contains(129));
        assert!(!bs.contains(1) && !bs.contains(128));
        bs.remove(64);
        assert!(!bs.contains(64));
        assert_eq!(bs.count_ones(), 2);
    }

    #[test]
    fn iter_ones_in_order() {
        let mut bs = FixedBitSet::new(200);
        for i in [3usize, 64, 65, 199] {
            bs.insert(i);
        }
        let ones: Vec<_> = bs.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 65, 199]);
    }

    #[test]
    fn clear_resets_all() {
        let mut bs = FixedBitSet::new(100);
        for i in 0..100 {
            bs.insert(i);
        }
        bs.clear();
        assert_eq!(bs.count_ones(), 0);
    }

    #[test]
    fn empty_bitset() {
        let bs = FixedBitSet::new(0);
        assert!(bs.is_empty());
        assert_eq!(bs.iter_ones().count(), 0);
    }

    #[test]
    fn epoch_mark_and_reset() {
        let mut em = EpochMarker::new(10);
        assert!(em.mark(3));
        assert!(!em.mark(3), "second mark reports already-marked");
        assert!(em.is_marked(3));
        assert!(!em.is_marked(4));
        em.reset();
        assert!(!em.is_marked(3), "reset unmarks");
        assert!(em.mark(3));
    }

    #[test]
    fn epoch_wraparound_is_sound() {
        let mut em = EpochMarker::new(4);
        em.mark(0);
        // Force the wrap path.
        em.epoch = u32::MAX;
        em.mark(1);
        em.reset(); // wraps to 0 then snaps to 1 with zeroed stamps
        assert!(!em.is_marked(0));
        assert!(!em.is_marked(1));
        assert!(em.mark(1));
    }

    #[test]
    fn epoch_wrap_zeroes_every_stamp() {
        // A stale stamp surviving the wrap would alias epoch 1 and read as
        // marked; the wrap must leave the whole arena zeroed.
        let mut em = EpochMarker::new(16);
        for i in 0..16 {
            em.mark(i);
        }
        em.epoch = u32::MAX;
        for i in 0..8 {
            em.mark(i); // stamps 0..8 now hold u32::MAX
        }
        em.reset();
        assert_eq!(em.epoch, 1, "wrap snaps the epoch back to 1");
        assert!(em.stamps.iter().all(|&s| s == 0), "stamp array zeroed on wrap");
        for i in 0..16 {
            assert!(!em.is_marked(i));
            assert!(em.mark(i), "slot {i} must be fresh after the wrap");
        }
    }

    #[test]
    fn out_of_range_insert_panics_even_in_release() {
        // 70 bits leave 58 ghost positions in the tail word; setting any
        // of them must be rejected by a hard assert, not a debug_assert.
        let mut bs = FixedBitSet::new(70);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bs.insert(71)));
        assert!(panic.is_err(), "tail-word ghost insert must panic");
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bs.remove(70)));
        assert!(panic.is_err(), "tail-word ghost remove must panic");
        assert_eq!(bs.count_ones(), 0, "failed mutations must not leak bits");
    }

    #[test]
    fn assign_and_not_is_set_difference() {
        let mut a = FixedBitSet::new(130);
        let mut b = FixedBitSet::new(130);
        for i in [0usize, 5, 64, 100, 129] {
            a.insert(i);
        }
        for i in [5usize, 64, 128] {
            b.insert(i);
        }
        let mut out = FixedBitSet::new(130);
        out.insert(77); // stale content must be overwritten
        out.assign_and_not(&a, &b);
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![0, 100, 129]);
    }

    #[test]
    fn word_ops_reject_capacity_mismatch() {
        let a = FixedBitSet::new(64);
        let b = FixedBitSet::new(65);
        let mut out = FixedBitSet::new(64);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            out.assign_and_not(&a, &b)
        }));
        assert!(panic.is_err());
    }

    #[test]
    fn epoch_vertex_helpers() {
        let mut em = EpochMarker::new(8);
        assert!(em.mark_vertex(VertexId(5)));
        assert!(em.is_marked(5));
        em.grow(16);
        assert_eq!(em.len(), 16);
        assert!(!em.is_marked(15));
    }
}
