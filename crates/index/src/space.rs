//! Index space and construction accounting (paper Figure 9).
//!
//! The paper compares NL vs NLRNL on two axes: bytes stored and build wall
//! time. Both indexes report these through the structures here so the
//! Figure 9 bench prints directly comparable rows.

use std::time::Duration;

/// Byte-level breakdown of an index's storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexSpace {
    /// Bytes in forward hop-level lists.
    pub forward_bytes: usize,
    /// Bytes in reverse hop-level lists (NLRNL only).
    pub reverse_bytes: usize,
    /// Bytes in auxiliary structures (level tables, component labels, ...).
    pub aux_bytes: usize,
}

impl IndexSpace {
    /// Total bytes.
    pub fn total_bytes(&self) -> usize {
        self.forward_bytes + self.reverse_bytes + self.aux_bytes
    }
}

/// Construction statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Wall-clock build time.
    pub elapsed: Duration,
    /// Number of per-vertex BFS traversals performed.
    pub traversals: usize,
    /// Total hop-list entries written.
    pub entries: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let s = IndexSpace { forward_bytes: 100, reverse_bytes: 50, aux_bytes: 10 };
        assert_eq!(s.total_bytes(), 160);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(IndexSpace::default().total_bytes(), 0);
    }
}
