//! Compact vertex identifiers.
//!
//! Every crate in the workspace addresses vertices by [`VertexId`], a
//! transparent `u32` newtype. Graphs in the evaluated datasets stay below
//! 2^32 vertices (the largest profile is the one-million-node DBLP variant),
//! so 32 bits halves the footprint of neighbor lists relative to `usize`
//! while keeping index arithmetic free.

use std::fmt;

/// A vertex handle: an index into the contiguous vertex space of a graph.
///
/// `VertexId` is ordered, hashable, and convertible to/from `usize` for
/// array indexing. The id-ordered storage trick of the NLRNL index (store a
/// pair only under its smaller endpoint) relies on this ordering.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Largest representable id, used as a sentinel for "no vertex".
    pub const INVALID: VertexId = VertexId(u32::MAX);

    /// Creates an id from a `usize` index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        debug_assert!(index < u32::MAX as usize, "vertex index overflows u32");
        VertexId(index as u32)
    }

    /// Returns the id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

impl From<VertexId> for u32 {
    #[inline]
    fn from(v: VertexId) -> Self {
        v.0
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Iterator over the vertex ids `0..n`, convenient for whole-graph sweeps.
pub fn vertex_range(n: usize) -> impl ExactSizeIterator<Item = VertexId> {
    (0..n as u32).map(VertexId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_usize() {
        let v = VertexId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(u32::from(v), 42);
        assert_eq!(VertexId::from(42u32), v);
    }

    #[test]
    fn ordering_matches_raw_ids() {
        assert!(VertexId(3) < VertexId(10));
        assert!(VertexId(10) <= VertexId(10));
    }

    #[test]
    fn invalid_sentinel() {
        assert_eq!(VertexId::INVALID, VertexId(u32::MAX));
        assert!(VertexId(u32::MAX - 1) < VertexId::INVALID, "the sentinel is the largest id");
    }

    #[test]
    fn vertex_range_covers_all() {
        let ids: Vec<_> = vertex_range(4).collect();
        assert_eq!(ids, vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", VertexId(7)), "7");
        assert_eq!(format!("{:?}", VertexId(7)), "v7");
    }
}
