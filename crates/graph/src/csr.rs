//! Compressed-sparse-row undirected graphs.
//!
//! [`CsrGraph`] stores neighbor lists in one contiguous array indexed by a
//! per-vertex offset table. Neighbor lists are sorted, enabling binary-search
//! adjacency tests and merge-style set operations in the indexes. Single
//! edges are inserted and removed in place ([`CsrGraph::insert_edge`],
//! [`CsrGraph::remove_edge`]): one sorted insert or remove in each
//! endpoint's list, shifting the array tail and the offsets after it. That
//! is O(n + m) memory movement per edit, but no allocation-heavy rebuild,
//! which is what lets a serving session keep one topology across updates.

use ktg_common::{KtgError, Result, VertexId};

/// Read access to an undirected graph's adjacency structure.
///
/// [`CsrGraph`] and [`crate::DynamicGraph`] both implement this, so
/// traversals (BFS, component labelling) and index construction run over
/// the CSR and the adjacency lists alike. Neighbor access is
/// callback-based ([`Adjacency::for_each_neighbor`]); implementations
/// must visit neighbors in strictly ascending vertex order (the invariant
/// every sorted list already keeps), which is what makes traversal
/// results identical across the two.
pub trait Adjacency {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Degree of `v`.
    fn degree(&self, v: VertexId) -> usize;
    /// Calls `f` once per neighbor of `v`, in ascending vertex order.
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, f: F);
    /// Number of undirected edges. The default sums degrees; concrete
    /// graphs override it with their O(1) count.
    fn num_edges(&self) -> usize {
        let mut half = 0usize;
        for v in ktg_common::id::vertex_range(self.num_vertices()) {
            half += self.degree(v);
        }
        half / 2
    }
}

impl<A: Adjacency + ?Sized> Adjacency for &A {
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }
    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, f: F) {
        (**self).for_each_neighbor(v, f)
    }
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }
}

/// An undirected graph in CSR form, editable one edge at a time.
///
/// Invariants (established by [`GraphBuilder`], kept by the edits, and
/// checked in debug builds):
/// * neighbor lists are sorted and duplicate-free;
/// * no self-loops;
/// * symmetry: `v ∈ N(u)` iff `u ∈ N(v)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v.index()] .. offsets[v.index() + 1]` delimits `N(v)`.
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
}

impl CsrGraph {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// The sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let i = v.index();
        debug_assert!(i + 1 < self.offsets.len(), "vertex {v} out of range");
        let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        debug_assert!(
            start <= end && end <= self.neighbors.len(),
            "offset table corrupt at {v}: {start}..{end} of {}",
            self.neighbors.len()
        );
        let slice = &self.neighbors[start..end];
        debug_assert!(
            slice.windows(2).all(|w| w[0] < w[1]),
            "neighbor list of {v} is not sorted+deduplicated"
        );
        slice
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Whether the undirected edge `{u, v}` exists (binary search, O(log d)).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        // Probe the smaller list.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates all vertices.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> {
        ktg_common::id::vertex_range(self.num_vertices())
    }

    /// Iterates every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Checks that `{u, v}` can be an edge of this graph: both endpoints
    /// in range and distinct. The edits below validate through it.
    ///
    /// # Errors
    /// [`KtgError::InvalidInput`] on an out-of-range endpoint or a
    /// self-loop.
    pub fn check_edge(&self, u: VertexId, v: VertexId) -> Result<()> {
        let n = self.num_vertices();
        if u.index() >= n || v.index() >= n {
            return Err(KtgError::input(format!(
                "edge ({u}, {v}) out of range for {n} vertices"
            )));
        }
        if u == v {
            return Err(KtgError::input(format!("self-loop at {u}")));
        }
        Ok(())
    }

    /// Inserts the undirected edge `{u, v}` in place. Returns `true` if
    /// the edge was new, `false` if it already existed (graph untouched).
    ///
    /// # Errors
    /// [`KtgError::InvalidInput`] on an out-of-range endpoint or a
    /// self-loop; the graph is untouched.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool> {
        self.check_edge(u, v)?;
        if self.has_edge(u, v) {
            return Ok(false);
        }
        self.insert_half(u, v);
        self.insert_half(v, u);
        Ok(true)
    }

    /// Removes the undirected edge `{u, v}` in place. Returns `true` if it
    /// existed, `false` if it was absent (graph untouched).
    ///
    /// # Errors
    /// [`KtgError::InvalidInput`] on an out-of-range endpoint or a
    /// self-loop; the graph is untouched.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool> {
        self.check_edge(u, v)?;
        if !self.has_edge(u, v) {
            return Ok(false);
        }
        self.remove_half(u, v);
        self.remove_half(v, u);
        Ok(true)
    }

    /// Sorted insert of `v` into `N(u)`, shifting every later offset.
    fn insert_half(&mut self, u: VertexId, v: VertexId) {
        let start = self.offsets[u.index()] as usize;
        let pos = start + self.neighbors(u).partition_point(|&w| w < v);
        self.neighbors.insert(pos, v);
        for offset in &mut self.offsets[u.index() + 1..] {
            *offset += 1;
        }
    }

    /// Removes `v` from `N(u)` (present by the caller's check), shifting
    /// every later offset.
    fn remove_half(&mut self, u: VertexId, v: VertexId) {
        let start = self.offsets[u.index()] as usize;
        let pos = start + self.neighbors(u).partition_point(|&w| w < v);
        self.neighbors.remove(pos);
        for offset in &mut self.offsets[u.index() + 1..] {
            *offset -= 1;
        }
    }

    /// Builds directly from an edge list (convenience for tests/examples).
    pub fn from_edges(num_vertices: usize, edges: &[(u32, u32)]) -> Result<Self> {
        let mut b = GraphBuilder::new(num_vertices);
        for &(u, v) in edges {
            b.add_edge(VertexId(u), VertexId(v))?;
        }
        Ok(b.build())
    }

    /// Approximate heap usage in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u64>()
            + self.neighbors.capacity() * std::mem::size_of::<VertexId>()
    }

    /// The raw offset table (`n + 1` entries), for bulk persistence.
    pub fn raw_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw concatenated neighbor array, for bulk persistence.
    pub fn raw_neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Reassembles a graph from bulk-loaded parts, validating the CSR
    /// invariants in O(n + m): monotonic offsets covering the neighbor
    /// array, sorted duplicate-free lists, in-range ids, no self-loops.
    /// Symmetry is implied for data produced by [`Self::raw_offsets`] /
    /// [`Self::raw_neighbors`] and is only re-checked in debug builds —
    /// the persistence layer's checksum guards against corruption.
    ///
    /// # Errors
    /// Returns [`KtgError::InvalidInput`] when any invariant fails.
    pub fn from_sorted_parts(offsets: Vec<u64>, neighbors: Vec<VertexId>) -> Result<Self> {
        if offsets.is_empty() {
            return Err(KtgError::input("CSR offset table must have n + 1 entries"));
        }
        if offsets[0] != 0 || *offsets.last().unwrap_or(&0) != neighbors.len() as u64 {
            return Err(KtgError::input(format!(
                "CSR offsets must span 0..{} (got {}..{:?})",
                neighbors.len(),
                offsets[0],
                offsets.last()
            )));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(KtgError::input("CSR offset table is not monotonic"));
        }
        let n = offsets.len() - 1;
        let graph = CsrGraph { offsets, neighbors };
        for v in graph.vertices() {
            let i = v.index();
            let (s, e) = (graph.offsets[i] as usize, graph.offsets[i + 1] as usize);
            let list = &graph.neighbors[s..e];
            if list.windows(2).any(|w| w[0] >= w[1]) {
                return Err(KtgError::input(format!(
                    "neighbor list of {v} is not sorted+deduplicated"
                )));
            }
            if let Some(&last) = list.last() {
                if last.index() >= n {
                    return Err(KtgError::input(format!(
                        "neighbor {last} of {v} out of range for {n} vertices"
                    )));
                }
            }
            if list.binary_search(&v).is_ok() {
                return Err(KtgError::input(format!("self-loop at {v}")));
            }
        }
        #[cfg(debug_assertions)]
        graph.check_invariants();
        Ok(graph)
    }

    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        for u in self.vertices() {
            let ns = self.neighbors(u);
            debug_assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted+dedup");
            debug_assert!(!ns.contains(&u), "no self-loop at {u:?}");
            for &v in ns {
                debug_assert!(
                    self.neighbors(v).binary_search(&u).is_ok(),
                    "asymmetric edge ({u:?}, {v:?})"
                );
            }
        }
    }
}

impl Adjacency for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }
    #[inline]
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        for &w in CsrGraph::neighbors(self, v) {
            f(w);
        }
    }
    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }
}

/// Deduplicating builder for [`CsrGraph`].
///
/// Self-loops are silently dropped (social networks have no meaningful
/// self-friendship); parallel edges collapse to one.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    /// Directed half-edges; mirrored at build time.
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder { num_vertices, edges: Vec::new() }
    }

    /// Pre-allocates room for `n` edges.
    pub fn with_edge_capacity(num_vertices: usize, n: usize) -> Self {
        GraphBuilder { num_vertices, edges: Vec::with_capacity(n) }
    }

    /// Number of vertices the graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are ignored.
    ///
    /// # Errors
    /// Returns [`KtgError::InvalidInput`] if either endpoint is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        if u.index() >= self.num_vertices || v.index() >= self.num_vertices {
            return Err(KtgError::input(format!(
                "edge ({u}, {v}) out of range for {} vertices",
                self.num_vertices
            )));
        }
        if u != v {
            // Canonicalize so dedup catches both orientations.
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            self.edges.push((a, b));
        }
        Ok(())
    }

    /// Adds the undirected edge `{u, v}` when both endpoints are known
    /// in range *by construction* — generators sampling from
    /// `0..num_vertices`, remappers emitting fresh dense ids. Out-of-range
    /// endpoints are a caller bug: checked in debug builds, skipped (with
    /// self-loops) in release, so the infallible callers need no `expect`.
    pub fn add_edge_unchecked(&mut self, u: VertexId, v: VertexId) {
        debug_assert!(
            u.index() < self.num_vertices && v.index() < self.num_vertices,
            "edge ({u}, {v}) out of range for {} vertices",
            self.num_vertices
        );
        if u != v && u.index() < self.num_vertices && v.index() < self.num_vertices {
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            self.edges.push((a, b));
        }
    }

    /// Finalizes into a [`CsrGraph`]: O(m log m) for sort+dedup, then one
    /// counting pass.
    pub fn build(mut self) -> CsrGraph {
        self.edges.sort_unstable();
        self.edges.dedup();

        let n = self.num_vertices;
        let mut degree = vec![0u64; n];
        for &(a, b) in &self.edges {
            degree[a.index()] += 1;
            degree[b.index()] += 1;
        }

        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }

        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut neighbors = vec![VertexId::INVALID; acc as usize];
        for &(a, b) in &self.edges {
            neighbors[cursor[a.index()] as usize] = b;
            cursor[a.index()] += 1;
            neighbors[cursor[b.index()] as usize] = a;
            cursor[b.index()] += 1;
        }
        // Each vertex's slice was filled in globally sorted edge order, so
        // the `a`-side entries are already ascending, but the mirrored
        // `b`-side entries interleave; sort each list.
        let graph = {
            let mut g = CsrGraph { offsets, neighbors };
            for v in 0..n {
                let (s, e) = (g.offsets[v] as usize, g.offsets[v + 1] as usize);
                g.neighbors[s..e].sort_unstable();
            }
            g
        };
        #[cfg(debug_assertions)]
        graph.check_invariants();
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> CsrGraph {
        // 0 - 1 - 2 - 3
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn counts() {
        let g = path4();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = CsrGraph::from_edges(5, &[(4, 0), (2, 0), (0, 1)]).unwrap();
        assert_eq!(g.neighbors(VertexId(0)), &[VertexId(1), VertexId(2), VertexId(4)]);
        assert!(g.has_edge(VertexId(0), VertexId(4)));
        assert!(g.has_edge(VertexId(4), VertexId(0)));
        assert!(!g.has_edge(VertexId(1), VertexId(2)));
    }

    #[test]
    fn duplicate_and_reversed_edges_collapse() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(VertexId(0)), 1);
    }

    #[test]
    fn self_loops_dropped() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(VertexId(0)), 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new(2);
        assert!(b.add_edge(VertexId(0), VertexId(5)).is_err());
    }

    #[test]
    fn edges_iterated_once_canonical() {
        let g = path4();
        let es: Vec<_> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        assert_eq!(es, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = CsrGraph::from_edges(10, &[(0, 1)]).unwrap();
        assert_eq!(g.degree(VertexId(9)), 0);
        assert!(g.neighbors(VertexId(9)).is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    /// Seeded model check of the in-place edits against a
    /// [`crate::DynamicGraph`] replica: random graphs with isolated
    /// vertices, random insert/remove sequences. After every step both
    /// report the same change, the CSR equals the replica's rebuild, and
    /// the raw parts round-trip through the bundle loader. Invalid edits
    /// fail typed and leave the graph as it was.
    #[test]
    fn in_place_edits_match_a_dynamic_graph_model() {
        use crate::DynamicGraph;
        use ktg_common::SeededRng;
        for seed in 0..24u64 {
            let mut rng = SeededRng::seed_from_u64(0xC5E0 ^ seed);
            let n = rng.gen_range(1..41u32);
            // Only the first `active` vertices get edges, so the tail
            // stays isolated until an edit reaches it.
            let active = rng.gen_range(1..=n);
            let mut edges = Vec::new();
            for u in 0..active {
                for v in (u + 1)..active {
                    if rng.gen_bool(0.15) {
                        edges.push((u, v));
                    }
                }
            }
            let mut g = CsrGraph::from_edges(n as usize, &edges).unwrap();
            let mut model = DynamicGraph::from_csr(&g);
            for step in 0..200 {
                let (u, v) = (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
                let insert = rng.gen_bool(0.5);
                let (got, want) = if insert {
                    (g.insert_edge(u, v), model.insert_edge(u, v))
                } else {
                    (g.remove_edge(u, v), model.remove_edge(u, v))
                };
                let ctx = format!("seed {seed} step {step}: {insert} ({u}, {v})");
                match (got, want) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{ctx}"),
                    (Err(KtgError::InvalidInput(_)), Err(_)) => assert_eq!(u, v, "{ctx}"),
                    other => panic!("{ctx}: {other:?}"),
                }
                assert_eq!(g, model.to_csr(), "{ctx}");
                assert_eq!(g.num_edges(), model.num_edges(), "{ctx}");
                let parts = CsrGraph::from_sorted_parts(
                    g.raw_offsets().to_vec(),
                    g.raw_neighbors().to_vec(),
                )
                .unwrap();
                assert_eq!(parts, g, "{ctx}");
            }
            // Out of range (either side) and self-loops: typed, untouched.
            let before = g.clone();
            let far = VertexId(n);
            for (u, v) in [(VertexId(0), far), (far, VertexId(0)), (VertexId(0), VertexId(0))] {
                assert!(matches!(g.insert_edge(u, v), Err(KtgError::InvalidInput(_))));
                assert!(matches!(g.remove_edge(u, v), Err(KtgError::InvalidInput(_))));
                assert_eq!(g, before, "seed {seed}: a refused edit changed the graph");
            }
        }
    }

    #[test]
    fn degree_matches_neighbor_len() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
        assert_eq!(g.degree(VertexId(0)), 5);
        for v in 1..6 {
            assert_eq!(g.degree(VertexId(v)), 1);
        }
    }
}
