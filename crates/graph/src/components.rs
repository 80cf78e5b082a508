//! Connected-component labelling.
//!
//! The NLRNL index (paper §V-B) stores, for each vertex, its hop neighbors
//! at levels `1..=c-1` and the *reverse* neighbors at levels `> c` — but not
//! level `c` itself. A membership miss in every stored list therefore means
//! "distance is exactly c" **or** "unreachable"; component ids disambiguate
//! the two in O(1). They are also handy for dataset sanity checks.

use crate::bfs::{bfs_levels, BfsScratch};
use crate::csr::Adjacency;
use ktg_common::VertexId;

/// Component labelling of a graph: `label[v]` identifies `v`'s connected
/// component; labels are dense in `0..num_components`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    labels: Vec<u32>,
    count: usize,
    sizes: Vec<usize>,
}

impl Components {
    /// Labels the components of `graph` by repeated BFS (O(n + m)).
    pub fn compute<A: Adjacency>(graph: &A) -> Self {
        let n = graph.num_vertices();
        let mut labels = vec![u32::MAX; n];
        let mut sizes = Vec::new();
        let mut scratch = BfsScratch::new(n);
        let mut count = 0u32;
        for v in 0..n {
            let v = VertexId::new(v);
            if labels[v.index()] != u32::MAX {
                continue;
            }
            let label = count;
            count += 1;
            labels[v.index()] = label;
            let mut size = 1usize;
            bfs_levels(graph, v, usize::MAX, &mut scratch, |u, _| {
                labels[u.index()] = label;
                size += 1;
            });
            sizes.push(size);
        }
        Components { labels, count: count as usize, sizes }
    }

    /// Reconstructs a labelling from raw labels (used when deserializing
    /// structures that embed component ids). Labels must be dense in
    /// `0..count` — anything else panics in debug builds.
    pub fn from_labels(labels: Vec<u32>) -> Self {
        let count = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
        let mut sizes = vec![0usize; count];
        for &l in &labels {
            debug_assert!((l as usize) < count);
            sizes[l as usize] += 1;
        }
        debug_assert!(sizes.iter().all(|&s| s > 0), "labels not dense");
        Components { labels, count, sizes }
    }

    /// Keeps the labelling exact across an edge edit that joined or split
    /// two components, without a BFS. Every vertex with a finite `dist`
    /// (BFS distances from one endpoint `y` of the edit) takes `label`;
    /// then labels are renumbered by first appearance, the order
    /// [`Components::compute`] assigns, so they stay dense and canonical.
    ///
    /// * *Join:* `dist` is from `y` **before** the edit, and `label` is the
    ///   other endpoint's.
    /// * *Split:* `dist` is from `y` **after** the edit, and `label` is
    ///   [`Components::count`], a fresh one.
    pub fn relabel_reached(&mut self, dist: &[u32], label: u32) {
        debug_assert_eq!(dist.len(), self.labels.len());
        for (l, &d) in self.labels.iter_mut().zip(dist) {
            if d != u32::MAX {
                *l = label;
            }
        }
        let mut renumbered = vec![u32::MAX; self.count + 1];
        self.sizes.clear();
        for l in &mut self.labels {
            let slot = &mut renumbered[*l as usize];
            if *slot == u32::MAX {
                *slot = self.sizes.len() as u32;
                self.sizes.push(0);
            }
            *l = *slot;
            self.sizes[*slot as usize] += 1;
        }
        self.count = self.sizes.len();
    }

    /// The component label of `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> u32 {
        self.labels[v.index()]
    }

    /// Whether `u` and `v` lie in the same component (i.e. their distance is
    /// finite).
    #[inline]
    pub fn same_component(&self, u: VertexId, v: VertexId) -> bool {
        self.labels[u.index()] == self.labels[v.index()]
    }

    /// Number of components.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Size (vertex count) of component `label`.
    #[inline]
    pub fn size(&self, label: u32) -> usize {
        self.sizes[label as usize]
    }

    /// Size of the largest component (0 for an empty graph).
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Approximate heap usage in bytes (counted into NLRNL space accounting).
    pub fn heap_bytes(&self) -> usize {
        self.labels.capacity() * std::mem::size_of::<u32>()
            + self.sizes.capacity() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    #[test]
    fn two_components_plus_isolated() {
        // {0,1,2} path, {3,4} edge, {5} isolated.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let c = Components::compute(&g);
        assert_eq!(c.count(), 3);
        assert!(c.same_component(VertexId(0), VertexId(2)));
        assert!(c.same_component(VertexId(3), VertexId(4)));
        assert!(!c.same_component(VertexId(0), VertexId(3)));
        assert!(!c.same_component(VertexId(4), VertexId(5)));
    }

    #[test]
    fn sizes_and_largest() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let c = Components::compute(&g);
        let mut sizes: Vec<_> = (0..c.count() as u32).map(|l| c.size(l)).collect();
        sizes.sort();
        assert_eq!(sizes, vec![1, 2, 3]);
        assert_eq!(c.largest(), 3);
    }

    #[test]
    fn connected_graph_single_component() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let c = Components::compute(&g);
        assert_eq!(c.count(), 1);
        assert_eq!(c.largest(), 4);
    }

    #[test]
    fn empty_graph_zero_components() {
        let g = CsrGraph::from_edges(0, &[]).unwrap();
        let c = Components::compute(&g);
        assert_eq!(c.count(), 0);
        assert_eq!(c.largest(), 0);
    }

    fn distances(g: &CsrGraph, source: u32) -> Vec<u32> {
        let mut dist = vec![u32::MAX; g.num_vertices()];
        dist[source as usize] = 0;
        let mut scratch = BfsScratch::new(g.num_vertices());
        bfs_levels(g, VertexId(source), usize::MAX, &mut scratch, |v, d| dist[v.index()] = d);
        dist
    }

    /// Inserts `{x, y}` (joining two components) and relabels as the
    /// NLRNL update path does: `y`'s old component takes `x`'s label.
    fn assert_join_matches_compute(n: usize, edges: &[(u32, u32)], x: u32, y: u32) {
        let before = CsrGraph::from_edges(n, edges).unwrap();
        let after = CsrGraph::from_edges(n, &[edges, &[(x, y)]].concat()).unwrap();
        let mut c = Components::compute(&before);
        assert!(!c.same_component(VertexId(x), VertexId(y)), "not a join");
        let label = c.label(VertexId(x));
        c.relabel_reached(&distances(&before, y), label);
        assert_eq!(c, Components::compute(&after), "join ({x}, {y})");
    }

    /// Removes `{x, y}` (splitting a component) and relabels as the NLRNL
    /// update path does: `y`'s new component takes a fresh label.
    fn assert_split_matches_compute(n: usize, edges: &[(u32, u32)], x: u32, y: u32) {
        let before = CsrGraph::from_edges(n, edges).unwrap();
        let kept: Vec<_> = edges.iter().copied().filter(|&e| e != (x, y) && e != (y, x)).collect();
        let after = CsrGraph::from_edges(n, &kept).unwrap();
        let mut c = Components::compute(&before);
        let fresh = c.count() as u32;
        c.relabel_reached(&distances(&after, y), fresh);
        assert!(!c.same_component(VertexId(x), VertexId(y)), "not a split");
        assert_eq!(c, Components::compute(&after), "split ({x}, {y})");
    }

    #[test]
    fn relabel_after_join_matches_compute() {
        // Labels 0: {0, 1}, 1: {2}, 2: {3, 4}, 3: {5}.
        let edges = [(0, 1), (3, 4)];
        // y's label is the middle one, the first one, and the last one.
        assert_join_matches_compute(6, &edges, 0, 2);
        assert_join_matches_compute(6, &edges, 4, 0);
        assert_join_matches_compute(6, &edges, 1, 5);
        assert_join_matches_compute(6, &edges, 2, 3);
        assert_join_matches_compute(6, &edges, 3, 2);
    }

    #[test]
    fn relabel_after_split_matches_compute() {
        // Labels 0: {0, 1, 2, 3}, 1: {4}, 2: {5, 6}.
        let edges = [(0, 1), (1, 2), (2, 3), (5, 6)];
        // y on the high side, on the low side, and a split of the last
        // component.
        assert_split_matches_compute(7, &edges, 1, 2);
        assert_split_matches_compute(7, &edges, 2, 1);
        assert_split_matches_compute(7, &edges, 0, 1);
        assert_split_matches_compute(7, &edges, 6, 5);
        assert_split_matches_compute(7, &edges, 5, 6);
    }

    #[test]
    fn labels_are_dense() {
        let g = CsrGraph::from_edges(5, &[(1, 2)]).unwrap();
        let c = Components::compute(&g);
        let mut labels: Vec<_> = (0..5).map(|i| c.label(VertexId(i))).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels, (0..c.count() as u32).collect::<Vec<_>>());
    }
}
