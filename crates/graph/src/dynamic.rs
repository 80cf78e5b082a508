//! A mutable adjacency-list graph.
//!
//! The paper's §V-B discusses maintaining the NLRNL index under edge
//! insertions and deletions ("deleting/inserting one vertex can be divided
//! into edge deletions/insertions"). [`DynamicGraph`] is the adjacency-list
//! counterpart of [`CsrGraph`] used by `ktg-index`'s `DynamicNlrnl`, and
//! the reference the in-place CSR edits are tested against. Conversions in
//! both directions are lossless.

use crate::csr::{Adjacency, CsrGraph, GraphBuilder};
use ktg_common::{KtgError, Result, VertexId};

/// An undirected graph with sorted adjacency vectors, supporting edge
/// insertion and deletion in O(d) per endpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DynamicGraph {
    adj: Vec<Vec<VertexId>>,
    num_edges: usize,
}

impl DynamicGraph {
    /// Creates an edgeless graph on `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        DynamicGraph { adj: vec![Vec::new(); num_vertices], num_edges: 0 }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v.index()]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// Whether edge `{u, v}` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj[u.index()].binary_search(&v).is_ok()
    }

    /// Inserts the undirected edge `{u, v}`. Returns `true` if the edge was
    /// new, `false` if it already existed. Self-loops are rejected.
    ///
    /// # Errors
    /// [`KtgError::InvalidInput`] on out-of-range endpoints or self-loops.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool> {
        self.check(u, v)?;
        match self.adj[u.index()].binary_search(&v) {
            Ok(_) => Ok(false),
            Err(pos_u) => {
                self.adj[u.index()].insert(pos_u, v);
                let pos_v = self.adj[v.index()]
                    .binary_search(&u)
                    .expect_err("symmetry invariant broken");
                self.adj[v.index()].insert(pos_v, u);
                self.num_edges += 1;
                Ok(true)
            }
        }
    }

    /// Removes the undirected edge `{u, v}`. Returns `true` if it existed.
    ///
    /// # Errors
    /// [`KtgError::InvalidInput`] on out-of-range endpoints or self-loops.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool> {
        self.check(u, v)?;
        match self.adj[u.index()].binary_search(&v) {
            Err(_) => Ok(false),
            Ok(pos_u) => {
                self.adj[u.index()].remove(pos_u);
                let pos_v = self.adj[v.index()].binary_search(&u).map_err(|_| {
                    KtgError::input(format!("adjacency symmetry broken at ({u}, {v})"))
                })?;
                self.adj[v.index()].remove(pos_v);
                self.num_edges -= 1;
                Ok(true)
            }
        }
    }

    fn check(&self, u: VertexId, v: VertexId) -> Result<()> {
        let n = self.adj.len();
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

    /// Freezes into a [`CsrGraph`].
    pub fn to_csr(&self) -> CsrGraph {
        let mut b = GraphBuilder::with_edge_capacity(self.num_vertices(), self.num_edges);
        for (u, ns) in self.adj.iter().enumerate() {
            let u = VertexId::new(u);
            for &v in ns {
                if u < v {
                    b.add_edge_unchecked(u, v);
                }
            }
        }
        b.build()
    }

    /// Thaws a [`CsrGraph`] into mutable form.
    pub fn from_csr(graph: &CsrGraph) -> Self {
        Self::from_graph(graph)
    }

    /// Thaws any [`Adjacency`] into mutable form.
    pub fn from_graph<A: Adjacency>(graph: &A) -> Self {
        let adj: Vec<Vec<VertexId>> = ktg_common::id::vertex_range(graph.num_vertices())
            .map(|v| {
                let mut ns = Vec::with_capacity(graph.degree(v));
                graph.for_each_neighbor(v, |w| ns.push(w));
                ns
            })
            .collect();
        DynamicGraph { adj, num_edges: graph.num_edges() }
    }
}

impl Adjacency for DynamicGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        DynamicGraph::num_vertices(self)
    }
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        DynamicGraph::degree(self, v)
    }
    #[inline]
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        for &w in DynamicGraph::neighbors(self, v) {
            f(w);
        }
    }
    #[inline]
    fn num_edges(&self) -> usize {
        DynamicGraph::num_edges(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = DynamicGraph::new(4);
        assert!(g.insert_edge(VertexId(0), VertexId(2)).unwrap());
        assert!(!g.insert_edge(VertexId(2), VertexId(0)).unwrap(), "dup ignored");
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(VertexId(0), VertexId(2)));
        assert!(g.remove_edge(VertexId(0), VertexId(2)).unwrap());
        assert!(!g.remove_edge(VertexId(0), VertexId(2)).unwrap());
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn neighbor_lists_stay_sorted() {
        let mut g = DynamicGraph::new(5);
        for v in [3u32, 1, 4, 2] {
            g.insert_edge(VertexId(0), VertexId(v)).unwrap();
        }
        let ns: Vec<u32> = g.neighbors(VertexId(0)).iter().map(|v| v.0).collect();
        assert_eq!(ns, vec![1, 2, 3, 4]);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = DynamicGraph::new(2);
        assert!(g.insert_edge(VertexId(1), VertexId(1)).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = DynamicGraph::new(2);
        assert!(g.insert_edge(VertexId(0), VertexId(9)).is_err());
        assert!(g.remove_edge(VertexId(0), VertexId(9)).is_err());
    }

    #[test]
    fn csr_roundtrip() {
        let csr = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let dyn_g = DynamicGraph::from_csr(&csr);
        assert_eq!(dyn_g.num_edges(), 3);
        assert_eq!(dyn_g.to_csr(), csr);
    }

    #[test]
    fn mutation_then_freeze_matches() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(VertexId(0), VertexId(1)).unwrap();
        g.insert_edge(VertexId(1), VertexId(2)).unwrap();
        g.insert_edge(VertexId(2), VertexId(3)).unwrap();
        g.remove_edge(VertexId(1), VertexId(2)).unwrap();
        let csr = g.to_csr();
        assert_eq!(csr.num_edges(), 2);
        assert!(csr.has_edge(VertexId(0), VertexId(1)));
        assert!(!csr.has_edge(VertexId(1), VertexId(2)));
    }
}
