//! The attributed social network facade.
//!
//! [`AttributedGraph`] bundles the paper's `G = (V, E, κ)`: topology,
//! vocabulary, per-vertex keyword sets, and the inverted index derived
//! from them. It is the type examples and downstream users hold; the
//! algorithm modules take it by reference.

use ktg_common::{Result, VertexId};
use ktg_graph::CsrGraph;
use ktg_keywords::{InvertedIndex, QueryKeywords, QueryMasks, VertexKeywords, Vocabulary};

/// An attributed social network `G = (V, E, κ)`.
#[derive(Clone, Debug)]
pub struct AttributedGraph {
    graph: CsrGraph,
    vocab: Vocabulary,
    keywords: VertexKeywords,
    inverted: InvertedIndex,
}

impl AttributedGraph {
    /// Assembles a network from its parts, building the inverted index.
    ///
    /// # Panics
    /// Debug-panics if the keyword arena covers a different number of
    /// vertices than the graph.
    pub fn new(graph: CsrGraph, vocab: Vocabulary, keywords: VertexKeywords) -> Self {
        debug_assert_eq!(
            graph.num_vertices(),
            keywords.num_vertices(),
            "graph and keyword arenas disagree on |V|"
        );
        let inverted = InvertedIndex::build(&keywords, vocab.len());
        AttributedGraph { graph, vocab, keywords, inverted }
    }

    /// Another name for [`AttributedGraph::new`], kept because
    /// `perfbench/` assembles reloaded bundles through it.
    pub fn with_store(graph: CsrGraph, vocab: Vocabulary, keywords: VertexKeywords) -> Self {
        Self::new(graph, vocab, keywords)
    }

    /// The social graph.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Mutable access to the topology, for in-place edge updates
    /// ([`CsrGraph::insert_edge`], [`CsrGraph::remove_edge`]). Edges do
    /// not enter the vocabulary, keyword arena or inverted index, and the
    /// edits never change the vertex count, so all of them stay valid.
    #[inline]
    pub fn graph_mut(&mut self) -> &mut CsrGraph {
        &mut self.graph
    }

    /// The keyword vocabulary `κ`.
    #[inline]
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Per-vertex keyword sets.
    #[inline]
    pub fn keywords(&self) -> &VertexKeywords {
        &self.keywords
    }

    /// The inverted keyword index.
    #[inline]
    pub fn inverted(&self) -> &InvertedIndex {
        &self.inverted
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Resolves query keyword strings against the vocabulary.
    ///
    /// # Errors
    /// [`ktg_common::KtgError::InvalidQuery`] for unknown terms or invalid
    /// set sizes.
    pub fn query_keywords<'a>(
        &self,
        terms: impl IntoIterator<Item = &'a str>,
    ) -> Result<QueryKeywords> {
        QueryKeywords::from_terms(&self.vocab, terms)
    }

    /// Compiles a query keyword set into per-vertex masks.
    pub fn compile(&self, keywords: &QueryKeywords) -> QueryMasks {
        keywords.compile(&self.inverted, self.num_vertices())
    }

    /// Formats a vertex's keyword list for reports, e.g. `"v3{SN, GD}"`.
    pub fn describe_vertex(&self, v: VertexId) -> String {
        let terms: Vec<&str> =
            self.keywords.keywords(v).iter().map(|&k| self.vocab.term(k)).collect();
        format!("v{}{{{}}}", v.0, terms.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktg_keywords::VertexKeywordsBuilder;

    fn tiny() -> AttributedGraph {
        let graph = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut vocab = Vocabulary::new();
        let a = vocab.intern("a");
        let b = vocab.intern("b");
        let mut kb = VertexKeywordsBuilder::new(3);
        kb.add(VertexId(0), a);
        kb.add(VertexId(2), b);
        kb.add(VertexId(2), a);
        AttributedGraph::new(graph, vocab, kb.build())
    }

    #[test]
    fn compile_end_to_end() {
        let net = tiny();
        let q = net.query_keywords(["a", "b"]).unwrap();
        let masks = net.compile(&q);
        assert_eq!(masks.mask(VertexId(0)), 0b01);
        assert_eq!(masks.mask(VertexId(1)), 0);
        assert_eq!(masks.mask(VertexId(2)), 0b11);
        assert_eq!(masks.candidates(), &[VertexId(0), VertexId(2)]);
    }

    #[test]
    fn unknown_keyword_errors() {
        let net = tiny();
        assert!(net.query_keywords(["zzz"]).is_err());
    }

    #[test]
    fn describe_vertex_lists_terms() {
        let net = tiny();
        assert_eq!(net.describe_vertex(VertexId(2)), "v2{a, b}");
        assert_eq!(net.describe_vertex(VertexId(1)), "v1{}");
    }
}
