//! Query keyword sets and their compiled per-vertex masks.
//!
//! A KTG query carries a keyword set `W_Q`. The paper caps practical sizes
//! at `|W_Q| ≤ 8` (Table I); we allow up to 64 so that a vertex's covered
//! subset of `W_Q` fits in one `u64` bit mask. Compiling a query assigns
//! bit `i` to the `i`-th query keyword and walks the posting lists to give
//! every vertex its mask; all coverage math downstream is OR + popcount.

use crate::inverted::InvertedIndex;
use crate::vocab::{KeywordId, Vocabulary};
use ktg_common::{KtgError, Result, VertexId};

/// Maximum supported query keyword set size (mask width).
pub const MAX_QUERY_KEYWORDS: usize = 64;

/// A validated query keyword set `W_Q`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryKeywords {
    ids: Vec<KeywordId>,
}

impl QueryKeywords {
    /// Creates a query keyword set from ids. Duplicates are removed
    /// (preserving first occurrence order).
    ///
    /// # Errors
    /// [`KtgError::InvalidQuery`] if empty or more than
    /// [`MAX_QUERY_KEYWORDS`] distinct keywords.
    pub fn new(ids: impl IntoIterator<Item = KeywordId>) -> Result<Self> {
        let mut seen = Vec::new();
        for id in ids {
            if !seen.contains(&id) {
                seen.push(id);
            }
        }
        if seen.is_empty() {
            return Err(KtgError::query("query keyword set is empty"));
        }
        if seen.len() > MAX_QUERY_KEYWORDS {
            return Err(KtgError::query(format!(
                "|W_Q| = {} exceeds the supported maximum of {MAX_QUERY_KEYWORDS}",
                seen.len()
            )));
        }
        Ok(QueryKeywords { ids: seen })
    }

    /// Creates a query keyword set from strings resolved against a
    /// vocabulary.
    ///
    /// # Errors
    /// [`KtgError::InvalidQuery`] if any term is unknown, plus the size
    /// constraints of [`QueryKeywords::new`].
    pub fn from_terms<'a>(
        vocab: &Vocabulary,
        terms: impl IntoIterator<Item = &'a str>,
    ) -> Result<Self> {
        let ids: Result<Vec<KeywordId>> = terms
            .into_iter()
            .map(|t| {
                vocab
                    .get(t)
                    .ok_or_else(|| KtgError::query(format!("unknown query keyword '{t}'")))
            })
            .collect();
        Self::new(ids?)
    }

    /// Number of query keywords `|W_Q|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty (never true for a constructed value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The keyword ids, in mask-bit order: `ids()[i]` owns bit `i`.
    #[inline]
    pub fn ids(&self) -> &[KeywordId] {
        &self.ids
    }

    /// Compiles the query against an inverted index: per-vertex masks plus
    /// the candidate list (vertices covering ≥ 1 query keyword — the
    /// paper's per-member constraint `0 < QKC(v)`).
    ///
    /// ```
    /// use ktg_keywords::{InvertedIndex, KeywordId, QueryKeywords, VertexKeywords};
    ///
    /// let vk = VertexKeywords::from_lists(&[
    ///     vec![KeywordId(0), KeywordId(1)],
    ///     vec![],
    ///     vec![KeywordId(1)],
    /// ]);
    /// let idx = InvertedIndex::build(&vk, 2);
    /// let q = QueryKeywords::new([KeywordId(0), KeywordId(1)]).unwrap();
    /// let masks = q.compile(&idx, 3);
    /// assert_eq!(masks.mask(ktg_common::VertexId(0)), 0b11);
    /// assert_eq!(masks.candidates().len(), 2); // vertex 1 is unqualified
    /// ```
    pub fn compile(&self, index: &InvertedIndex, num_vertices: usize) -> QueryMasks {
        let mut masks = vec![0u64; num_vertices];
        for (bit, &k) in self.ids.iter().enumerate() {
            let bit_mask = 1u64 << bit;
            for &v in index.posting(k) {
                debug_assert!(v.index() < num_vertices);
                masks[v.index()] |= bit_mask;
            }
        }
        let candidates: Vec<VertexId> = (0..num_vertices)
            .filter(|&i| masks[i] != 0)
            .map(VertexId::new)
            .collect();
        QueryMasks { masks, candidates, num_keywords: self.ids.len() }
    }
}

/// The compiled form of a query: per-vertex coverage masks.
#[derive(Clone, Debug)]
pub struct QueryMasks {
    masks: Vec<u64>,
    candidates: Vec<VertexId>,
    num_keywords: usize,
}

impl QueryMasks {
    /// The coverage mask of `v` over `W_Q` (bit `i` ⇔ covers `ids()[i]`).
    #[inline]
    pub fn mask(&self, v: VertexId) -> u64 {
        self.masks[v.index()]
    }

    /// Vertices with at least one query keyword, in id order.
    #[inline]
    pub fn candidates(&self) -> &[VertexId] {
        &self.candidates
    }

    /// `|W_Q|`.
    #[inline]
    pub fn num_keywords(&self) -> usize {
        self.num_keywords
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex_keywords::VertexKeywords;

    fn setup() -> (Vocabulary, InvertedIndex, usize) {
        let mut vocab = Vocabulary::new();
        let ids = vocab.intern_all(["sn", "qp", "dq", "gq"]);
        let vk = VertexKeywords::from_lists(&[
            vec![ids[0], ids[1]], // v0: sn, qp
            vec![ids[2]],         // v1: dq
            vec![],               // v2: nothing
            vec![ids[3]],         // v3: gq (not queried below)
        ]);
        (vocab, InvertedIndex::build(&vk, 4), 4)
    }

    #[test]
    fn compile_masks_and_candidates() {
        let (vocab, idx, n) = setup();
        let q = QueryKeywords::from_terms(&vocab, ["sn", "qp", "dq"]).unwrap();
        let m = q.compile(&idx, n);
        assert_eq!(m.mask(VertexId(0)), 0b011);
        assert_eq!(m.mask(VertexId(1)), 0b100);
        assert_eq!(m.mask(VertexId(2)), 0);
        assert_eq!(m.mask(VertexId(3)), 0, "gq not in W_Q");
        assert_eq!(m.candidates(), &[VertexId(0), VertexId(1)]);
        assert_eq!(m.num_keywords(), 3);
    }

    #[test]
    fn duplicates_removed() {
        let q = QueryKeywords::new([KeywordId(1), KeywordId(1), KeywordId(2)]).unwrap();
        assert_eq!(q.ids(), &[KeywordId(1), KeywordId(2)]);
    }

    #[test]
    fn empty_rejected() {
        assert!(QueryKeywords::new([]).is_err());
    }

    #[test]
    fn oversized_rejected() {
        let ids = (0..65).map(KeywordId);
        assert!(QueryKeywords::new(ids).is_err());
    }

    #[test]
    fn exactly_64_allowed() {
        let q = QueryKeywords::new((0..64).map(KeywordId)).unwrap();
        assert_eq!(q.len(), 64);
    }

    #[test]
    fn unknown_term_rejected() {
        let (vocab, _, _) = setup();
        assert!(QueryKeywords::from_terms(&vocab, ["sn", "nope"]).is_err());
    }

    #[test]
    fn bit_order_matches_ids() {
        let (vocab, idx, n) = setup();
        let q = QueryKeywords::from_terms(&vocab, ["dq", "sn"]).unwrap();
        // dq owns bit 0, sn owns bit 1.
        let m = q.compile(&idx, n);
        assert_eq!(m.mask(VertexId(1)), 0b01);
        assert_eq!(m.mask(VertexId(0)), 0b10);
    }
}
