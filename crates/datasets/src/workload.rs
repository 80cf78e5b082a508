//! Query workload generation (paper §VII).
//!
//! "We randomly generate four groups of queries corresponding to each
//! dataset where each group consists of 100 queries." A [`QueryGen`]
//! reproduces that: seeded batches of query keyword sets of a given size,
//! sampled from the dataset's vocabulary **weighted by document
//! frequency** — uniform sampling over a Zipf vocabulary would mostly
//! pick tail terms carried by almost nobody, yielding degenerate queries
//! with empty candidate sets.

use ktg_common::{KtgError, Result, SeededRng};
use ktg_core::AttributedGraph;
use ktg_keywords::{KeywordId, QueryKeywords};

/// Seeded generator of query keyword sets for one attributed network.
pub struct QueryGen {
    /// Frequency-weighted cumulative table over keyword ids.
    cumulative: Vec<f64>,
    total: f64,
    rng: SeededRng,
}

impl QueryGen {
    /// Builds a generator for `net`, weighting keywords by how many
    /// vertices carry them.
    pub fn new(net: &AttributedGraph, seed: u64) -> Self {
        let m = net.vocab().len();
        let mut cumulative = Vec::with_capacity(m);
        let mut acc = 0.0;
        for k in 0..m {
            // +0.01 keeps unused vocabulary sampleable with tiny odds
            // (mirrors queries occasionally asking for rare expertise).
            acc += net.inverted().frequency(KeywordId(k as u32)) as f64 + 0.01;
            cumulative.push(acc);
        }
        QueryGen { total: acc, cumulative, rng: SeededRng::seed_from_u64(seed) }
    }

    /// Draws one query keyword set of `size` distinct keywords.
    ///
    /// # Errors
    /// [`KtgError::InvalidInput`] if `size` is 0, exceeds 64 or the
    /// vocabulary, or if sampling cannot find `size` distinct keywords.
    pub fn query(&mut self, size: usize) -> Result<QueryKeywords> {
        if !(1..=64).contains(&size) {
            return Err(KtgError::input(format!("query size {size} out of range 1..=64")));
        }
        if size > self.cumulative.len() {
            return Err(KtgError::input(format!(
                "query size {size} exceeds the vocabulary ({} keywords)",
                self.cumulative.len()
            )));
        }
        let mut ids: Vec<KeywordId> = Vec::with_capacity(size);
        let mut guard = 0;
        while ids.len() < size {
            guard += 1;
            if guard >= 10_000 {
                return Err(KtgError::input(
                    "query sampling failed to find distinct keywords",
                ));
            }
            let x = self.rng.gen_range(0.0..self.total);
            let k = KeywordId(self.cumulative.partition_point(|&c| c <= x) as u32);
            if !ids.contains(&k) {
                ids.push(k);
            }
        }
        QueryKeywords::new(ids)
    }

    /// Draws a batch of `count` queries (the paper's 100-query groups).
    ///
    /// # Errors
    /// Propagates the first [`QueryGen::query`] failure.
    pub fn batch(&mut self, count: usize, size: usize) -> Result<Vec<QueryKeywords>> {
        (0..count).map(|_| self.query(size)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DatasetProfile;

    fn net() -> AttributedGraph {
        DatasetProfile::Brightkite.instantiate(200, 11)
    }

    #[test]
    fn queries_have_requested_size() {
        let net = net();
        let mut qg = QueryGen::new(&net, 1);
        for size in [4usize, 6, 8] {
            let q = qg.query(size).expect("valid size");
            assert_eq!(q.len(), size);
        }
    }

    #[test]
    fn batch_is_deterministic_by_seed() {
        let net = net();
        let a: Vec<_> = QueryGen::new(&net, 5).batch(10, 6).expect("valid batch");
        let b: Vec<_> = QueryGen::new(&net, 5).batch(10, 6).expect("valid batch");
        assert_eq!(a, b);
        let c: Vec<_> = QueryGen::new(&net, 6).batch(10, 6).expect("valid batch");
        assert_ne!(a, c);
    }

    #[test]
    fn frequency_weighting_yields_nonempty_candidates() {
        let net = net();
        let mut qg = QueryGen::new(&net, 2);
        let mut nonempty = 0;
        for _ in 0..20 {
            let q = qg.query(6).expect("valid size");
            let masks = net.compile(&q);
            if !masks.candidates().is_empty() {
                nonempty += 1;
            }
        }
        assert!(nonempty >= 19, "only {nonempty}/20 queries had candidates");
    }

    #[test]
    fn zero_size_is_an_error() {
        let net = net();
        assert!(QueryGen::new(&net, 0).query(0).is_err());
        assert!(QueryGen::new(&net, 0).query(65).is_err());
    }
}
