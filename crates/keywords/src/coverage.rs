//! Coverage arithmetic (paper Definitions 5, 6 and 8).
//!
//! With per-vertex masks over `W_Q`, the three coverage notions reduce to
//! bit operations:
//!
//! * `QKC(v)` (Def. 5)  = `popcount(mask_v) / |W_Q|`
//! * `QKC(F)` (Def. 6)  = `popcount(⋃ mask_v) / |W_Q|`
//! * `VKC(v)` (Def. 8)  = `popcount(mask_v \ covered(S_I)) / |W_Q|`
//!
//! The branch-and-bound search compares coverages with common denominator
//! `|W_Q|`, so the *integer* variants (`*_count`) are what the hot paths
//! use; the `f64` ratios exist for reports and the DKTG score.

/// Number of query keywords covered by a mask.
#[inline]
pub fn covered_count(mask: u64) -> u32 {
    mask.count_ones()
}

/// `QKC` of a single mask as a ratio in `[0, 1]`.
#[inline]
pub fn qkc(mask: u64, num_query_keywords: usize) -> f64 {
    debug_assert!(num_query_keywords > 0);
    covered_count(mask) as f64 / num_query_keywords as f64
}

/// The union mask of a group given its member masks.
#[inline]
pub fn group_mask<I: IntoIterator<Item = u64>>(masks: I) -> u64 {
    masks.into_iter().fold(0, |acc, m| acc | m)
}

/// Valid-keyword count of `mask` w.r.t. an already-covered mask (Def. 8
/// numerator): query keywords `v` would newly contribute to `S_I`.
#[inline]
pub fn vkc_count(mask: u64, covered: u64) -> u32 {
    (mask & !covered).count_ones()
}

/// `VKC` as a ratio (Def. 8).
#[inline]
pub fn vkc(mask: u64, covered: u64, num_query_keywords: usize) -> f64 {
    vkc_count(mask, covered) as f64 / num_query_keywords as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_ratios() {
        assert_eq!(covered_count(0b1011), 3);
        assert!((qkc(0b1011, 5) - 0.6).abs() < 1e-12);
        assert_eq!(qkc(0, 5), 0.0);
    }

    #[test]
    fn group_union() {
        let masks = [0b001u64, 0b010, 0b010];
        assert_eq!(group_mask(masks), 0b011);
        assert!((qkc(group_mask(masks), 3) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn vkc_excludes_covered() {
        // v covers {0,1,3}; S_I already covers {1,2}.
        assert_eq!(vkc_count(0b1011, 0b0110), 2); // bits 0 and 3 are new
        assert!((vkc(0b1011, 0b0110, 4) - 0.5).abs() < 1e-12);
        assert_eq!(vkc_count(0b1011, 0b1011), 0);
        assert_eq!(vkc_count(0b1011, 0), 3);
    }

    #[test]
    fn paper_running_example() {
        // Figure 1 walk-through from §IV-A: W_Q = {SN, QP, DQ, GQ, GD},
        // bits in that order. S_I = {u0} covers {SN, GD, DQ}; u10 covers
        // {QP, GD} of which only QP is valid → VKC(u10) = 1/5.
        let w_q = 5;
        let u0 = 0b10101u64; // SN, DQ, GD
        let u10 = 0b10010u64; // QP, GD
        assert_eq!(vkc_count(u10, u0), 1);
        assert!((vkc(u10, u0, w_q) - 0.2).abs() < 1e-12);
        // Group coverage of {u0, u10}: SN, QP, DQ, GD → 4/5.
        assert!((qkc(group_mask([u0, u10]), w_q) - 0.8).abs() < 1e-12);
    }
}
