//! Seeded pseudo-random number generation, from scratch.
//!
//! The workspace builds fully offline with zero external dependencies, so
//! the `rand` crate is replaced by two small, well-studied generators:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer. One multiply
//!   chain per output, equidistributed, and the canonical way to expand a
//!   single `u64` seed into a larger state without correlated streams.
//! * [`Xoshiro256pp`] — Blackman & Vigna's xoshiro256++ 1.0, the
//!   general-purpose generator behind `rand::rngs::SmallRng` on 64-bit
//!   targets. 256 bits of state, period 2²⁵⁶ − 1, seeded via SplitMix64.
//!
//! Everything is deterministic in the seed: the same seed always yields
//! the same stream on every platform, which the dataset generators and the
//! randomized differential tests rely on (byte-identical synthetic
//! datasets per seed).
//!
//! Integer ranges are sampled with Lemire's multiply-shift rejection
//! method (exactly uniform, no modulo bias); floats use the conventional
//! 53-high-bit mapping into `[0, 1)`.

use std::ops::{Range, RangeInclusive};

/// The workspace's default seeded generator (xoshiro256++).
pub type SeededRng = Xoshiro256pp;

/// SplitMix64: a tiny splittable generator used to expand seeds.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0: the workspace's general-purpose PRNG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the full 256-bit state from one `u64` via SplitMix64, as the
    /// xoshiro authors recommend. All-zero states are impossible this way.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform `u64` in `0..n` via Lemire multiply-shift with rejection.
    ///
    /// # Panics
    /// Panics when `n` is zero.
    #[inline]
    pub fn bounded_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample an empty range");
        // Rejection threshold: the lowest 2^64 mod n values of the low
        // half are biased; reroll on them.
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(n);
            if m as u64 >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    /// Panics when `p` is outside `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.gen_f64() < p
    }

    /// Uniform draw from a range, e.g. `rng.gen_range(0..n)` or
    /// `rng.gen_range(1..=6)` or `rng.gen_range(0.0..total)`.
    ///
    /// # Panics
    /// Panics on empty ranges.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` on an empty slice.
    #[inline]
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded_u64(slice.len() as u64) as usize])
        }
    }

    /// `k` distinct indices sampled uniformly from `0..n`, in random order.
    ///
    /// # Panics
    /// Panics when `k > n`.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
        if k * 4 >= n {
            // Dense: partial Fisher–Yates over the full index vector.
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + self.bounded_u64((n - i) as u64) as usize;
                idx.swap(i, j);
            }
            idx.truncate(k);
            idx
        } else {
            // Sparse: rejection into a small accumulator.
            let mut out: Vec<usize> = Vec::with_capacity(k);
            while out.len() < k {
                let x = self.bounded_u64(n as u64) as usize;
                if !out.contains(&x) {
                    out.push(x);
                }
            }
            out
        }
    }
}

/// Ranges [`Xoshiro256pp::gen_range`] can sample from.
pub trait SampleRange {
    /// The element type of the range.
    type Output;
    /// Draws one uniform element.
    fn sample_from(self, rng: &mut Xoshiro256pp) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from(self, rng: &mut Xoshiro256pp) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from(self, rng: &mut Xoshiro256pp) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.bounded_u64(span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u32, u64, usize, i32, i64);

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample_from(self, rng: &mut Xoshiro256pp) -> f64 {
        assert!(self.start < self.end, "empty range");
        // Strictly below `end`: rounding at the top of a wide span can
        // land exactly on it, so reroll (vanishingly rare).
        loop {
            let x = self.start + rng.gen_f64() * (self.end - self.start);
            if x < self.end {
                return x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 0 from the public-domain C source.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn deterministic_by_seed() {
        let mut a = SeededRng::seed_from_u64(42);
        let mut b = SeededRng::seed_from_u64(42);
        let mut c = SeededRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..100).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SeededRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(rng.gen_range(0..10u32) < 10);
            assert!((3..=8usize).contains(&rng.gen_range(3..=8usize)));
            let x = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&x));
            let f = rng.gen_range(1.5..2.5);
            assert!((1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn bounded_hits_every_value() {
        let mut rng = SeededRng::seed_from_u64(3);
        let mut counts = [0usize; 7];
        for _ in 0..7000 {
            counts[rng.bounded_u64(7) as usize] += 1;
        }
        for (v, &c) in counts.iter().enumerate() {
            assert!(c > 700, "value {v} drawn only {c} times");
        }
    }

    #[test]
    fn gen_bool_edges_and_bias() {
        let mut rng = SeededRng::seed_from_u64(11);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2500..3500).contains(&heads), "p=0.3 gave {heads}/10000");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SeededRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn sample_distinct_both_regimes() {
        let mut rng = SeededRng::seed_from_u64(9);
        for (n, k) in [(10, 8), (1000, 5), (4, 4), (3, 0)] {
            let s = rng.sample(n, k);
            assert_eq!(s.len(), k);
            let mut dedup = s.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), k, "duplicates in sample({n}, {k})");
            assert!(s.iter().all(|&x| x < n));
        }
    }

    #[test]
    fn choose_covers_slice() {
        let mut rng = SeededRng::seed_from_u64(13);
        assert_eq!(rng.choose::<u8>(&[]), None);
        let items = [10u8, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &x = rng.choose(&items).unwrap();
            seen[(x / 10 - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SeededRng::seed_from_u64(0).gen_range(5..5u32);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SeededRng::seed_from_u64(17);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
