//! A small deterministic pseudo-random number generator.
//!
//! The repository must build with zero external dependencies, so this module
//! replaces the `rand` crate for the two places randomness is needed: the
//! seeded TPC-H data generator and the seeded randomized-property test
//! harnesses. The generator is **xoshiro256++** seeded via **SplitMix64**
//! (Blackman & Vigna), which passes statistical test batteries and is more
//! than adequate for workload generation and test-case sampling.
//!
//! The API mirrors the subset of `rand::Rng` the codebase uses
//! ([`SplitMix64::gen_range`], [`SplitMix64::gen_ratio`]) so call sites read
//! identically to their `rand` equivalents.

use std::ops::{Bound, RangeBounds};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded deterministic PRNG (xoshiro256++ seeded via SplitMix64).
///
/// The name reflects the seeding procedure, which is what callers interact
/// with: `SplitMix64::seed_from_u64(seed)` always yields the same stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    s: [u64; 4],
}

impl SplitMix64 {
    /// Creates a generator whose entire stream is determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SplitMix64 { s }
    }

    /// Returns the next 64 uniformly distributed bits (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed `u64` in the given range
    /// (`a..b` or `a..=b`), like `rand::Rng::gen_range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: impl RangeBounds<u64>) -> u64 {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi_inclusive = match range.end_bound() {
            Bound::Included(&n) => n,
            #[expect(
                clippy::expect_used,
                reason = "documented API contract: gen_range panics on an empty range"
            )]
            Bound::Excluded(&n) => n.checked_sub(1).expect("empty range"),
            Bound::Unbounded => u64::MAX,
        };
        assert!(lo <= hi_inclusive, "empty range {lo}..={hi_inclusive}");
        let span = hi_inclusive - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        // Rejection sampling over the largest multiple of span+1 to avoid
        // modulo bias.
        let n = span + 1;
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return lo + v % n;
            }
        }
    }

    /// Returns `true` with probability `numerator / denominator`,
    /// like `rand::Rng::gen_ratio`.
    pub fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        assert!(denominator > 0, "gen_ratio denominator must be non-zero");
        assert!(numerator <= denominator);
        self.gen_range(0..denominator as u64) < numerator as u64
    }

    /// Returns a uniformly distributed `usize` in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(0..n as u64) as usize
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)` built from the top
    /// 53 bits of the next word (the standard `rand` construction).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A bijective mixer over `u64` (the SplitMix64 finalizer).
///
/// Workload generators draw Zipfian *ranks* — small, dense integers where
/// rank 1 is the hottest. Feeding ranks straight into [`Key::from_u64`]
/// would concentrate the key space near zero and leave most hash buckets
/// cold; `scramble` spreads ranks uniformly over the whole `u64` space while
/// staying deterministic and collision-free (it is invertible), so the same
/// rank always maps to the same well-distributed key.
///
/// [`Key::from_u64`]: crate::entry::Key::from_u64
pub fn scramble(rank: u64) -> u64 {
    let mut z = rank.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A Zipfian distribution over the ranks `1..=n` with exponent `s`:
/// `P(k) ∝ k^-s`. Rank 1 is the hottest element.
///
/// Sampling uses rejection-inversion (Hörmann & Derflinger, "Rejection-
/// inversion to generate variates from monotone discrete distributions") —
/// O(1) per sample with no per-element table, so `n` can be millions without
/// any setup cost. This is the same algorithm `rand_distr::Zipf` uses; we
/// need an in-tree copy because the workspace builds with zero external
/// dependencies.
///
/// Skewed workloads are the regime the DynaHash paper targets: a Zipfian
/// key stream concentrates writes into a few hash buckets, forcing bucket
/// splits and hotspot migration that uniform streams never trigger.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: f64,
    s: f64,
    /// `H(1.5) - h(1)`: lower end of the uniform sampling interval.
    h_x1: f64,
    /// `H(n + 0.5)`: upper end of the uniform sampling interval.
    h_n: f64,
    /// Quick-accept threshold `2 - H⁻¹(H(2.5) - h(2))`.
    quick: f64,
}

impl Zipfian {
    /// Creates a Zipfian distribution over `1..=n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is not positive and finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipfian needs at least one rank");
        assert!(
            s > 0.0 && s.is_finite(),
            "Zipfian exponent must be positive"
        );
        let nf = n as f64;
        let h_x1 = Self::h_integral(1.5, s) - 1.0;
        let h_n = Self::h_integral(nf + 0.5, s);
        let quick = 2.0 - Self::h_integral_inv(Self::h_integral(2.5, s) - Self::h(2.0, s), s);
        Zipfian {
            n: nf,
            s,
            h_x1,
            h_n,
            quick,
        }
    }

    /// The density shape `h(x) = x^-s`.
    fn h(x: f64, s: f64) -> f64 {
        x.powf(-s)
    }

    /// The primitive `H(x) = (x^(1-s) - 1) / (1 - s)`, with the `ln x`
    /// limit at `s = 1`.
    fn h_integral(x: f64, s: f64) -> f64 {
        let q = 1.0 - s;
        if q.abs() < 1e-9 {
            x.ln()
        } else {
            (x.powf(q) - 1.0) / q
        }
    }

    /// The inverse `H⁻¹(x)`.
    fn h_integral_inv(x: f64, s: f64) -> f64 {
        let q = 1.0 - s;
        if q.abs() < 1e-9 {
            x.exp()
        } else {
            // Clamp the base at zero against floating-point drift at the
            // lower edge of the sampling interval.
            (1.0 + q * x).max(0.0).powf(1.0 / q)
        }
    }

    /// Draws a rank in `1..=n`; rank 1 is the most likely.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        loop {
            // u uniform in (H(1.5) - 1, H(n + 0.5)].
            let u = self.h_n + rng.gen_f64() * (self.h_x1 - self.h_n);
            let x = Self::h_integral_inv(u, self.s);
            let k = x.round().clamp(1.0, self.n);
            if k - x <= self.quick || u >= Self::h_integral(k + 0.5, self.s) - Self::h(k, self.s) {
                return k as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SplitMix64::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(5..=5);
            assert_eq!(w, 5);
            let x = rng.gen_range(0..=3);
            assert!(x <= 3);
        }
    }

    #[test]
    fn gen_range_covers_the_whole_range() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0..8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_ratio_is_roughly_calibrated() {
        let mut rng = SplitMix64::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_ratio(1, 4)).count();
        assert!((2000..3000).contains(&hits), "got {hits}/10000 at p=0.25");
    }

    #[test]
    fn gen_f64_stays_in_unit_interval() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v), "got {v}");
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean} far from 0.5");
    }

    #[test]
    fn scramble_is_deterministic_and_spreads_dense_ranks() {
        assert_eq!(scramble(42), scramble(42));
        // Dense ranks must land in well-separated hash buckets: check the
        // top byte of the scrambled values covers most of its range.
        let mut top_bytes = std::collections::BTreeSet::new();
        for rank in 1..=4096u64 {
            top_bytes.insert((scramble(rank) >> 56) as u8);
        }
        assert!(
            top_bytes.len() > 200,
            "only {} distinct top bytes over 4096 ranks",
            top_bytes.len()
        );
    }

    #[test]
    fn zipfian_samples_stay_in_range_and_are_deterministic() {
        let z = Zipfian::new(1_000, 1.1);
        let mut a = SplitMix64::seed_from_u64(5);
        let mut b = SplitMix64::seed_from_u64(5);
        for _ in 0..10_000 {
            let ka = z.sample(&mut a);
            assert!((1..=1_000).contains(&ka));
            assert_eq!(ka, z.sample(&mut b));
        }
    }

    #[test]
    fn zipfian_is_skewed_toward_low_ranks() {
        // At s = 1.1 over 10^4 ranks, the hottest ~10 ranks should carry a
        // large share of the mass (the harmonic-like normalizer keeps
        // P(rank 1) around 1/ln-ish of the total).
        let z = Zipfian::new(10_000, 1.1);
        let mut rng = SplitMix64::seed_from_u64(77);
        let n = 50_000;
        let mut hot = 0usize;
        let mut rank1 = 0usize;
        for _ in 0..n {
            let k = z.sample(&mut rng);
            if k <= 10 {
                hot += 1;
            }
            if k == 1 {
                rank1 += 1;
            }
        }
        let hot_share = hot as f64 / n as f64;
        assert!(hot_share > 0.35, "top-10 share {hot_share} too uniform");
        // And rank 2 should get roughly 2^-1.1 of rank 1's mass.
        assert!(rank1 > n / 20, "rank 1 drew only {rank1}/{n}");
    }

    #[test]
    fn zipfian_ratio_between_ranks_matches_exponent() {
        // P(1)/P(2) = 2^s; check the empirical ratio is in the ballpark.
        let z = Zipfian::new(100, 1.0);
        let mut rng = SplitMix64::seed_from_u64(13);
        let (mut c1, mut c2) = (0f64, 0f64);
        for _ in 0..200_000 {
            match z.sample(&mut rng) {
                1 => c1 += 1.0,
                2 => c2 += 1.0,
                _ => {}
            }
        }
        let ratio = c1 / c2;
        assert!(
            (1.7..2.3).contains(&ratio),
            "P(1)/P(2) = {ratio}, expected ~2"
        );
    }

    #[test]
    fn zipfian_single_rank_always_returns_one() {
        let z = Zipfian::new(1, 1.1);
        let mut rng = SplitMix64::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1);
        }
    }
}
