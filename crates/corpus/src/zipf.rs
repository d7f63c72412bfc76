//! Zipf-distributed sampling over term ranks.
//!
//! Term popularity in text famously follows a Zipf law with exponent
//! ≈ 1; that single fact reproduces the paper's index geometry (see the
//! crate docs). The sampler precomputes the cumulative distribution
//! once and draws by binary search — deterministic given the RNG. A
//! guide table narrows each search to the ranks whose cumulative
//! weight falls in the draw's bucket, so a draw costs a short search
//! and returns exactly the rank a full search would. We implement it here rather than pull in a
//! distributions crate (the allowed dependency set has `rand` only).

use rand::Rng;

/// A Zipf(s) distribution over ranks `lo..hi` (0-based, `lo`
/// inclusive, `hi` exclusive): `P(rank = r) ∝ 1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    lo: u32,
    /// Cumulative weights for ranks `lo..hi`, normalized to end at 1.
    cdf: Vec<f64>,
    /// `guide[b]` = number of `cdf` entries below `b / B`, for
    /// `b ∈ 0..=B` with `B = guide.len() - 1` a power of two. A draw
    /// `u ∈ [b/B, (b+1)/B)` has its rank in `guide[b]..=guide[b+1]`;
    /// the bounds `b/B` are exact in `f64`.
    guide: Vec<u32>,
}

/// Most guide buckets a sampler gets (2^16).
const MAX_GUIDE_BUCKETS: usize = 1 << 16;

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    /// Panics if the range is empty or `s` is not finite.
    pub fn new(lo: u32, hi: u32, s: f64) -> Self {
        assert!(lo < hi, "empty rank range {lo}..{hi}");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity((hi - lo) as usize);
        let mut acc = 0.0f64;
        for r in lo..hi {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        // Guard against floating-point shortfall at the end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let buckets = cdf.len().next_power_of_two().min(MAX_GUIDE_BUCKETS);
        let guide = (0..=buckets)
            .map(|b| cdf.partition_point(|&c| c < b as f64 / buckets as f64) as u32)
            .collect();
        Zipf { lo, cdf, guide }
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.rank_at(rng.gen())
    }

    /// The rank a uniform draw `u ∈ [0, 1)` maps to: the first whose
    /// cumulative weight reaches `u`.
    fn rank_at(&self, u: f64) -> u32 {
        let buckets = self.guide.len() - 1;
        // Scaling by a power of two is exact, so `b / B <= u < (b+1) / B`.
        let b = ((u * buckets as f64) as usize).min(buckets - 1);
        let (first, last) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        let idx = first + self.cdf[first..last].partition_point(|&c| c < u);
        self.lo + idx.min(self.cdf.len() - 1) as u32
    }

    /// Probability mass of a rank, or 0 outside the range.
    pub fn pmf(&self, rank: u32) -> f64 {
        if rank < self.lo {
            return 0.0;
        }
        let i = (rank - self.lo) as usize;
        match i {
            0 => self.cdf.first().copied().unwrap_or(0.0),
            _ => match (self.cdf.get(i), self.cdf.get(i - 1)) {
                (Some(hi), Some(lo)) => hi - lo,
                _ => 0.0,
            },
        }
    }

    /// Number of ranks in the support.
    pub fn support_len(&self) -> usize {
        self.cdf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(100, 1100, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!((100..1100).contains(&r));
        }
    }

    #[test]
    fn head_ranks_dominate() {
        let z = Zipf::new(0, 10_000, 1.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 100_000;
        let head = (0..n).filter(|_| z.sample(&mut rng) < 100).count() as f64;
        // With s = 1 and V = 10^4, the top 100 ranks carry
        // H(100)/H(10000) ≈ 5.19/9.79 ≈ 53 % of the mass.
        let frac = head / n as f64;
        assert!((0.45..0.60).contains(&frac), "head fraction {frac}");
    }

    #[test]
    fn pmf_sums_to_one_and_decreases() {
        let z = Zipf::new(5, 105, 1.2);
        let total: f64 = (5..105).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.pmf(5) > z.pmf(6));
        assert!(z.pmf(6) > z.pmf(104));
        assert_eq!(z.pmf(4), 0.0);
        assert_eq!(z.pmf(200), 0.0);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(0, 4, 0.0);
        for r in 0..4 {
            assert!((z.pmf(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let z = Zipf::new(0, 1000, 1.0);
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..100).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    /// The guided search returns the full binary search's rank at
    /// every bucket boundary, its neighbouring floats, and 10^5 seeded
    /// draws.
    #[test]
    fn guided_rank_equals_full_search() {
        for z in [
            Zipf::new(100, 167_117, 1.05),
            Zipf::new(0, 77, 0.9),
            Zipf::new(3, 4, 1.0),
            Zipf::new(0, 1 << 16, 0.0),
        ] {
            let full = |u: f64| {
                let idx = z.cdf.partition_point(|&c| c < u);
                z.lo + idx.min(z.cdf.len() - 1) as u32
            };
            let buckets = z.guide.len() - 1;
            let mut probes = Vec::new();
            for b in 0..buckets {
                let edge = b as f64 / buckets as f64;
                probes.extend([edge, edge.next_up()]);
                if b > 0 {
                    probes.push(edge.next_down());
                }
            }
            probes.push(1.0f64.next_down());
            let mut rng = SmallRng::seed_from_u64(20260417);
            probes.extend((0..100_000).map(|_| rng.gen::<f64>()));
            for u in probes {
                assert_eq!(
                    z.rank_at(u),
                    full(u),
                    "u = {u:e}, support {}",
                    z.support_len()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty rank range")]
    fn empty_range_rejected() {
        let _ = Zipf::new(5, 5, 1.0);
    }
}
