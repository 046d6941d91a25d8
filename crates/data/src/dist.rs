//! Small sampling distributions used by the synthetic generator.
//!
//! Implemented locally (Box–Muller, inverse-CDF Zipf) to keep the dependency
//! footprint at `rand` alone.

use rand::Rng;

/// Samples a standard normal via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples N(mean, std^2).
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

/// Samples a log-normal with the given underlying normal parameters.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Discrete sampler over `0..n` with Zipf-like weights `1/(rank+1)^s`,
/// used for item popularity (a handful of blockbusters, a long tail).
///
/// Sampling inverts the cumulative weights: a draw `x` maps to the first
/// rank whose cumulative weight exceeds it. A guide table cuts
/// `[0, total)` into four equal buckets per rank and records the rank the
/// inversion gives at each bucket's left edge, so a draw scans only its
/// bucket's ranks — under one on average, whatever the weights. The
/// bracket is checked against the cumulative weights before it is used,
/// and a full binary search answers when the check fails, so the rank is
/// exactly the full search's for every `x`, however the bucket edges
/// round.
pub struct Zipf {
    cumulative: Vec<f64>,
    /// `guide[b]` is the inverted rank at bucket `b`'s left edge,
    /// `b * total / buckets`; the last entry, `n`, closes the last bucket.
    guide: Vec<u32>,
    /// Buckets per unit of weight: `buckets / total`.
    scale: f64,
}

/// Guide buckets per rank: a bucket brackets a quarter of a rank on
/// average, so most draws compare against one weight or none, and the
/// table stays in L2 at 9 000 items (144 KB).
const GUIDE_BUCKETS_PER_RANK: usize = 4;

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// If `n == 0`, `n` exceeds `u32::MAX`, or `s` is not finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over empty support");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        assert!(u32::try_from(n).is_ok(), "Zipf support beyond u32");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cumulative.push(total);
        }
        let buckets = GUIDE_BUCKETS_PER_RANK * n;
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut rank = 0;
        for b in 0..buckets {
            let edge = b as f64 * total / buckets as f64;
            while rank < n && cumulative[rank] <= edge {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        guide.push(n as u32);
        Zipf {
            cumulative,
            guide,
            scale: buckets as f64 / total,
        }
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.gen_range(0.0..total);
        self.rank_of(x)
    }

    /// The first rank whose cumulative weight exceeds `x`:
    /// `cumulative.partition_point(|&c| c <= x)`.
    fn rank_of(&self, x: f64) -> usize {
        let (c, n) = (&self.cumulative, self.cumulative.len());
        let bucket = ((x * self.scale) as usize).min(self.guide.len() - 2);
        let (lo, hi) = (self.guide[bucket] as usize, self.guide[bucket + 1] as usize);
        // The answer lies in `lo..=hi` (`guide` is non-decreasing) exactly
        // when every rank below `lo` is at most `x` and rank `hi`, if any,
        // exceeds it.
        if (lo == 0 || c[lo - 1] <= x) && (hi == n || c[hi] > x) {
            let mut rank = lo;
            while rank < hi && c[rank] <= x {
                rank += 1;
            }
            rank
        } else {
            c.partition_point(|&w| w <= x)
        }
    }

    /// Support size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the support is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn log_normal_positive() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(log_normal(&mut rng, 0.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn zipf_front_loaded() {
        let mut rng = StdRng::seed_from_u64(7);
        let zipf = Zipf::new(1000, 1.0);
        let mut counts = vec![0u32; 1000];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 must dominate rank 99 by roughly the weight ratio (100x),
        // allow wide tolerance.
        assert!(
            counts[0] > counts[99] * 20,
            "{} vs {}",
            counts[0],
            counts[99]
        );
        // Every sample in range (no panic), and the tail is still reachable.
        assert!(counts[500..].iter().any(|&c| c > 0));
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let mut rng = StdRng::seed_from_u64(9);
        let zipf = Zipf::new(10, 0.0);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((f64::from(c) / 10_000.0 - 1.0).abs() < 0.1);
        }
    }

    /// `x` moved by `ulps` units in the last place (`x` positive).
    fn nudge(x: f64, ulps: i64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
    }

    #[test]
    fn guided_rank_equals_the_full_search() {
        let mut rng = StdRng::seed_from_u64(3);
        let shapes = [
            (9_000, 0.9),
            (200, 0.9),
            (1, 0.9),
            (2, 0.0),
            (10, 0.0),
            (1_000, 1.0),
            (300, 3.0),
            (64, -0.5),
        ];
        for (n, s) in shapes {
            let zipf = Zipf::new(n, s);
            let total = *zipf.cumulative.last().unwrap();
            let mut xs: Vec<f64> = (0..20_000).map(|_| rng.gen_range(0.0..total)).collect();
            // Every bucket edge and every cumulative value, with their
            // neighbours one ulp either side.
            let buckets = zipf.guide.len() - 1;
            let edges = (0..buckets).map(|b| b as f64 * total / buckets as f64);
            for x in edges.chain(zipf.cumulative.iter().copied()) {
                xs.extend([x, nudge(x, -1), nudge(x, 1)]);
            }
            for x in xs.into_iter().filter(|x| (0.0..=total).contains(x)) {
                let full = zipf.cumulative.partition_point(|&c| c <= x);
                assert_eq!(zipf.rank_of(x), full, "n={n} s={s} x={x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }
}
