//! The synthetic generator as it stood before its set-up rewrite, kept
//! verbatim (a free function over the config instead of a method) as the
//! reference that pins the rewrite: `SyntheticConfig::generate` must
//! produce the same [`Dataset`] for every config, and the `bench_scale`
//! `generate_speedup` floor times the two against each other. Not part of
//! any deployed path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rex_data::dist::{log_normal, normal};
use rex_data::rating::{snap_to_grid, Dataset, Rating};
use rex_data::SyntheticConfig;
use std::collections::HashSet;

/// The reference `Zipf`: the cumulative weights and a binary search over
/// all of them per draw.
pub struct ReferenceZipf {
    cumulative: Vec<f64>,
}

impl ReferenceZipf {
    /// Builds the sampler for `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// If `n == 0` or `s` is not finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over empty support");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cumulative.push(total);
        }
        ReferenceZipf { cumulative }
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= x)
    }
}

/// The reference `SyntheticConfig::generate`.
///
/// # Panics
/// If the requested rating count exceeds the number of matrix cells.
#[must_use]
pub fn reference_generate(cfg: &SyntheticConfig) -> Dataset {
    let cells = u64::from(cfg.num_users) * u64::from(cfg.num_items);
    assert!(
        (cfg.num_ratings as u64) <= cells,
        "cannot place {} ratings in a {}x{} matrix",
        cfg.num_ratings,
        cfg.num_users,
        cfg.num_items
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Ground-truth latent model.
    let factor_std = 1.0 / (cfg.true_rank as f64).sqrt();
    let user_factors: Vec<Vec<f64>> = (0..cfg.num_users)
        .map(|_| {
            (0..cfg.true_rank)
                .map(|_| normal(&mut rng, 0.0, factor_std))
                .collect()
        })
        .collect();
    let item_factors: Vec<Vec<f64>> = (0..cfg.num_items)
        .map(|_| {
            (0..cfg.true_rank)
                .map(|_| normal(&mut rng, 0.0, factor_std))
                .collect()
        })
        .collect();
    let user_bias: Vec<f64> = (0..cfg.num_users)
        .map(|_| normal(&mut rng, 0.0, cfg.bias_std))
        .collect();
    let item_bias: Vec<f64> = (0..cfg.num_items)
        .map(|_| normal(&mut rng, 0.0, cfg.bias_std))
        .collect();

    // User activity: log-normal weights normalized to the target count,
    // with every user guaranteed at least one rating.
    let weights: Vec<f64> = (0..cfg.num_users)
        .map(|_| log_normal(&mut rng, 0.0, cfg.activity_sigma))
        .collect();
    let total_weight: f64 = weights.iter().sum();
    let mut per_user: Vec<usize> = weights
        .iter()
        .map(|w| ((w / total_weight) * cfg.num_ratings as f64).round() as usize)
        .map(|n| n.max(1).min(cfg.num_items as usize))
        .collect();
    // Adjust the total to match the target exactly.
    loop {
        let total: usize = per_user.iter().sum();
        match total.cmp(&cfg.num_ratings) {
            std::cmp::Ordering::Equal => break,
            std::cmp::Ordering::Less => {
                let idx = rng.gen_range(0..per_user.len());
                if per_user[idx] < cfg.num_items as usize {
                    per_user[idx] += 1;
                }
            }
            std::cmp::Ordering::Greater => {
                let idx = rng.gen_range(0..per_user.len());
                if per_user[idx] > 1 {
                    per_user[idx] -= 1;
                }
            }
        }
    }

    let popularity = ReferenceZipf::new(cfg.num_items as usize, cfg.popularity_exponent);
    let mut ratings = Vec::with_capacity(cfg.num_ratings);
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(cfg.num_ratings);

    for user in 0..cfg.num_users {
        let want = per_user[user as usize];
        let mut have = 0;
        let mut attempts = 0usize;
        while have < want {
            // Rejection-sample distinct items; fall back to a linear scan
            // if the popularity law keeps colliding (very active users).
            let item = if attempts < want * 30 {
                popularity.sample(&mut rng) as u32
            } else {
                rng.gen_range(0..cfg.num_items)
            };
            attempts += 1;
            if !seen.insert((user, item)) {
                continue;
            }
            let dot: f64 = user_factors[user as usize]
                .iter()
                .zip(&item_factors[item as usize])
                .map(|(a, b)| a * b)
                .sum();
            let raw = cfg.global_mean
                + user_bias[user as usize]
                + item_bias[item as usize]
                + dot
                + normal(&mut rng, 0.0, cfg.noise_std);
            ratings.push(Rating {
                user,
                item,
                value: snap_to_grid(raw as f32),
            });
            have += 1;
        }
    }

    Dataset::new(cfg.num_users, cfg.num_items, ratings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_data::dist::Zipf;

    /// Bit-for-bit equality of two datasets.
    fn assert_same(cfg: &SyntheticConfig) {
        let (new, old) = (cfg.generate(), reference_generate(cfg));
        let shape = (cfg.num_users, cfg.num_items, cfg.num_ratings, cfg.seed);
        assert_eq!(
            (new.num_users, new.num_items),
            (old.num_users, old.num_items)
        );
        assert_eq!(new.ratings.len(), old.ratings.len(), "{shape:?}");
        for (i, (a, b)) in new.ratings.iter().zip(&old.ratings).enumerate() {
            assert!(
                a.user == b.user && a.item == b.item && a.value.to_bits() == b.value.to_bits(),
                "{shape:?}: rating {i} is {a:?}, reference {b:?}"
            );
        }
    }

    fn shape(num_users: u32, num_items: u32, num_ratings: usize, seed: u64) -> SyntheticConfig {
        SyntheticConfig {
            num_users,
            num_items,
            num_ratings,
            seed,
            ..SyntheticConfig::default()
        }
    }

    #[test]
    fn paper_shape_matches_the_reference() {
        for seed in [42, 1234, 0x5EED] {
            assert_same(&shape(610, 9_000, 100_000, seed));
        }
    }

    #[test]
    fn data_crate_test_shapes_match_the_reference() {
        for cfg in [
            shape(50, 200, 2_000, 123),
            shape(50, 200, 2_000, 124),
            shape(40, 150, 1_500, 5),
            shape(61, 300, 3_000, 11),
            shape(610, 500, 10_000, 2),
        ] {
            assert_same(&cfg);
        }
    }

    #[test]
    fn the_uniform_fallback_matches_the_reference() {
        // Two users rating all 40 items under a steep popularity law: the
        // last ranks have odds near 1e-6 per Zipf draw, so neither user
        // completes within its 30 x 40 Zipf attempts and both finish on
        // uniform draws.
        for seed in [1, 2, 3] {
            assert_same(&SyntheticConfig {
                popularity_exponent: 4.0,
                ..shape(2, 40, 80, seed)
            });
        }
    }

    #[test]
    fn a_full_matrix_matches_the_reference() {
        for seed in [7, 8] {
            assert_same(&shape(5, 30, 150, seed));
            assert_same(&shape(12, 12, 144, seed));
        }
    }

    #[test]
    fn zipf_draws_match_the_reference() {
        for (n, s, seed) in [(9_000, 0.9, 1), (200, 0.9, 2), (10, 0.0, 3), (40, 4.0, 4)] {
            let (new, old) = (Zipf::new(n, s), ReferenceZipf::new(n, s));
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = a.clone();
            for _ in 0..50_000 {
                assert_eq!(new.sample(&mut a), old.sample(&mut b), "n={n} s={s}");
            }
        }
    }
}
