//! Synthetic MovieLens-like dataset generator.
//!
//! Ground truth is a biased low-rank model: each user and item gets latent
//! factors and a bias; ratings are `μ + b_u + c_i + p_u·q_i + noise` snapped
//! to the half-star grid. Item choice follows a Zipf popularity law and user
//! activity a log-normal, matching the qualitative shape of the MovieLens
//! interaction distribution, which is what the paper's conclusions rest
//! on (README.md "Quickstart" runs the comparison on it).

use crate::dist::{log_normal, normal, Zipf};
use crate::rating::{snap_to_grid, Dataset, Rating};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of users.
    pub num_users: u32,
    /// Number of items.
    pub num_items: u32,
    /// Target number of ratings (achieved exactly unless the matrix is too
    /// small to hold that many distinct cells).
    pub num_ratings: usize,
    /// Rank of the ground-truth latent model.
    pub true_rank: usize,
    /// Global mean rating.
    pub global_mean: f64,
    /// Std of user/item biases.
    pub bias_std: f64,
    /// Std of observation noise before grid snapping.
    pub noise_std: f64,
    /// Zipf exponent of item popularity.
    pub popularity_exponent: f64,
    /// Sigma of the log-normal user-activity distribution.
    pub activity_sigma: f64,
    /// RNG seed; identical configs generate identical datasets.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            num_users: 610,
            num_items: 9_000,
            num_ratings: 100_000,
            true_rank: 8,
            global_mean: 3.5,
            bias_std: 0.35,
            noise_std: 0.35,
            popularity_exponent: 0.9,
            activity_sigma: 0.9,
            seed: 0x5EED,
        }
    }
}

impl SyntheticConfig {
    /// Generates the dataset.
    ///
    /// One `StdRng` seeded from [`SyntheticConfig::seed`] makes every
    /// draw, in this order — the contract that pins the dataset for a
    /// config:
    /// 1. the ground-truth factors: `true_rank` normal draws per user, users
    ///    in order, then the same per item;
    /// 2. the biases: one normal draw per user, then one per item;
    /// 3. the activity weights: one log-normal draw per user;
    /// 4. the adjust loop: while the rounded per-user counts miss
    ///    `num_ratings`, one `gen_range(0..num_users)` per iteration picks
    ///    the user to move by one;
    /// 5. per user, in order, until the user has its count: one item draw
    ///    (a Zipf draw while the user's attempts are below 30 × its count,
    ///    a uniform `gen_range(0..num_items)` after), then, when the cell
    ///    is new to the user, one normal noise draw. A repeated cell draws
    ///    no noise.
    ///
    /// Ratings come out grouped by user, users ascending, each user's in
    /// draw order.
    ///
    /// # Panics
    /// If the requested rating count exceeds the number of matrix cells.
    #[must_use]
    pub fn generate(&self) -> Dataset {
        let cells = u64::from(self.num_users) * u64::from(self.num_items);
        assert!(
            (self.num_ratings as u64) <= cells,
            "cannot place {} ratings in a {}x{} matrix",
            self.num_ratings,
            self.num_users,
            self.num_items
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let rank = self.true_rank;

        // Ground-truth latent model: row-major `rank`-strided tables.
        let factor_std = 1.0 / (rank as f64).sqrt();
        let user_factors: Vec<f64> = (0..self.num_users as usize * rank)
            .map(|_| normal(&mut rng, 0.0, factor_std))
            .collect();
        let item_factors: Vec<f64> = (0..self.num_items as usize * rank)
            .map(|_| normal(&mut rng, 0.0, factor_std))
            .collect();
        let user_bias: Vec<f64> = (0..self.num_users)
            .map(|_| normal(&mut rng, 0.0, self.bias_std))
            .collect();
        let item_bias: Vec<f64> = (0..self.num_items)
            .map(|_| normal(&mut rng, 0.0, self.bias_std))
            .collect();

        // User activity: log-normal weights normalized to the target count,
        // with every user guaranteed at least one rating.
        let weights: Vec<f64> = (0..self.num_users)
            .map(|_| log_normal(&mut rng, 0.0, self.activity_sigma))
            .collect();
        let total_weight: f64 = weights.iter().sum();
        let mut per_user: Vec<usize> = weights
            .iter()
            .map(|w| ((w / total_weight) * self.num_ratings as f64).round() as usize)
            .map(|n| n.max(1).min(self.num_items as usize))
            .collect();
        // Adjust the total to match the target exactly.
        let mut total: usize = per_user.iter().sum();
        while total != self.num_ratings {
            let idx = rng.gen_range(0..per_user.len());
            if total < self.num_ratings {
                if per_user[idx] < self.num_items as usize {
                    per_user[idx] += 1;
                    total += 1;
                }
            } else if per_user[idx] > 1 {
                per_user[idx] -= 1;
                total -= 1;
            }
        }

        let popularity = Zipf::new(self.num_items as usize, self.popularity_exponent);
        let mut ratings = Vec::with_capacity(self.num_ratings);
        // `stamp[item] == user + 1` once `user` holds `item`: users are
        // visited once each, in order, so a stamp from an earlier user
        // never reads as taken.
        let mut stamp = vec![0u32; self.num_items as usize];

        for user in 0..self.num_users {
            let u = user as usize;
            let want = per_user[u];
            let mut have = 0;
            let mut attempts = 0usize;
            while have < want {
                // Rejection-sample distinct items; fall back to a linear scan
                // if the popularity law keeps colliding (very active users).
                let item = if attempts < want * 30 {
                    popularity.sample(&mut rng) as u32
                } else {
                    rng.gen_range(0..self.num_items)
                };
                attempts += 1;
                let i = item as usize;
                if stamp[i] == user + 1 {
                    continue;
                }
                stamp[i] = user + 1;
                let dot: f64 = user_factors[u * rank..(u + 1) * rank]
                    .iter()
                    .zip(&item_factors[i * rank..(i + 1) * rank])
                    .map(|(a, b)| a * b)
                    .sum();
                let raw = self.global_mean
                    + user_bias[u]
                    + item_bias[i]
                    + dot
                    + normal(&mut rng, 0.0, self.noise_std);
                ratings.push(Rating {
                    user,
                    item,
                    value: snap_to_grid(raw as f32),
                });
                have += 1;
            }
        }

        Dataset::new(self.num_users, self.num_items, ratings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_config() -> SyntheticConfig {
        SyntheticConfig {
            num_users: 50,
            num_items: 200,
            num_ratings: 2_000,
            seed: 123,
            ..SyntheticConfig::default()
        }
    }

    #[test]
    fn exact_rating_count() {
        let ds = small_config().generate();
        assert_eq!(ds.ratings.len(), 2_000);
        assert_eq!(ds.num_users, 50);
        assert_eq!(ds.num_items, 200);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = small_config().generate();
        let b = small_config().generate();
        assert_eq!(a.ratings.len(), b.ratings.len());
        for (x, y) in a.ratings.iter().zip(&b.ratings) {
            assert_eq!(x, y);
        }
        let c = SyntheticConfig {
            seed: 124,
            ..small_config()
        }
        .generate();
        assert!(a.ratings.iter().zip(&c.ratings).any(|(x, y)| x != y));
    }

    #[test]
    fn no_duplicate_cells() {
        let ds = small_config().generate();
        let mut seen = HashSet::new();
        for r in &ds.ratings {
            assert!(seen.insert(r.key()), "duplicate cell {:?}", r.key());
        }
    }

    #[test]
    fn every_user_has_data() {
        let ds = small_config().generate();
        let by_user = ds.by_user();
        assert!(by_user.iter().all(|v| !v.is_empty()));
    }

    #[test]
    fn ratings_on_grid_and_in_range() {
        let ds = small_config().generate();
        for r in &ds.ratings {
            assert!(r.value >= 0.5 && r.value <= 5.0);
            let doubled = r.value * 2.0;
            assert!(
                (doubled - doubled.round()).abs() < 1e-6,
                "off grid: {}",
                r.value
            );
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let ds = small_config().generate();
        let mut counts = vec![0u32; ds.num_items as usize];
        for r in &ds.ratings {
            counts[r.item as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        let mean_nonzero = ds.ratings.len() as f64 / nonzero as f64;
        assert!(
            f64::from(max) > 3.0 * mean_nonzero,
            "max {max} mean {mean_nonzero}"
        );
    }

    #[test]
    fn mean_near_global_mean() {
        let ds = small_config().generate();
        assert!((ds.mean_rating() - 3.5).abs() < 0.3, "{}", ds.mean_rating());
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn rejects_overfull_matrix() {
        let _ = SyntheticConfig {
            num_users: 2,
            num_items: 2,
            num_ratings: 5,
            ..SyntheticConfig::default()
        }
        .generate();
    }
}
