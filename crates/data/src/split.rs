//! Per-user train/test split (paper §IV-A3a: 70 % train, 30 % test).
//!
//! The split is per-user so that every node in both deployment scenarios
//! (one user per node, cohorts of users per node) owns both local training
//! data and a local held-out test set (`local_test_data` in Algorithm 2).

use crate::rating::{Dataset, Rating, UserGroups};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A dataset split into train and test rating lists.
#[derive(Debug, Clone)]
pub struct TrainTestSplit {
    /// Training ratings (all users mixed).
    pub train: Vec<Rating>,
    /// Held-out test ratings.
    pub test: Vec<Rating>,
    /// Dimensions carried over from the source dataset.
    pub num_users: u32,
    /// Number of items.
    pub num_items: u32,
}

impl TrainTestSplit {
    /// Splits `dataset` per user with the given train fraction.
    ///
    /// Users with a single rating keep it in the training set (a node must
    /// always be able to train). Deterministic for a given `seed`.
    ///
    /// # Panics
    /// If `train_fraction` is outside `(0, 1]`.
    #[must_use]
    pub fn new(dataset: &Dataset, train_fraction: f64, seed: u64) -> Self {
        assert!(
            train_fraction > 0.0 && train_fraction <= 1.0,
            "train fraction {train_fraction} outside (0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let groups = UserGroups::new(&dataset.ratings, dataset.num_users);
        let n_train = |n: usize| {
            let n_train = ((n as f64) * train_fraction).round() as usize;
            n_train.clamp(usize::from(n > 0), n)
        };
        let train_len: usize = (0..dataset.num_users)
            .map(|u| n_train(groups.user(u).len()))
            .sum();
        let mut train = Vec::with_capacity(train_len);
        let mut test = Vec::with_capacity(dataset.ratings.len() - train_len);
        // Each user's ratings are shuffled in one reused buffer: copying
        // the whole grouped table to shuffle it in place costs a fresh
        // table's page faults.
        let mut user_ratings = Vec::new();
        for u in 0..dataset.num_users {
            user_ratings.clear();
            user_ratings.extend_from_slice(groups.user(u));
            user_ratings.shuffle(&mut rng);
            let (head, tail) = user_ratings.split_at(n_train(user_ratings.len()));
            train.extend_from_slice(head);
            test.extend_from_slice(tail);
        }
        TrainTestSplit {
            train,
            test,
            num_users: dataset.num_users,
            num_items: dataset.num_items,
        }
    }

    /// The paper's 70/30 split.
    #[must_use]
    pub fn standard(dataset: &Dataset, seed: u64) -> Self {
        Self::new(dataset, 0.7, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partition;
    use crate::synthetic::SyntheticConfig;

    fn dataset() -> Dataset {
        SyntheticConfig {
            num_users: 40,
            num_items: 150,
            num_ratings: 1_500,
            seed: 5,
            ..SyntheticConfig::default()
        }
        .generate()
    }

    #[test]
    fn preserves_all_ratings() {
        let ds = dataset();
        let split = TrainTestSplit::standard(&ds, 1);
        assert_eq!(split.train.len() + split.test.len(), ds.ratings.len());
    }

    #[test]
    fn fraction_close_to_requested() {
        let ds = dataset();
        let split = TrainTestSplit::standard(&ds, 1);
        let frac = split.train.len() as f64 / ds.ratings.len() as f64;
        assert!((frac - 0.7).abs() < 0.05, "train fraction {frac}");
    }

    #[test]
    fn per_user_split() {
        let ds = dataset();
        let split = TrainTestSplit::standard(&ds, 1);
        let by_user = Partition::multi_user(&split, ds.num_users as usize);
        // Every user keeps training data.
        assert!(by_user.train.iter().all(|v| !v.is_empty()));
        // Users with several ratings also get test data (most of them).
        let with_test = by_user.test.iter().filter(|v| !v.is_empty()).count();
        assert!(with_test as f64 > 0.8 * f64::from(ds.num_users));
    }

    #[test]
    fn no_overlap_between_train_and_test() {
        let ds = dataset();
        let split = TrainTestSplit::standard(&ds, 1);
        let train_keys: std::collections::HashSet<_> =
            split.train.iter().map(Rating::key).collect();
        assert!(split.test.iter().all(|r| !train_keys.contains(&r.key())));
    }

    #[test]
    fn deterministic() {
        let ds = dataset();
        let a = TrainTestSplit::standard(&ds, 9);
        let b = TrainTestSplit::standard(&ds, 9);
        assert_eq!(a.train.len(), b.train.len());
        assert!(a.train.iter().zip(&b.train).all(|(x, y)| x == y));
    }

    #[test]
    fn full_train_fraction() {
        let ds = dataset();
        let split = TrainTestSplit::new(&ds, 1.0, 0);
        assert!(split.test.is_empty());
    }

    /// The split as it was written before grouping by counting: one
    /// growing vector per user, each shuffled, then dealt out.
    fn reference_split(
        dataset: &Dataset,
        train_fraction: f64,
        seed: u64,
    ) -> (Vec<Rating>, Vec<Rating>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut by_user = vec![Vec::new(); dataset.num_users as usize];
        for r in &dataset.ratings {
            by_user[r.user as usize].push(*r);
        }
        let (mut train, mut test) = (Vec::new(), Vec::new());
        for mut user_ratings in by_user {
            user_ratings.shuffle(&mut rng);
            let n = user_ratings.len();
            let n_train = ((n as f64) * train_fraction).round() as usize;
            let n_train = n_train.clamp(usize::from(n > 0), n);
            for (i, r) in user_ratings.into_iter().enumerate() {
                if i < n_train {
                    train.push(r);
                } else {
                    test.push(r);
                }
            }
        }
        (train, test)
    }

    #[test]
    fn split_equals_the_reference_in_any_input_order() {
        let ds = dataset();
        let mut shuffled = ds.clone();
        shuffled.ratings.shuffle(&mut StdRng::seed_from_u64(4));
        for input in [&ds, &shuffled] {
            for (fraction, seed) in [(0.7, 1), (0.5, 9), (1.0, 0)] {
                let split = TrainTestSplit::new(input, fraction, seed);
                let (train, test) = reference_split(input, fraction, seed);
                assert_eq!(split.train, train);
                assert_eq!(split.test, test);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_zero_fraction() {
        let ds = dataset();
        let _ = TrainTestSplit::new(&ds, 0.0, 0);
    }
}
