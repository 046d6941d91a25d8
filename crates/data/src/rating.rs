//! Core rating types.

use std::borrow::Cow;

/// One user–item interaction: the raw data item REX gossips (paper §IV-B:
/// "a triplet containing the user and item identifications, along with the
/// rating").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// Dense user index in `0..num_users`.
    pub user: u32,
    /// Dense item index in `0..num_items`.
    pub item: u32,
    /// Rating value on the 0.5–5.0 half-star grid.
    pub value: f32,
}

impl Rating {
    /// Bytes of one triplet on the wire (u32 + u32 + f32). Used everywhere
    /// network volume is accounted.
    pub const WIRE_SIZE: usize = 12;

    /// Key identifying the (user, item) cell; two ratings for the same cell
    /// are duplicates regardless of value.
    #[must_use]
    pub fn key(&self) -> (u32, u32) {
        (self.user, self.item)
    }
}

/// A complete rating dataset: dimensions plus the list of known cells.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Number of users (rows of the interaction matrix).
    pub num_users: u32,
    /// Number of items (columns).
    pub num_items: u32,
    /// All known ratings, in no particular order.
    pub ratings: Vec<Rating>,
}

impl Dataset {
    /// Builds a dataset, validating that every rating is in range.
    ///
    /// # Panics
    /// If any rating references a user/item outside the declared dimensions.
    #[must_use]
    pub fn new(num_users: u32, num_items: u32, ratings: Vec<Rating>) -> Self {
        for r in &ratings {
            assert!(
                r.user < num_users && r.item < num_items,
                "rating ({}, {}) outside {}x{} matrix",
                r.user,
                r.item,
                num_users,
                num_items
            );
        }
        Dataset {
            num_users,
            num_items,
            ratings,
        }
    }

    /// Fraction of matrix cells that are filled.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.ratings.len() as f64 / (f64::from(self.num_users) * f64::from(self.num_items))
    }

    /// Mean rating value.
    #[must_use]
    pub fn mean_rating(&self) -> f64 {
        if self.ratings.is_empty() {
            return 0.0;
        }
        self.ratings.iter().map(|r| f64::from(r.value)).sum::<f64>() / self.ratings.len() as f64
    }

    /// Ratings grouped by user: `result[u]` holds all ratings of user `u`,
    /// in dataset order.
    #[must_use]
    pub fn by_user(&self) -> Vec<Vec<Rating>> {
        UserGroups::new(&self.ratings, self.num_users).to_vecs()
    }

    /// Number of distinct items that received at least one rating.
    #[must_use]
    pub fn rated_items(&self) -> usize {
        let mut seen = vec![false; self.num_items as usize];
        let mut count = 0;
        for r in &self.ratings {
            if !seen[r.item as usize] {
                seen[r.item as usize] = true;
                count += 1;
            }
        }
        count
    }
}

/// Ratings grouped by user in one flat table: a stable counting sort,
/// so each user's ratings keep their input order (loader datasets arrive
/// in any order). One pass counts; input already grouped by ascending
/// user (what the generator and the split produce) is borrowed as it is,
/// and any other is placed into one table allocated at its exact size.
#[derive(Debug)]
pub(crate) struct UserGroups<'a> {
    ratings: Cow<'a, [Rating]>,
    /// User `u`'s ratings are `ratings[starts[u]..starts[u + 1]]`.
    starts: Vec<usize>,
}

impl<'a> UserGroups<'a> {
    /// Groups `ratings` over users `0..num_users`.
    ///
    /// # Panics
    /// If a rating's user is not below `num_users`.
    #[must_use]
    pub(crate) fn new(ratings: &'a [Rating], num_users: u32) -> Self {
        let mut starts = vec![0usize; num_users as usize + 1];
        for r in ratings {
            starts[r.user as usize + 1] += 1;
        }
        for u in 0..num_users as usize {
            starts[u + 1] += starts[u];
        }
        if ratings.windows(2).all(|w| w[0].user <= w[1].user) {
            return UserGroups {
                ratings: Cow::Borrowed(ratings),
                starts,
            };
        }
        let mut next = starts.clone();
        let blank = Rating {
            user: 0,
            item: 0,
            value: 0.0,
        };
        let mut grouped = vec![blank; ratings.len()];
        for r in ratings {
            let slot = &mut next[r.user as usize];
            grouped[*slot] = *r;
            *slot += 1;
        }
        UserGroups {
            ratings: Cow::Owned(grouped),
            starts,
        }
    }

    /// Number of users grouped over.
    #[must_use]
    pub(crate) fn num_users(&self) -> usize {
        self.starts.len() - 1
    }

    /// User `user`'s ratings, in input order.
    #[must_use]
    pub(crate) fn user(&self, user: u32) -> &[Rating] {
        self.users(user..user + 1)
    }

    /// The ratings of the contiguous users `users`, user by user.
    #[must_use]
    pub(crate) fn users(&self, users: std::ops::Range<u32>) -> &[Rating] {
        &self.ratings[self.starts[users.start as usize]..self.starts[users.end as usize]]
    }

    /// One vector per user, each allocated at its exact length.
    #[must_use]
    pub(crate) fn to_vecs(&self) -> Vec<Vec<Rating>> {
        (0..self.num_users() as u32)
            .map(|u| self.user(u).to_vec())
            .collect()
    }
}

/// Snaps a raw score to the MovieLens half-star grid, clamping to
/// `[0.5, 5.0]`. Ratings "can take very few values (only 10 in the case of
/// MovieLens)" (paper §IV-E).
#[must_use]
pub fn snap_to_grid(raw: f32) -> f32 {
    let clamped = raw.clamp(0.5, 5.0);
    (clamped * 2.0).round() / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_snapping() {
        assert_eq!(snap_to_grid(3.26), 3.5);
        assert_eq!(snap_to_grid(3.24), 3.0);
        assert_eq!(snap_to_grid(-1.0), 0.5);
        assert_eq!(snap_to_grid(9.0), 5.0);
        assert_eq!(snap_to_grid(0.74), 0.5);
        assert_eq!(snap_to_grid(0.76), 1.0);
    }

    #[test]
    fn grid_values_are_exactly_ten() {
        let mut values = std::collections::BTreeSet::new();
        let mut x = -1.0f32;
        while x < 7.0 {
            values.insert((snap_to_grid(x) * 2.0) as i32);
            x += 0.01;
        }
        assert_eq!(values.len(), 10);
    }

    #[test]
    fn dataset_stats() {
        let ds = Dataset::new(
            2,
            3,
            vec![
                Rating {
                    user: 0,
                    item: 0,
                    value: 4.0,
                },
                Rating {
                    user: 0,
                    item: 2,
                    value: 2.0,
                },
                Rating {
                    user: 1,
                    item: 0,
                    value: 3.0,
                },
            ],
        );
        assert!((ds.density() - 0.5).abs() < 1e-12);
        assert!((ds.mean_rating() - 3.0).abs() < 1e-12);
        assert_eq!(ds.rated_items(), 2);
        let by_user = ds.by_user();
        assert_eq!(by_user[0].len(), 2);
        assert_eq!(by_user[1].len(), 1);
    }

    #[test]
    fn grouping_keeps_each_users_input_order() {
        // Users interleaved and out of order, as a loaded file may be.
        let ratings: Vec<Rating> = [(2, 5), (0, 1), (2, 3), (1, 4), (0, 0), (2, 9), (0, 7)]
            .iter()
            .map(|&(user, item)| Rating {
                user,
                item,
                value: 3.0,
            })
            .collect();
        let mut naive = vec![Vec::new(); 4];
        for r in &ratings {
            naive[r.user as usize].push(*r);
        }
        let ds = Dataset::new(4, 10, ratings);
        assert_eq!(ds.by_user(), naive);
        // Already grouped input is borrowed, and groups the same.
        let sorted: Vec<Rating> = naive.concat();
        let groups = UserGroups::new(&sorted, 4);
        assert!(matches!(groups.ratings, Cow::Borrowed(_)));
        assert_eq!(groups.to_vecs(), naive);
        assert_eq!(groups.users(0..2), &sorted[..4]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_range() {
        let _ = Dataset::new(
            1,
            1,
            vec![Rating {
                user: 1,
                item: 0,
                value: 3.0,
            }],
        );
    }

    #[test]
    fn wire_size_matches_fields() {
        assert_eq!(
            Rating::WIRE_SIZE,
            std::mem::size_of::<u32>() * 2 + std::mem::size_of::<f32>()
        );
    }
}
