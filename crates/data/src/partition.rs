//! Assignment of users to nodes (paper §IV-A5).
//!
//! Two deployment scenarios are evaluated:
//! * **one node per user** — "users initially have only their own data";
//! * **multiple users per node** — cohorts served by distributed servers
//!   ("we partitioned the ratings of the 610 users through 50 nodes",
//!   12–13 users per node for the DNN experiments).

use crate::rating::{Rating, UserGroups};
use crate::split::TrainTestSplit;

/// A contiguous half-open block of user rows `[start, end)` hosted by one
/// node — a **user shard**. Contiguity is what makes shard-local training
/// a row-block sweep over the embedding tables (`rex-ml`'s batched path)
/// instead of a random walk, and it gives every shard a closed-form
/// `user → local row` mapping with no lookup table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserBlock {
    /// First user row of the block (inclusive).
    pub start: u32,
    /// One past the last user row of the block (exclusive).
    pub end: u32,
}

impl UserBlock {
    /// Number of user rows in the block.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.end - self.start
    }

    /// Whether `user` falls inside the block.
    #[must_use]
    pub fn contains(&self, user: u32) -> bool {
        (self.start..self.end).contains(&user)
    }

    /// The block-local row of `user`, or `None` when outside the block.
    #[must_use]
    pub fn local_row(&self, user: u32) -> Option<u32> {
        self.contains(user).then(|| user - self.start)
    }
}

/// A mapping of users onto nodes, plus the per-node train/test data derived
/// from a [`TrainTestSplit`].
#[derive(Debug, Clone)]
pub struct Partition {
    /// `users[n]` lists the users hosted by node `n`.
    pub users: Vec<Vec<u32>>,
    /// `train[n]` holds node `n`'s initial local training ratings.
    pub train: Vec<Vec<Rating>>,
    /// `test[n]` holds node `n`'s local held-out test ratings.
    pub test: Vec<Vec<Rating>>,
}

impl Partition {
    /// Distributes all users round-robin over `num_nodes` nodes, so cohort
    /// sizes differ by at most one (the paper's 610-users/50-nodes setup
    /// yields 12 or 13 users per node). `num_nodes == num_users` is one
    /// node per user: node `u` hosts exactly user `u`.
    ///
    /// # Panics
    /// If `num_nodes` is zero or exceeds the number of users.
    #[must_use]
    pub fn multi_user(split: &TrainTestSplit, num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        assert!(
            num_nodes <= split.num_users as usize,
            "more nodes ({num_nodes}) than users ({})",
            split.num_users
        );
        let mut users = vec![Vec::new(); num_nodes];
        for u in 0..split.num_users {
            users[(u as usize) % num_nodes].push(u);
        }
        let train_groups = UserGroups::new(&split.train, split.num_users);
        let test_groups = UserGroups::new(&split.test, split.num_users);
        let gather = |groups: &UserGroups, cohort: &[u32]| {
            let len = cohort.iter().map(|&u| groups.user(u).len()).sum();
            let mut node = Vec::with_capacity(len);
            for &u in cohort {
                node.extend_from_slice(groups.user(u));
            }
            node
        };
        let train = users.iter().map(|c| gather(&train_groups, c)).collect();
        let test = users.iter().map(|c| gather(&test_groups, c)).collect();
        Partition { users, train, test }
    }

    /// Shard-level grouping: splits the user universe into `num_nodes`
    /// **contiguous row blocks** whose widths differ by at most one
    /// (node `n` hosts `[⌊n·U/N⌋, ⌊(n+1)·U/N⌋)`), and returns the
    /// partition together with the per-node [`UserBlock`]s. With
    /// `num_nodes == num_users` every block has width 1 and the partition
    /// is exactly [`Partition::multi_user`]'s one node per user — the
    /// determinism anchor for `users_per_node = 1` deployments.
    ///
    /// # Panics
    /// If `num_nodes` is zero or exceeds the number of users.
    #[must_use]
    pub fn user_blocks(split: &TrainTestSplit, num_nodes: usize) -> (Self, Vec<UserBlock>) {
        assert!(num_nodes > 0, "need at least one node");
        assert!(
            num_nodes <= split.num_users as usize,
            "more nodes ({num_nodes}) than users ({})",
            split.num_users
        );
        let total = split.num_users as usize;
        let blocks: Vec<UserBlock> = (0..num_nodes)
            .map(|n| UserBlock {
                start: (n * total / num_nodes) as u32,
                end: ((n + 1) * total / num_nodes) as u32,
            })
            .collect();
        let train_groups = UserGroups::new(&split.train, split.num_users);
        let test_groups = UserGroups::new(&split.test, split.num_users);
        let users = blocks.iter().map(|b| (b.start..b.end).collect()).collect();
        let train = blocks
            .iter()
            .map(|b| train_groups.users(b.start..b.end).to_vec())
            .collect();
        let test = blocks
            .iter()
            .map(|b| test_groups.users(b.start..b.end).to_vec())
            .collect();
        (Partition { users, train, test }, blocks)
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.users.len()
    }

    /// Total training ratings across nodes.
    #[must_use]
    pub fn total_train(&self) -> usize {
        self.train.iter().map(Vec::len).sum()
    }

    /// Total test ratings across nodes.
    #[must_use]
    pub fn total_test(&self) -> usize {
        self.test.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;
    use rand::SeedableRng;

    fn split() -> TrainTestSplit {
        let ds = SyntheticConfig {
            num_users: 61,
            num_items: 300,
            num_ratings: 3_000,
            seed: 11,
            ..SyntheticConfig::default()
        }
        .generate();
        TrainTestSplit::standard(&ds, 3)
    }

    #[test]
    fn one_user_per_node_shape() {
        let s = split();
        let p = Partition::multi_user(&s, 61);
        assert_eq!(p.num_nodes(), 61);
        for (n, cohort) in p.users.iter().enumerate() {
            assert_eq!(cohort, &vec![n as u32]);
        }
        assert_eq!(p.total_train(), s.train.len());
        assert_eq!(p.total_test(), s.test.len());
    }

    #[test]
    fn multi_user_balanced() {
        let s = split();
        let p = Partition::multi_user(&s, 5);
        assert_eq!(p.num_nodes(), 5);
        let sizes: Vec<usize> = p.users.iter().map(Vec::len).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "cohorts {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 61);
    }

    #[test]
    fn multi_user_covers_all_data() {
        let s = split();
        let p = Partition::multi_user(&s, 7);
        assert_eq!(p.total_train(), s.train.len());
        assert_eq!(p.total_test(), s.test.len());
    }

    #[test]
    fn node_data_belongs_to_its_users() {
        let s = split();
        let p = Partition::multi_user(&s, 4);
        for (node, cohort) in p.users.iter().enumerate() {
            let cohort: std::collections::HashSet<u32> = cohort.iter().copied().collect();
            assert!(p.train[node].iter().all(|r| cohort.contains(&r.user)));
            assert!(p.test[node].iter().all(|r| cohort.contains(&r.user)));
        }
    }

    #[test]
    #[should_panic(expected = "more nodes")]
    fn rejects_more_nodes_than_users() {
        let s = split();
        let _ = Partition::multi_user(&s, 62);
    }

    #[test]
    fn user_blocks_are_contiguous_and_balanced() {
        let s = split(); // 61 users
        let (p, blocks) = Partition::user_blocks(&s, 8);
        assert_eq!(p.num_nodes(), 8);
        assert_eq!(blocks.len(), 8);
        // Blocks tile [0, 61) without gaps or overlap, widths differ <= 1.
        assert_eq!(blocks[0].start, 0);
        assert_eq!(blocks.last().unwrap().end, 61);
        for w in blocks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let widths: Vec<u32> = blocks.iter().map(UserBlock::width).collect();
        let (min, max) = (*widths.iter().min().unwrap(), *widths.iter().max().unwrap());
        assert!(max - min <= 1, "widths {widths:?}");
        // Every node's data belongs to its block.
        for (node, block) in blocks.iter().enumerate() {
            assert!(p.train[node].iter().all(|r| block.contains(r.user)));
            assert!(p.test[node].iter().all(|r| block.contains(r.user)));
        }
        assert_eq!(p.total_train(), s.train.len());
        assert_eq!(p.total_test(), s.test.len());
    }

    #[test]
    fn width_one_blocks_match_one_user_per_node() {
        // The users_per_node = 1 determinism anchor: a sharded partition
        // at width 1 is exactly the per-user partition.
        let s = split();
        let (sharded, blocks) = Partition::user_blocks(&s, 61);
        let legacy = Partition::multi_user(&s, 61);
        assert!(blocks.iter().all(|b| b.width() == 1));
        assert_eq!(sharded.users, legacy.users);
        assert_eq!(sharded.train, legacy.train);
        assert_eq!(sharded.test, legacy.test);
    }

    #[test]
    fn partitions_equal_per_user_concatenation_in_any_input_order() {
        // The partitions as written before grouping by counting: each
        // node's data is its users' ratings, user by user, each user's in
        // input order.
        let mut s = split();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        rand::seq::SliceRandom::shuffle(&mut s.train[..], &mut rng);
        rand::seq::SliceRandom::shuffle(&mut s.test[..], &mut rng);
        let of = |ratings: &[Rating], cohort: &[u32]| -> Vec<Rating> {
            cohort
                .iter()
                .flat_map(|&u| ratings.iter().filter(move |r| r.user == u).copied())
                .collect()
        };
        let multi = Partition::multi_user(&s, 7);
        let (blocks, _) = Partition::user_blocks(&s, 7);
        for p in [multi, blocks] {
            for (node, cohort) in p.users.iter().enumerate() {
                assert_eq!(p.train[node], of(&s.train, cohort));
                assert_eq!(p.test[node], of(&s.test, cohort));
            }
        }
    }

    #[test]
    fn user_block_row_mapping() {
        let b = UserBlock { start: 10, end: 14 };
        assert_eq!(b.width(), 4);
        assert!(b.contains(10) && b.contains(13));
        assert!(!b.contains(9) && !b.contains(14));
        assert_eq!(b.local_row(12), Some(2));
        assert_eq!(b.local_row(14), None);
    }

    #[test]
    #[should_panic(expected = "more nodes")]
    fn user_blocks_reject_more_nodes_than_users() {
        let s = split();
        let _ = Partition::user_blocks(&s, 62);
    }

    #[test]
    fn paper_cohort_sizes() {
        // 610 users over 50 nodes -> 12 or 13 each, like the paper's DNN setup.
        let ds = SyntheticConfig {
            num_users: 610,
            num_items: 500,
            num_ratings: 10_000,
            seed: 2,
            ..SyntheticConfig::default()
        }
        .generate();
        let s = TrainTestSplit::standard(&ds, 0);
        let p = Partition::multi_user(&s, 50);
        assert!(p.users.iter().all(|c| c.len() == 12 || c.len() == 13));
    }
}
