//! The paper's one experiment recipe (§IV), and the node fleets it builds.
//!
//! Every MF run — one node per user, multi-user cohorts, the 8-node SGX
//! testbed, a `rex-node` cluster — is a [`Scenario`], and
//! [`Scenario::build_fleet`] builds its fleet in these steps, in this
//! order, each drawn from its own seed so one source of randomness can
//! vary alone:
//!
//! 1. dataset ← data seed (`dataset.seed`): synthetic ratings
//!    ([`SyntheticConfig::generate`]);
//! 2. split ← split seed: 70/30 per user ([`TrainTestSplit::standard`]);
//! 3. partition: round-robin cohorts ([`Partition::multi_user`]), or
//!    contiguous user blocks when sharded ([`Partition::user_blocks`]);
//!    `nodes == num_users` is one node per user either way;
//! 4. overlay ← topology seed ([`TopologySpec::build`]);
//! 5. one initial model ← model seed, cloned per node (every node starts
//!    from the same parameters, standard in decentralized SGD), each
//!    with its own local mean;
//! 6. node RNG ← protocol seed + node id ([`ProtocolConfig::seed`]).
//!
//! The dataset and split are dropped once the partition is cut.

// Every `rex-node` process builds its fleet here at start-up.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use crate::config::{ProtocolConfig, SharingMode};
use crate::node::Node;
use rex_data::{Partition, Rating, SyntheticConfig, TrainTestSplit, UserBlock};
use rex_ml::dnn::{DnnHyperParams, DnnModel};
use rex_ml::{MfHyperParams, MfModel};
use rex_topology::{Graph, TopologySpec};

/// The inputs of one run of the recipe (see the module doc). Its
/// [`Default`] is the default `rex-node` cluster's (`ClusterConfig`
/// reads its defaults from here) at 8 nodes; callers state only what
/// differs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The synthetic ratings; `dataset.seed` is the data seed.
    pub dataset: SyntheticConfig,
    /// Train/test split seed.
    pub split_seed: u64,
    /// Nodes in the fleet (`dataset.num_users` is one node per user).
    pub nodes: usize,
    /// Contiguous user blocks behind sharded stores, instead of
    /// round-robin cohorts.
    pub sharded: bool,
    /// The overlay.
    pub topology: TopologySpec,
    /// Overlay seed.
    pub topology_seed: u64,
    /// Model hyperparameters.
    pub hp: MfHyperParams,
    /// Every node's protocol; `protocol.seed` is the protocol seed.
    pub protocol: ProtocolConfig,
    /// Seed of the one initial model every node clones.
    pub model_seed: u64,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            dataset: SyntheticConfig {
                num_users: 24,
                num_items: 160,
                num_ratings: 2_000,
                seed: 42,
                ..SyntheticConfig::default()
            },
            split_seed: 7,
            nodes: 8,
            sharded: false,
            topology: TopologySpec::FullyConnected,
            topology_seed: 5,
            hp: MfHyperParams::default(),
            protocol: ProtocolConfig {
                points_per_epoch: 40,
                steps_per_epoch: 120,
                seed: 17,
                ..ProtocolConfig::default()
            },
            model_seed: 0xC0FFEE,
        }
    }
}

impl Scenario {
    /// `nodes` cohorts of two users each (125 ratings a node over 160
    /// items) on a small world, D-PSGD raw sharing of 40 points and 100
    /// SGD steps: the small shape the golden, chaos and membership
    /// suites run.
    #[must_use]
    pub fn two_users_per_node(nodes: usize) -> Self {
        let base = Scenario::default();
        Scenario {
            dataset: SyntheticConfig {
                num_users: 2 * nodes as u32,
                num_ratings: 125 * nodes,
                ..base.dataset
            },
            nodes,
            topology: TopologySpec::SmallWorld,
            protocol: ProtocolConfig {
                steps_per_epoch: 100,
                ..base.protocol
            },
            ..base
        }
    }

    /// Builds the fleet: the recipe's steps in the module doc's order.
    ///
    /// # Panics
    /// If `nodes` is zero or exceeds the dataset's users, or the dataset
    /// cannot hold its ratings.
    #[must_use]
    pub fn build_fleet(&self) -> Vec<Node<MfModel>> {
        let (partition, blocks) = {
            let dataset = self.dataset.generate();
            let split = TrainTestSplit::standard(&dataset, self.split_seed);
            if self.sharded {
                Partition::user_blocks(&split, self.nodes)
            } else {
                (Partition::multi_user(&split, self.nodes), Vec::new())
            }
        };
        let graph = self.topology.build(self.nodes, self.topology_seed);
        let init = MfModel::new(
            self.dataset.num_users,
            self.dataset.num_items,
            self.hp,
            3.5,
            self.model_seed,
        );
        build_mf_nodes(&partition, &blocks, &graph, init, self.protocol)
    }
}

fn local_mean(ratings: &[Rating]) -> f32 {
    if ratings.is_empty() {
        return 3.5;
    }
    ratings.iter().map(|r| r.value).sum::<f32>() / ratings.len() as f32
}

/// Builds one MF node per partition slot, wired to `graph`:
/// [`Scenario::build_fleet`]'s last step, public for callers that time
/// the recipe's steps one by one. Each node gets a clone of `init` (every
/// byte and the fresh write log; the last node takes `init` itself), its
/// own local mean and factor stamp, a copy of its slot's data (on the
/// 610-node paper fleet, taking the partition's vectors instead made the
/// build about twice as slow), and its user block when `blocks` has one
/// per node (width-1 blocks normalize away, so a
/// one-user-per-node sharded fleet is the per-user fleet). The clones
/// share `init`'s rows until they write them, except where a node will
/// write most of its table anyway. That is the one ownership rule: a
/// node takes every row at build, in row order
/// ([`MfModel::own_all_rows`]), under model sharing (its first merge
/// writes every row a neighbour has seen) or when its training ratings
/// reach at least one row in four ([`MfModel::ratings_reach_full_form`]).
/// Past that share its commitment links take the full form, which reads
/// the whole table every epoch: in row order that is one run per table,
/// in first-write order one per written row. The rule counts nothing on
/// a node with fewer ratings than an eighth of the rows, so the paper's
/// one-user nodes (about 1.4 % of the rows reached) keep copy-on-write
/// for free. An owning node holds no share of `init`: the last owner
/// frees it.
///
/// # Panics
/// If the partition, the graph and a non-empty `blocks` disagree on
/// node count.
#[must_use]
pub fn build_mf_nodes(
    partition: &Partition,
    blocks: &[UserBlock],
    graph: &Graph,
    init: MfModel,
    cfg: ProtocolConfig,
) -> Vec<Node<MfModel>> {
    let n = partition.num_nodes();
    assert_eq!(n, graph.len(), "partition/topology node count mismatch");
    assert!(
        blocks.is_empty() || blocks.len() == n,
        "partition/block count mismatch"
    );
    let mut blocks = blocks.iter();
    partition
        .train
        .iter()
        .zip(&partition.test)
        .zip(std::iter::repeat_n(init, n))
        .enumerate()
        .map(|(id, ((train, test), mut model))| {
            model.set_global_mean(local_mean(train));
            if cfg.sharing == SharingMode::Model || model.ratings_reach_full_form(train) {
                model.own_all_rows();
            }
            let node = Node::builder(id, model)
                .neighbors(graph.neighbors(id).to_vec())
                .train(train.clone())
                .test(test.clone())
                .protocol(cfg);
            match blocks.next() {
                Some(&block) => node.shard(block),
                None => node,
            }
            .build()
        })
        .collect()
}

/// Builds one DNN node per partition slot, wired to `graph`.
///
/// # Panics
/// If the partition and graph disagree on node count.
#[must_use]
pub fn build_dnn_nodes(
    partition: &Partition,
    graph: &Graph,
    num_users: u32,
    num_items: u32,
    hp: DnnHyperParams,
    cfg: ProtocolConfig,
    model_seed: u64,
) -> Vec<Node<DnnModel>> {
    assert_eq!(
        partition.num_nodes(),
        graph.len(),
        "partition/topology node count mismatch"
    );
    partition
        .train
        .iter()
        .zip(&partition.test)
        .enumerate()
        .map(|(id, (train, test))| {
            let mean = local_mean(train);
            let model = DnnModel::new(num_users, num_items, hp.clone(), mean, model_seed);
            Node::builder(id, model)
                .neighbors(graph.neighbors(id).to_vec())
                .train(train.clone())
                .test(test.clone())
                .protocol(cfg)
                .build()
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rex_ml::Model;

    /// `n` nodes of two users each (60 items) on a ring, 10 points and
    /// 30 SGD steps an epoch: the round and pool unit tests' fleet.
    pub(crate) fn ring(n: usize) -> Vec<Node<MfModel>> {
        Scenario {
            dataset: SyntheticConfig {
                num_users: 2 * n as u32,
                num_items: 60,
                num_ratings: 50 * n,
                seed: 9,
                ..SyntheticConfig::default()
            },
            split_seed: 2,
            nodes: n,
            topology: TopologySpec::Ring,
            topology_seed: 1,
            protocol: ProtocolConfig {
                points_per_epoch: 10,
                steps_per_epoch: 30,
                ..ProtocolConfig::default()
            },
            ..Scenario::default()
        }
        .build_fleet()
    }

    /// 20 users over 100 items on `nodes` nodes of a ring.
    fn small(nodes: usize) -> Scenario {
        Scenario {
            dataset: SyntheticConfig {
                num_users: 20,
                num_items: 100,
                num_ratings: 800,
                seed: 4,
                ..SyntheticConfig::default()
            },
            split_seed: 1,
            nodes,
            topology: TopologySpec::Ring,
            topology_seed: 0,
            ..Scenario::default()
        }
    }

    fn split(s: &Scenario) -> TrainTestSplit {
        TrainTestSplit::standard(&s.dataset.generate(), s.split_seed)
    }

    #[test]
    fn builds_wired_mf_fleet() {
        let nodes = small(10).build_fleet();
        let graph = TopologySpec::Ring.build(10, 0);
        assert_eq!(nodes.len(), 10);
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id(), i);
            assert_eq!(n.neighbors(), graph.neighbors(i));
            assert!(!n.store().is_empty());
        }
    }

    #[test]
    fn global_mean_is_local() {
        let s = small(4);
        let part = Partition::multi_user(&split(&s), 4);
        for (id, n) in s.build_fleet().iter().enumerate() {
            let expected = local_mean(&part.train[id]);
            assert!((n.model().global_mean() - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn sharded_fleet_hosts_user_blocks() {
        let s = Scenario {
            sharded: true,
            ..small(5)
        };
        let (_, blocks) = Partition::user_blocks(&split(&s), 5);
        let nodes = s.build_fleet();
        assert_eq!(nodes.len(), 5);
        for (id, n) in nodes.iter().enumerate() {
            assert_eq!(n.shard_block(), Some(blocks[id]));
            assert_eq!(n.users_hosted(), 4);
        }
    }

    #[test]
    fn width_one_sharded_fleet_matches_legacy_builder() {
        // The users_per_node = 1 contract at the builder level: sharded
        // construction over width-1 blocks yields byte-identical nodes.
        let sharded = Scenario {
            sharded: true,
            ..small(20)
        }
        .build_fleet();
        let per_user = small(20).build_fleet();
        for (s, l) in sharded.iter().zip(&per_user) {
            assert_eq!(s.shard_block(), None, "width-1 shard must normalize away");
            assert_eq!(s.users_hosted(), 1);
            assert_eq!(s.model().to_bytes(), l.model().to_bytes());
            assert_eq!(s.store().ratings(), l.store().ratings());
            assert_eq!(s.store().memory_bytes(), l.store().memory_bytes());
        }
    }

    #[test]
    fn cloned_init_equals_a_per_node_draw() {
        // Every node of either partition shape is byte-for-byte the model
        // the builders drew per node before the init was drawn once,
        // starts on a full-form change record, and carries its own stamp.
        for (nodes, sharded) in [(4, false), (5, true), (20, true)] {
            let s = Scenario {
                sharded,
                model_seed: 77,
                ..small(nodes)
            };
            let part = if sharded {
                Partition::user_blocks(&split(&s), nodes).0
            } else {
                Partition::multi_user(&split(&s), nodes)
            };
            let fleet = s.build_fleet();
            let mut stamps: Vec<u64> = fleet.iter().map(|n| n.model().factor_version()).collect();
            stamps.sort_unstable();
            stamps.dedup();
            assert_eq!(stamps.len(), fleet.len(), "two nodes share a factor stamp");
            for (id, n) in fleet.iter().enumerate() {
                let mut drawn = MfModel::new(20, 100, s.hp, 3.5, 77);
                drawn.set_global_mean(local_mean(&part.train[id]));
                assert_eq!(n.model().to_bytes(), drawn.to_bytes(), "node {id}");
                let mut record = Vec::new();
                assert_eq!(n.model().clone().write_changes(&mut record), None);
                assert_eq!(record, drawn.to_bytes());
            }
        }
    }

    /// One node over a 10 × 91 model (101 rows) whose user 0 rated items
    /// `0..items`: it reaches `1 + items` rows.
    fn one_rater(items: u32, sharing: SharingMode) -> Node<MfModel> {
        let rated: Vec<Rating> = (0..items)
            .map(|item| Rating {
                user: 0,
                item,
                value: 4.0,
            })
            .collect();
        let part = Partition {
            users: vec![vec![0]],
            train: vec![rated],
            test: vec![Vec::new()],
        };
        let cfg = ProtocolConfig {
            sharing,
            ..ProtocolConfig::default()
        };
        let graph = TopologySpec::FullyConnected.build(1, 0);
        let init = MfModel::new(10, 91, MfHyperParams::default(), 3.5, 1);
        build_mf_nodes(&part, &[], &graph, init, cfg)
            .pop()
            .expect("one node")
    }

    #[test]
    fn a_node_whose_ratings_reach_a_quarter_of_its_rows_owns_them_at_build() {
        // ⌈101 / 4⌉ = 26 rows reached owns every row, 25 does not; an
        // owning model holds no share of the init.
        let owning = one_rater(25, SharingMode::RawData);
        let sharing = one_rater(24, SharingMode::RawData);
        assert_eq!(owning.model().base_bytes(), 0);
        assert_eq!(sharing.model().base_bytes(), (10 + 91) * (10 + 1) * 4);
        assert!(owning.model().resident_bytes() > sharing.model().resident_bytes());
        // Model sharing owns whatever its ratings reach.
        assert_eq!(one_rater(1, SharingMode::Model).model().base_bytes(), 0);
        // The layout moves no value: both are the init at mean 4.0.
        assert_eq!(owning.model().to_bytes(), sharing.model().to_bytes());
    }

    #[test]
    fn the_papers_one_user_fleet_owns_no_row_at_build() {
        let nodes = Scenario {
            dataset: SyntheticConfig {
                num_users: 610,
                num_items: 9_000,
                num_ratings: 100_000,
                seed: 42,
                ..SyntheticConfig::default()
            },
            nodes: 610,
            topology: TopologySpec::SmallWorld,
            ..Scenario::default()
        }
        .build_fleet();
        let init = MfModel::new(610, 9_000, MfHyperParams::default(), 3.5, 1);
        // A fresh model owns nothing; its sizes depend only on its shape.
        for n in &nodes {
            assert_eq!(n.model().base_bytes(), init.base_bytes(), "node {}", n.id());
            assert_eq!(n.model().resident_bytes(), init.resident_bytes());
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn rejects_mismatched_sizes() {
        let s = small(4);
        let part = Partition::multi_user(&split(&s), 4);
        let graph = TopologySpec::Ring.build(5, 0);
        let init = MfModel::new(20, 100, s.hp, 3.5, s.model_seed);
        let _ = build_mf_nodes(&part, &[], &graph, init, s.protocol);
    }
}
