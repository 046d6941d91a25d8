//! Constructs node fleets from a dataset partition and a topology.

use crate::config::{ProtocolConfig, SharingMode};
use crate::node::Node;
use rex_data::{Partition, Rating, UserBlock};
use rex_ml::dnn::{DnnHyperParams, DnnModel};
use rex_ml::{MfHyperParams, MfModel};
use rex_topology::Graph;

/// Seed bundle so experiments can vary one randomness source at a time.
#[derive(Debug, Clone, Copy)]
pub struct NodeSeeds {
    /// Model-initialization seed: drawn once per build, cloned per node
    /// (all nodes start from the same parameters, standard in decentralized SGD).
    pub model_init: u64,
}

impl Default for NodeSeeds {
    fn default() -> Self {
        NodeSeeds {
            model_init: 0xC0FFEE,
        }
    }
}

fn local_mean(ratings: &[Rating]) -> f32 {
    if ratings.is_empty() {
        return 3.5;
    }
    ratings.iter().map(|r| r.value).sum::<f32>() / ratings.len() as f32
}

/// Builds one MF node per partition slot, wired to `graph`.
///
/// # Panics
/// If the partition and graph disagree on node count.
#[must_use]
pub fn build_mf_nodes(
    partition: &Partition,
    graph: &Graph,
    num_users: u32,
    num_items: u32,
    hp: MfHyperParams,
    cfg: ProtocolConfig,
    seeds: NodeSeeds,
) -> Vec<Node<MfModel>> {
    let init = MfModel::new(num_users, num_items, hp, 3.5, seeds.model_init);
    build_mf_fleet(partition, graph, None, init, cfg)
}

/// Builds one **user-sharded** MF node per partition slot: slot `id`
/// hosts the contiguous user-row block `blocks[id]` (see
/// [`Partition::user_blocks`]). Width-1 blocks degrade to the exact
/// legacy per-user node — a `users_per_node = 1` sharded fleet is
/// bit-identical to [`build_mf_nodes`] over a per-user partition.
///
/// # Panics
/// If the partition, block list and graph disagree on node count.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn build_mf_nodes_sharded(
    partition: &Partition,
    blocks: &[UserBlock],
    graph: &Graph,
    num_users: u32,
    num_items: u32,
    hp: MfHyperParams,
    cfg: ProtocolConfig,
    seeds: NodeSeeds,
) -> Vec<Node<MfModel>> {
    assert_eq!(
        partition.num_nodes(),
        blocks.len(),
        "partition/block count mismatch"
    );
    let init = MfModel::new(num_users, num_items, hp, 3.5, seeds.model_init);
    build_mf_fleet(partition, graph, Some(blocks), init, cfg)
}

/// The MF builders' one body: each node gets a clone of `init` (every
/// byte and the fresh write log; the last node takes `init` itself) and
/// its own local mean and factor stamp. The clones share `init`'s rows
/// until they write them, except where a node will write most of its
/// table anyway. That is the one ownership rule: a node takes every row
/// at build, in row order ([`MfModel::own_all_rows`]), under model
/// sharing (its first merge writes every row a neighbour has seen) or
/// when its training ratings reach at least one row in four
/// ([`MfModel::ratings_reach_full_form`]). Past that share its
/// commitment links take the full form, which reads the whole table
/// every epoch: in row order that is one run per table, in first-write
/// order one per written row. The rule counts nothing on a node with
/// fewer ratings than an eighth of the rows, so the paper's one-user
/// nodes (about 1.4 % of the rows reached) keep copy-on-write for free.
/// An owning node holds no share of `init`: the last owner frees it.
fn build_mf_fleet(
    partition: &Partition,
    graph: &Graph,
    blocks: Option<&[UserBlock]>,
    init: MfModel,
    cfg: ProtocolConfig,
) -> Vec<Node<MfModel>> {
    let n = partition.num_nodes();
    assert_eq!(n, graph.len(), "partition/topology node count mismatch");
    (0..n)
        .zip(std::iter::repeat_n(init, n))
        .map(|(id, mut model)| {
            let train = partition.train[id].clone();
            model.set_global_mean(local_mean(&train));
            if cfg.sharing == SharingMode::Model || model.ratings_reach_full_form(&train) {
                model.own_all_rows();
            }
            let node = Node::builder(id, model)
                .neighbors(graph.neighbors(id).to_vec())
                .train(train)
                .test(partition.test[id].clone())
                .protocol(cfg);
            match blocks {
                Some(blocks) => node.shard(blocks[id]),
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
    seeds: NodeSeeds,
) -> Vec<Node<DnnModel>> {
    assert_eq!(
        partition.num_nodes(),
        graph.len(),
        "partition/topology node count mismatch"
    );
    (0..partition.num_nodes())
        .map(|id| {
            let train = partition.train[id].clone();
            let mean = local_mean(&train);
            let model = DnnModel::new(num_users, num_items, hp.clone(), mean, seeds.model_init);
            Node::builder(id, model)
                .neighbors(graph.neighbors(id).to_vec())
                .train(train)
                .test(partition.test[id].clone())
                .protocol(cfg)
                .build()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_data::{SyntheticConfig, TrainTestSplit};
    use rex_ml::Model;
    use rex_topology::TopologySpec;

    fn partition(nodes: usize) -> (Partition, u32, u32) {
        let ds = SyntheticConfig {
            num_users: 20,
            num_items: 100,
            num_ratings: 800,
            seed: 4,
            ..SyntheticConfig::default()
        }
        .generate();
        let split = TrainTestSplit::standard(&ds, 1);
        (
            Partition::multi_user(&split, nodes),
            ds.num_users,
            ds.num_items,
        )
    }

    #[test]
    fn builds_wired_mf_fleet() {
        let (part, nu, ni) = partition(10);
        let graph = TopologySpec::Ring.build(10, 0);
        let nodes = build_mf_nodes(
            &part,
            &graph,
            nu,
            ni,
            MfHyperParams::default(),
            ProtocolConfig::default(),
            NodeSeeds::default(),
        );
        assert_eq!(nodes.len(), 10);
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id(), i);
            assert_eq!(n.neighbors(), graph.neighbors(i));
            assert!(!n.store().is_empty());
        }
    }

    #[test]
    fn global_mean_is_local() {
        let (part, nu, ni) = partition(4);
        let graph = TopologySpec::FullyConnected.build(4, 0);
        let nodes = build_mf_nodes(
            &part,
            &graph,
            nu,
            ni,
            MfHyperParams::default(),
            ProtocolConfig::default(),
            NodeSeeds::default(),
        );
        for (id, n) in nodes.iter().enumerate() {
            let expected = local_mean(&part.train[id]);
            assert!((n.model().global_mean() - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn sharded_fleet_hosts_user_blocks() {
        let ds = SyntheticConfig {
            num_users: 20,
            num_items: 100,
            num_ratings: 800,
            seed: 4,
            ..SyntheticConfig::default()
        }
        .generate();
        let split = TrainTestSplit::standard(&ds, 1);
        let (part, blocks) = Partition::user_blocks(&split, 5);
        let graph = TopologySpec::Ring.build(5, 0);
        let nodes = build_mf_nodes_sharded(
            &part,
            &blocks,
            &graph,
            ds.num_users,
            ds.num_items,
            MfHyperParams::default(),
            ProtocolConfig::default(),
            NodeSeeds::default(),
        );
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
        let ds = SyntheticConfig {
            num_users: 20,
            num_items: 100,
            num_ratings: 800,
            seed: 4,
            ..SyntheticConfig::default()
        }
        .generate();
        let split = TrainTestSplit::standard(&ds, 1);
        let (sharded_part, blocks) = Partition::user_blocks(&split, 20);
        let legacy_part = Partition::one_user_per_node(&split);
        let graph = TopologySpec::Ring.build(20, 0);
        let sharded = build_mf_nodes_sharded(
            &sharded_part,
            &blocks,
            &graph,
            ds.num_users,
            ds.num_items,
            MfHyperParams::default(),
            ProtocolConfig::default(),
            NodeSeeds::default(),
        );
        let legacy = build_mf_nodes(
            &legacy_part,
            &graph,
            ds.num_users,
            ds.num_items,
            MfHyperParams::default(),
            ProtocolConfig::default(),
            NodeSeeds::default(),
        );
        for (s, l) in sharded.iter().zip(&legacy) {
            assert_eq!(s.shard_block(), None, "width-1 shard must normalize away");
            assert_eq!(s.users_hosted(), 1);
            assert_eq!(s.model().to_bytes(), l.model().to_bytes());
            assert_eq!(s.store().ratings(), l.store().ratings());
            assert_eq!(s.store().memory_bytes(), l.store().memory_bytes());
        }
    }

    #[test]
    fn cloned_init_equals_a_per_node_draw() {
        // Every node of either builder is byte-for-byte the model the
        // builders drew per node before the init was drawn once, starts
        // on a full-form change record, and carries its own stamp.
        let ds = SyntheticConfig {
            num_users: 20,
            num_items: 100,
            num_ratings: 800,
            seed: 4,
            ..SyntheticConfig::default()
        }
        .generate();
        let split = TrainTestSplit::standard(&ds, 1);
        let (hp, cfg, seeds) = (
            MfHyperParams::default(),
            ProtocolConfig::default(),
            NodeSeeds { model_init: 77 },
        );
        let (nu, ni) = (ds.num_users, ds.num_items);
        let mut fleets = Vec::new();
        let part = Partition::multi_user(&split, 4);
        let graph = TopologySpec::Ring.build(4, 0);
        let nodes = build_mf_nodes(&part, &graph, nu, ni, hp, cfg, seeds);
        fleets.push((part, nodes));
        for shards in [5, 20] {
            let (part, blocks) = Partition::user_blocks(&split, shards);
            let graph = TopologySpec::Ring.build(shards, 0);
            let nodes = build_mf_nodes_sharded(&part, &blocks, &graph, nu, ni, hp, cfg, seeds);
            fleets.push((part, nodes));
        }
        for (part, nodes) in &fleets {
            let mut stamps: Vec<u64> = nodes.iter().map(|n| n.model().factor_version()).collect();
            stamps.sort_unstable();
            stamps.dedup();
            assert_eq!(stamps.len(), nodes.len(), "two nodes share a factor stamp");
            for (id, n) in nodes.iter().enumerate() {
                let mut drawn = MfModel::new(nu, ni, hp, 3.5, seeds.model_init);
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
        let hp = MfHyperParams::default();
        build_mf_nodes(&part, &graph, 10, 91, hp, cfg, NodeSeeds::default())
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
        let ds = SyntheticConfig {
            num_users: 610,
            num_items: 9_000,
            num_ratings: 100_000,
            seed: 42,
            ..SyntheticConfig::default()
        }
        .generate();
        let split = TrainTestSplit::standard(&ds, 7);
        let nodes = build_mf_nodes(
            &Partition::one_user_per_node(&split),
            &TopologySpec::SmallWorld.build(610, 5),
            ds.num_users,
            ds.num_items,
            MfHyperParams::default(),
            ProtocolConfig::default(),
            NodeSeeds::default(),
        );
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
        let (part, nu, ni) = partition(4);
        let graph = TopologySpec::Ring.build(5, 0);
        let _ = build_mf_nodes(
            &part,
            &graph,
            nu,
            ni,
            MfHyperParams::default(),
            ProtocolConfig::default(),
            NodeSeeds::default(),
        );
    }
}
