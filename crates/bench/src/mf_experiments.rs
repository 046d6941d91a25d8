//! Matrix-factorization experiment harness (Figs 1–4, Tables II–III).

use crate::args::BenchArgs;
use rex_core::builder::{build_mf_nodes, NodeSeeds};
use rex_core::centralized::run_baseline as run_centralized_baseline;
use rex_core::config::{ExecutionMode, GossipAlgorithm, ProtocolConfig, SharingMode};
use rex_core::engine::{Engine, EngineConfig};
use rex_core::node::Node;
use rex_data::{Partition, SyntheticConfig, TrainTestSplit};
use rex_ml::{MfHyperParams, MfModel};
use rex_net::mem::MemNetwork;
use rex_sim::trace::ExperimentTrace;
use rex_topology::TopologySpec;

/// Scale of an MF experiment.
#[derive(Debug, Clone)]
pub struct MfScale {
    /// Users in the synthetic dataset.
    pub num_users: u32,
    /// Items.
    pub num_items: u32,
    /// Total ratings.
    pub num_ratings: usize,
    /// `None` = one node per user (§IV-B-a); `Some(n)` = cohorts (§IV-B-b).
    pub multi_node: Option<usize>,
    /// Epoch budget.
    pub epochs: usize,
    /// Raw points shared per epoch (paper: 300).
    pub points_per_epoch: usize,
    /// SGD steps per epoch (fixed, §III-E).
    pub steps_per_epoch: usize,
    /// Embedding dimension (paper: 10).
    pub k: usize,
    /// Base seed.
    pub seed: u64,
}

impl MfScale {
    /// Quick one-node-per-user scale: 64 users, same density as
    /// MovieLens-latest, sized for single-core CI machines.
    #[must_use]
    pub fn one_user_quick(args: &BenchArgs) -> Self {
        let users = args.nodes.unwrap_or(64) as u32;
        MfScale {
            num_users: users,
            num_items: 2_000,
            num_ratings: (users as usize) * 164, // ML-latest's ratings/user
            multi_node: None,
            epochs: args.epochs.unwrap_or(100),
            points_per_epoch: 300,
            steps_per_epoch: 300,
            k: 10,
            seed: args.seed,
        }
    }

    /// Paper scale: 610 users, 9 000 items, 100 k ratings (Table I).
    #[must_use]
    pub fn one_user_full(args: &BenchArgs) -> Self {
        MfScale {
            num_users: 610,
            num_items: 9_000,
            num_ratings: 100_000,
            multi_node: None,
            epochs: args.epochs.unwrap_or(400),
            points_per_epoch: 300,
            steps_per_epoch: 300,
            k: 10,
            seed: args.seed,
        }
    }

    /// Quick multi-user scale (fig4): users spread over 24 nodes.
    #[must_use]
    pub fn multi_user_quick(args: &BenchArgs) -> Self {
        MfScale {
            multi_node: Some(args.nodes.unwrap_or(24)),
            epochs: args.epochs.unwrap_or(80),
            ..Self::one_user_quick(&BenchArgs {
                nodes: None,
                ..args.clone()
            })
        }
    }

    /// Paper multi-user scale: 610 users over 50 nodes.
    #[must_use]
    pub fn multi_user_full(args: &BenchArgs) -> Self {
        MfScale {
            multi_node: Some(args.nodes.unwrap_or(50)),
            epochs: args.epochs.unwrap_or(200),
            ..Self::one_user_full(args)
        }
    }

    /// Node count implied by this scale.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.multi_node.unwrap_or(self.num_users as usize)
    }

    fn dataset_config(&self) -> SyntheticConfig {
        SyntheticConfig {
            num_users: self.num_users,
            num_items: self.num_items,
            num_ratings: self.num_ratings,
            seed: self.seed,
            ..SyntheticConfig::default()
        }
    }

    fn hyper_params(&self) -> MfHyperParams {
        MfHyperParams {
            k: self.k,
            ..MfHyperParams::default()
        }
    }
}

/// The paper's four panels, in Fig 1 order.
pub const FOUR_PANELS: [(&str, GossipAlgorithm, TopologySpec); 4] = [
    ("RMW, SW", GossipAlgorithm::Rmw, TopologySpec::SmallWorld),
    ("RMW, ER", GossipAlgorithm::Rmw, TopologySpec::ErdosRenyi),
    (
        "D-PSGD, SW",
        GossipAlgorithm::DPsgd,
        TopologySpec::SmallWorld,
    ),
    (
        "D-PSGD, ER",
        GossipAlgorithm::DPsgd,
        TopologySpec::ErdosRenyi,
    ),
];

/// Builds the node fleet for one (sharing, algorithm, topology) arm.
#[must_use]
pub fn build_fleet(
    scale: &MfScale,
    topology: TopologySpec,
    sharing: SharingMode,
    algorithm: GossipAlgorithm,
) -> Vec<Node<MfModel>> {
    let dataset = scale.dataset_config().generate();
    let split = TrainTestSplit::standard(&dataset, scale.seed ^ 0x5917);
    let partition = match scale.multi_node {
        None => Partition::one_user_per_node(&split),
        Some(n) => Partition::multi_user(&split, n),
    };
    let graph = topology.build(partition.num_nodes(), scale.seed ^ 0x7090);
    build_mf_nodes(
        &partition,
        &graph,
        dataset.num_users,
        dataset.num_items,
        scale.hyper_params(),
        ProtocolConfig {
            sharing,
            algorithm,
            points_per_epoch: scale.points_per_epoch,
            steps_per_epoch: scale.steps_per_epoch,
            seed: scale.seed ^ 0x0DE5,
            ..ProtocolConfig::default()
        },
        NodeSeeds::default(),
    )
}

/// Runs one panel (REX + MS arms) and returns `(rex, ms)` traces.
pub fn run_panel(
    scale: &MfScale,
    label: &str,
    algorithm: GossipAlgorithm,
    topology: TopologySpec,
    execution: ExecutionMode,
) -> (ExperimentTrace, ExperimentTrace) {
    let run = |name: String, mut nodes: Vec<Node<MfModel>>| {
        let cfg = EngineConfig {
            epochs: scale.epochs,
            execution,
            ..EngineConfig::default()
        };
        Engine::new(MemNetwork::new(nodes.len()), cfg).run(&name, &mut nodes)
    };
    let rex = run(
        format!("REX, {label}"),
        build_fleet(scale, topology, SharingMode::RawData, algorithm),
    );
    let ms = run(
        format!("MS, {label}"),
        build_fleet(scale, topology, SharingMode::Model, algorithm),
    );
    (rex.trace, ms.trace)
}

/// Runs the centralized baseline at this scale.
pub fn run_baseline(scale: &MfScale) -> ExperimentTrace {
    let dataset = scale.dataset_config().generate();
    let split = TrainTestSplit::standard(&dataset, scale.seed ^ 0x5917);
    let mut model = MfModel::new(
        dataset.num_users,
        dataset.num_items,
        scale.hyper_params(),
        dataset.mean_rating() as f32,
        NodeSeeds::default().model_init,
    );
    run_centralized_baseline(
        "Centralized",
        &mut model,
        &split.train,
        &split.test,
        split.train.len(),
        scale.epochs.min(60),
        scale.seed ^ 0xCE47,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> MfScale {
        MfScale {
            num_users: 16,
            num_items: 100,
            num_ratings: 1_200,
            multi_node: None,
            epochs: 6,
            points_per_epoch: 50,
            steps_per_epoch: 100,
            k: 5,
            seed: 1,
        }
    }

    #[test]
    fn fleet_matches_scale() {
        let nodes = build_fleet(
            &tiny_scale(),
            TopologySpec::Ring,
            SharingMode::RawData,
            GossipAlgorithm::Rmw,
        );
        assert_eq!(nodes.len(), 16);
    }

    #[test]
    fn panel_produces_both_arms() {
        let (rex, ms) = run_panel(
            &tiny_scale(),
            "RMW, SW",
            GossipAlgorithm::Rmw,
            TopologySpec::Ring,
            ExecutionMode::Native,
        );
        assert_eq!(rex.records.len(), 6);
        assert_eq!(ms.records.len(), 6);
        assert!(rex.name.starts_with("REX"));
        assert!(ms.name.starts_with("MS"));
        assert!(ms.total_bytes_per_node() > rex.total_bytes_per_node());
    }

    #[test]
    fn quick_scales_match_args() {
        let args = BenchArgs {
            epochs: Some(33),
            nodes: Some(64),
            ..Default::default()
        };
        let s = MfScale::one_user_quick(&args);
        assert_eq!(s.epochs, 33);
        assert_eq!(s.num_users, 64);
        assert_eq!(s.node_count(), 64);
        let m = MfScale::multi_user_quick(&args);
        assert_eq!(m.node_count(), 64);
        let f = MfScale::one_user_full(&BenchArgs::default());
        assert_eq!(
            (f.num_users, f.num_items, f.num_ratings),
            (610, 9_000, 100_000)
        );
    }
}
