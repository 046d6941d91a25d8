//! Matrix-factorization experiment harness (Figs 1–4, Tables II–III).

use crate::args::BenchArgs;
use rex_core::builder::Scenario;
use rex_core::centralized::run_baseline as run_centralized_baseline;
use rex_core::config::{ExecutionMode, GossipAlgorithm, ProtocolConfig, SharingMode};
use rex_core::engine::{Engine, EngineConfig};
use rex_core::node::Node;
use rex_data::{SyntheticConfig, TrainTestSplit};
use rex_ml::MfModel;
use rex_net::mem::MemNetwork;
use rex_sim::trace::ExperimentTrace;
use rex_topology::TopologySpec;

/// Scale of an MF experiment: the fleet recipe and an epoch budget.
#[derive(Debug, Clone)]
pub struct MfScale {
    /// The fleet. Its topology, sharing mode and algorithm are set per
    /// arm by [`build_fleet`].
    pub scenario: Scenario,
    /// Epoch budget.
    pub epochs: usize,
}

/// One node per user over `num_users × num_items` synthetic ratings,
/// every seed derived from `seed`: the data seed is `seed` itself, and
/// the split, overlay and protocol seeds are `seed` XOR a constant each,
/// so the arms of one figure share a fleet. The paper's protocol: 300
/// points shared and 300 SGD steps per epoch, k = 10.
fn one_user_per_node(num_users: u32, num_items: u32, num_ratings: usize, seed: u64) -> Scenario {
    Scenario {
        dataset: SyntheticConfig {
            num_users,
            num_items,
            num_ratings,
            seed,
            ..SyntheticConfig::default()
        },
        split_seed: seed ^ 0x5917,
        nodes: num_users as usize,
        topology_seed: seed ^ 0x7090,
        protocol: ProtocolConfig {
            seed: seed ^ 0x0DE5,
            ..ProtocolConfig::default()
        },
        ..Scenario::default()
    }
}

impl MfScale {
    /// Quick one-node-per-user scale: 64 users, same density as
    /// MovieLens-latest, sized for single-core CI machines.
    #[must_use]
    pub fn one_user_quick(args: &BenchArgs) -> Self {
        let users = args.nodes.unwrap_or(64);
        MfScale {
            // ML-latest's ratings per user.
            scenario: one_user_per_node(users as u32, 2_000, users * 164, args.seed),
            epochs: args.epochs.unwrap_or(100),
        }
    }

    /// Paper scale: 610 users, 9 000 items, 100 k ratings (Table I).
    #[must_use]
    pub fn one_user_full(args: &BenchArgs) -> Self {
        MfScale {
            scenario: one_user_per_node(610, 9_000, 100_000, args.seed),
            epochs: args.epochs.unwrap_or(400),
        }
    }

    /// Quick multi-user scale (fig4): users spread over 24 nodes.
    #[must_use]
    pub fn multi_user_quick(args: &BenchArgs) -> Self {
        let mut scale = Self::one_user_quick(&BenchArgs {
            nodes: None,
            ..args.clone()
        });
        scale.scenario.nodes = args.nodes.unwrap_or(24);
        scale.epochs = args.epochs.unwrap_or(80);
        scale
    }

    /// Paper multi-user scale: 610 users over 50 nodes.
    #[must_use]
    pub fn multi_user_full(args: &BenchArgs) -> Self {
        let mut scale = Self::one_user_full(args);
        scale.scenario.nodes = args.nodes.unwrap_or(50);
        scale.epochs = args.epochs.unwrap_or(200);
        scale
    }

    /// The same scale at embedding size `k` (Fig 3's sweep).
    #[must_use]
    pub fn with_k(&self, k: usize) -> Self {
        let mut scale = self.clone();
        scale.scenario.hp.k = k;
        scale
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
    let mut scenario = scale.scenario.clone();
    scenario.topology = topology;
    scenario.protocol.sharing = sharing;
    scenario.protocol.algorithm = algorithm;
    scenario.build_fleet()
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
    let s = &scale.scenario;
    let dataset = s.dataset.generate();
    let split = TrainTestSplit::standard(&dataset, s.split_seed);
    let mut model = MfModel::new(
        dataset.num_users,
        dataset.num_items,
        s.hp,
        dataset.mean_rating() as f32,
        s.model_seed,
    );
    run_centralized_baseline(
        "Centralized",
        &mut model,
        &split.train,
        &split.test,
        split.train.len(),
        scale.epochs.min(60),
        s.dataset.seed ^ 0xCE47,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> MfScale {
        let mut scenario = one_user_per_node(16, 100, 1_200, 1);
        scenario.hp.k = 5;
        scenario.protocol.points_per_epoch = 50;
        scenario.protocol.steps_per_epoch = 100;
        MfScale {
            scenario,
            epochs: 6,
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
        assert_eq!(s.scenario.dataset.num_users, 64);
        assert_eq!(s.scenario.nodes, 64);
        let m = MfScale::multi_user_quick(&args);
        assert_eq!(m.scenario.nodes, 64);
        let f = MfScale::one_user_full(&BenchArgs::default())
            .scenario
            .dataset;
        assert_eq!(
            (f.num_users, f.num_items, f.num_ratings),
            (610, 9_000, 100_000)
        );
    }
}
