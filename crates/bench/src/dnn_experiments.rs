//! DNN experiment harness (Fig 5: 50 nodes, multiple users per node,
//! D-PSGD, small-world and Erdős–Rényi).

use crate::args::BenchArgs;
use rex_core::builder::{build_dnn_nodes, Scenario};
use rex_core::config::{ExecutionMode, GossipAlgorithm, ProtocolConfig, SharingMode};
use rex_core::engine::{Engine, EngineConfig};
use rex_data::{Partition, SyntheticConfig, TrainTestSplit};
use rex_ml::dnn::DnnHyperParams;
use rex_net::mem::MemNetwork;
use rex_sim::trace::ExperimentTrace;
use rex_topology::TopologySpec;

/// Scale of the DNN experiment.
#[derive(Debug, Clone)]
pub struct DnnScale {
    /// Users in the dataset.
    pub num_users: u32,
    /// Items.
    pub num_items: u32,
    /// Ratings.
    pub num_ratings: usize,
    /// Node count (users are spread in cohorts, 12–13 each in the paper).
    pub nodes: usize,
    /// Epoch budget.
    pub epochs: usize,
    /// Raw points shared per epoch (paper: 40).
    pub points_per_epoch: usize,
    /// Minibatch steps per epoch.
    pub steps_per_epoch: usize,
    /// Base seed.
    pub seed: u64,
}

impl DnnScale {
    /// Quick: 80 users over 16 nodes, sized for single-core CI machines.
    #[must_use]
    pub fn quick(args: &BenchArgs) -> Self {
        let nodes = args.nodes.unwrap_or(16);
        DnnScale {
            num_users: 80,
            num_items: 1_200,
            num_ratings: 13_000,
            nodes,
            epochs: args.epochs.unwrap_or(30),
            points_per_epoch: 40,
            steps_per_epoch: 4,
            seed: args.seed,
        }
    }

    /// Paper scale: 610 users over 50 nodes, MovieLens-latest shape.
    #[must_use]
    pub fn full(args: &BenchArgs) -> Self {
        DnnScale {
            num_users: 610,
            num_items: 9_000,
            num_ratings: 100_000,
            nodes: args.nodes.unwrap_or(50),
            epochs: args.epochs.unwrap_or(80),
            points_per_epoch: 40,
            steps_per_epoch: 8,
            seed: args.seed,
        }
    }
}

/// Runs one (topology, sharing) arm with D-PSGD (the paper's DNN scheme).
pub fn run_dnn_arm(
    scale: &DnnScale,
    topology: TopologySpec,
    sharing: SharingMode,
) -> ExperimentTrace {
    let dataset = SyntheticConfig {
        num_users: scale.num_users,
        num_items: scale.num_items,
        num_ratings: scale.num_ratings,
        seed: scale.seed,
        ..SyntheticConfig::default()
    }
    .generate();
    let split = TrainTestSplit::standard(&dataset, scale.seed ^ 0x0D22);
    let partition = Partition::multi_user(&split, scale.nodes);
    let graph = topology.build(scale.nodes, scale.seed ^ 0x0777);
    let mut nodes = build_dnn_nodes(
        &partition,
        &graph,
        dataset.num_users,
        dataset.num_items,
        DnnHyperParams::default(),
        ProtocolConfig {
            sharing,
            algorithm: GossipAlgorithm::DPsgd,
            points_per_epoch: scale.points_per_epoch,
            steps_per_epoch: scale.steps_per_epoch,
            seed: scale.seed ^ 0x0883,
            ..ProtocolConfig::default()
        },
        Scenario::default().model_seed,
    );
    let name = format!("{}, D-PSGD, {}", sharing.label(), topology.label());
    let cfg = EngineConfig {
        epochs: scale.epochs,
        execution: ExecutionMode::Native,
        ..EngineConfig::default()
    };
    Engine::new(MemNetwork::new(nodes.len()), cfg)
        .run(&name, &mut nodes)
        .trace
}

/// Runs all four Fig 5 arms: {SW, ER} × {REX, MS}.
pub fn run_fig5(scale: &DnnScale) -> Vec<ExperimentTrace> {
    let mut out = Vec::with_capacity(4);
    for topology in [TopologySpec::SmallWorld, TopologySpec::ErdosRenyi] {
        for sharing in [SharingMode::RawData, SharingMode::Model] {
            eprintln!("[fig5] running {} {}", topology.label(), sharing.label());
            out.push(run_dnn_arm(scale, topology, sharing));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_dnn_arm_runs() {
        let scale = DnnScale {
            num_users: 24,
            num_items: 100,
            num_ratings: 1_500,
            nodes: 6,
            epochs: 3,
            points_per_epoch: 20,
            steps_per_epoch: 2,
            seed: 5,
        };
        let trace = run_dnn_arm(&scale, TopologySpec::Ring, SharingMode::RawData);
        assert_eq!(trace.records.len(), 3);
        assert!(trace.final_rmse().unwrap().is_finite());
    }
}
