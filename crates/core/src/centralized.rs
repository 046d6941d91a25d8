//! Centralized baseline (the paper's dashed reference line in Figs 1, 2,
//! 4): one model trained on the full dataset, no network.
//!
//! This is the [`Engine`] on a one-node fleet: a single node with no
//! neighbours, whose merge and share stages are no-ops (nothing arrives,
//! nobody to send to), leaving exactly the paper's baseline loop —
//! `steps_per_epoch` SGD steps then an RMSE measurement per epoch, inline
//! (a one-worker [`Driver::WorkSteal`]) on the simulated
//! (measured-compute) time axis over infinite links. [`run_baseline`] wraps that construction.

use crate::config::{GossipAlgorithm, ProtocolConfig, SharingMode};
use crate::engine::{Driver, Engine, EngineConfig, TimeAxis};
use crate::node::Node;
use rex_data::Rating;
use rex_ml::Model;
use rex_net::link::LinkModel;
use rex_net::mem::MemNetwork;
use rex_sim::trace::ExperimentTrace;

/// Runs the centralized baseline for `epochs` epochs of `steps_per_epoch`
/// training steps and returns its trace (time axis = measured compute).
///
/// `model` is trained in place, exactly as if the caller had run the SGD
/// loop directly.
pub fn run_baseline<M: Model>(
    name: &str,
    model: &mut M,
    train: &[Rating],
    test: &[Rating],
    steps_per_epoch: usize,
    epochs: usize,
    seed: u64,
) -> ExperimentTrace {
    let node = Node::builder(0, model.clone())
        // no neighbours: share/merge are no-ops
        .train(train.to_vec())
        .test(test.to_vec())
        .protocol(ProtocolConfig {
            sharing: SharingMode::RawData,
            algorithm: GossipAlgorithm::DPsgd,
            points_per_epoch: 0,
            steps_per_epoch,
            seed,
            ..ProtocolConfig::default()
        })
        .build();
    let mut nodes = vec![node];
    let cfg = EngineConfig {
        epochs,
        time: TimeAxis::Simulated(LinkModel::infinite()),
        driver: Driver::WorkSteal { workers: 1 },
        seed,
        ..EngineConfig::default()
    };
    let mut result = Engine::new(MemNetwork::new(1), cfg).run(name, &mut nodes);
    *model = nodes.pop().expect("one node").into_model();
    // The baseline's RAM column means "the model" (the node-level figure
    // would also count the whole training set living in the single node's
    // store, which no decentralized arm pays as one block).
    for record in &mut result.trace.records {
        record.ram_bytes = model.memory_bytes() as f64;
    }
    result.trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_data::{SyntheticConfig, TrainTestSplit};
    use rex_ml::{MfHyperParams, MfModel};

    #[test]
    fn baseline_converges_and_moves_no_bytes() {
        let ds = SyntheticConfig {
            num_users: 40,
            num_items: 200,
            num_ratings: 3_000,
            seed: 9,
            ..SyntheticConfig::default()
        }
        .generate();
        let split = TrainTestSplit::standard(&ds, 0);
        let mut model = MfModel::new(40, 200, MfHyperParams::default(), 3.5, 0);
        let trace = run_baseline(
            "Centralized",
            &mut model,
            &split.train,
            &split.test,
            split.train.len(),
            20,
            1,
        );
        assert_eq!(trace.records.len(), 20);
        let first = trace.records.first().unwrap().rmse;
        let last = trace.final_rmse().unwrap();
        assert!(last < first - 0.05, "{first} -> {last}");
        assert_eq!(trace.total_bytes_per_node(), 0.0);
    }

    #[test]
    fn caller_model_is_trained_in_place() {
        let ds = SyntheticConfig {
            num_users: 10,
            num_items: 40,
            num_ratings: 300,
            seed: 4,
            ..SyntheticConfig::default()
        }
        .generate();
        let split = TrainTestSplit::standard(&ds, 0);
        let mut model = MfModel::new(10, 40, MfHyperParams::default(), 3.5, 0);
        let untrained = model.clone();
        run_baseline("c", &mut model, &split.train, &split.test, 200, 3, 1);
        assert_ne!(
            model.to_bytes(),
            untrained.to_bytes(),
            "model not written back"
        );
    }
}
