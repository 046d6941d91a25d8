//! Integration: fixed seeds must yield bit-identical learning trajectories
//! (the basis for every comparison in the bench harness).

use rex_repro::core::builder::Scenario;
use rex_repro::core::config::{ExecutionMode, GossipAlgorithm, ProtocolConfig};
use rex_repro::core::engine::{Driver, Engine, EngineConfig};
use rex_repro::data::SyntheticConfig;
use rex_repro::ml::MfModel;
use rex_repro::net::mem::MemNetwork;
use rex_repro::topology::TopologySpec;

fn run_once(driver: Driver, seed: u64) -> Vec<(f64, f64)> {
    let mut nodes = Scenario {
        dataset: SyntheticConfig {
            num_users: 24,
            num_items: 300,
            num_ratings: 3_000,
            seed,
            ..SyntheticConfig::default()
        },
        split_seed: seed,
        nodes: 24,
        topology: TopologySpec::SmallWorld,
        topology_seed: seed,
        protocol: ProtocolConfig {
            algorithm: GossipAlgorithm::Rmw,
            points_per_epoch: 60,
            steps_per_epoch: 120,
            seed,
            ..ProtocolConfig::default()
        },
        ..Scenario::default()
    }
    .build_fleet();
    let trace = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(nodes.len()),
        EngineConfig {
            epochs: 15,
            execution: ExecutionMode::Native,
            driver,
            ..EngineConfig::default()
        },
    )
    .run("det", &mut nodes)
    .trace;
    trace
        .records
        .iter()
        .map(|r| (r.rmse, r.bytes_per_node))
        .collect()
}

#[test]
fn identical_seeds_identical_trajectories() {
    let a = run_once(Driver::WorkSteal { workers: 1 }, 99);
    let b = run_once(Driver::WorkSteal { workers: 1 }, 99);
    assert_eq!(a, b);
}

#[test]
fn parallel_execution_preserves_trajectory() {
    // Worker scheduling must not affect results: per-node RNGs,
    // deterministic message ordering.
    let seq = run_once(Driver::WorkSteal { workers: 1 }, 7);
    let par = run_once(Driver::WorkSteal { workers: 3 }, 7);
    assert_eq!(seq, par);
}

#[test]
fn different_seeds_differ() {
    let a = run_once(Driver::WorkSteal { workers: 1 }, 1);
    let b = run_once(Driver::WorkSteal { workers: 1 }, 2);
    assert_ne!(a, b);
}
