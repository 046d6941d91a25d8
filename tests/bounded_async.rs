//! The bounded-staleness driver's determinism contract.
//!
//! `Driver::BoundedAsync { k }` trades round fidelity for speed: a node
//! proceeds once ≥ k distinct neighbour shares arrived, and stragglers'
//! shares merge one epoch late under the canonical-order rule. In-process
//! the arrival model is drawn from the run seed, so the contract is:
//!
//! * fixed `(seed, k)` ⇒ a bit-identical trajectory, run to run;
//! * `k ≥ max degree` ⇒ no share is ever late ⇒ bit-identical to
//!   `Driver::Lockstep` — the conformance anchor that pins the staleness
//!   path onto the golden-traced synchronous semantics;
//! * smaller `k` ⇒ a genuinely different (but still deterministic)
//!   trajectory, with identical total traffic — staleness defers
//!   delivery, it does not drop or duplicate.

use rex_repro::core::builder::{build_mf_nodes, NodeSeeds};
use rex_repro::core::config::{ExecutionMode, GossipAlgorithm, ProtocolConfig, SharingMode};
use rex_repro::core::engine::{Driver, Engine, EngineConfig, EngineResult, TimeAxis};
use rex_repro::core::Node;
use rex_repro::data::{Partition, SyntheticConfig, TrainTestSplit};
use rex_repro::ml::{MfHyperParams, MfModel};
use rex_repro::net::MemNetwork;
use rex_repro::topology::TopologySpec;

const EPOCHS: usize = 8;
const NODES: usize = 8;

fn fleet() -> Vec<Node<MfModel>> {
    let ds = SyntheticConfig {
        num_users: 24,
        num_items: 160,
        num_ratings: 2_000,
        seed: 42,
        ..SyntheticConfig::default()
    }
    .generate();
    let split = TrainTestSplit::standard(&ds, 7);
    let part = Partition::multi_user(&split, NODES);
    let graph = TopologySpec::SmallWorld.build(NODES, 5);
    build_mf_nodes(
        &part,
        &graph,
        ds.num_users,
        ds.num_items,
        MfHyperParams::default(),
        ProtocolConfig {
            sharing: SharingMode::RawData,
            algorithm: GossipAlgorithm::DPsgd,
            points_per_epoch: 40,
            steps_per_epoch: 120,
            seed: 17,
            ..ProtocolConfig::default()
        },
        NodeSeeds::default(),
    )
}

fn run(driver: Driver, seed: u64) -> (EngineResult, Vec<Node<MfModel>>) {
    let mut nodes = fleet();
    let result = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(nodes.len()),
        EngineConfig {
            epochs: EPOCHS,
            execution: ExecutionMode::Native,
            time: TimeAxis::Simulated(Default::default()),
            driver,
            processes_per_platform: 1,
            seed,
            faults: None,
            membership: None,
        },
    )
    .run("bounded-async", &mut nodes);
    (result, nodes)
}

fn rmse_bits(r: &EngineResult) -> Vec<u64> {
    r.trace.records.iter().map(|e| e.rmse.to_bits()).collect()
}

#[test]
fn fixed_seed_and_k_is_bit_deterministic() {
    let (a, nodes_a) = run(Driver::BoundedAsync { k: 2 }, 0xE0);
    let (b, nodes_b) = run(Driver::BoundedAsync { k: 2 }, 0xE0);
    assert_eq!(rmse_bits(&a), rmse_bits(&b));
    assert_eq!(a.final_stats, b.final_stats);
    for (na, nb) in nodes_a.iter().zip(&nodes_b) {
        assert_eq!(
            na.local_rmse().map(f64::to_bits),
            nb.local_rmse().map(f64::to_bits),
            "node {} models diverged across identical runs",
            na.id()
        );
    }
}

#[test]
fn k_at_least_degree_degenerates_to_lockstep() {
    // Every node has ≤ NODES-1 neighbours, so k = NODES means no share
    // is ever deferred and the trajectory must be *bit-identical* to the
    // synchronous driver that the golden traces pin.
    let (lockstep, lock_nodes) = run(Driver::Lockstep, 0xE0);
    let (bounded, bounded_nodes) = run(Driver::BoundedAsync { k: NODES }, 0xE0);
    assert_eq!(rmse_bits(&lockstep), rmse_bits(&bounded));
    assert_eq!(lockstep.final_stats, bounded.final_stats);
    for (nl, nb) in lock_nodes.iter().zip(&bounded_nodes) {
        assert_eq!(
            nl.local_rmse().map(f64::to_bits),
            nb.local_rmse().map(f64::to_bits),
            "node {}: bounded-async with k ≥ degree must match lockstep",
            nl.id()
        );
    }
}

#[test]
fn small_k_changes_the_trajectory_but_not_the_traffic() {
    let (lockstep, _) = run(Driver::Lockstep, 0xE0);
    let (bounded, _) = run(Driver::BoundedAsync { k: 1 }, 0xE0);
    assert_ne!(
        rmse_bits(&lockstep),
        rmse_bits(&bounded),
        "k=1 on a degree-5 topology must defer shares and diverge"
    );
    // Deferral shifts *when* shares merge, never whether they were sent:
    // cumulative per-node traffic is unchanged.
    assert_eq!(lockstep.final_stats, bounded.final_stats);
}

#[test]
fn different_seeds_draw_different_arrival_orders() {
    let (a, _) = run(Driver::BoundedAsync { k: 2 }, 0xE0);
    let (b, _) = run(Driver::BoundedAsync { k: 2 }, 0xE1);
    assert_ne!(
        rmse_bits(&a),
        rmse_bits(&b),
        "the arrival model must be seed-dependent"
    );
}

#[test]
#[should_panic(expected = "does not compose")]
fn bounded_async_rejects_fault_plans() {
    let mut nodes = fleet();
    let n = nodes.len();
    Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(n),
        EngineConfig {
            epochs: 2,
            driver: Driver::BoundedAsync { k: 2 },
            faults: Some(rex_repro::net::FaultPlan {
                seed: 1,
                ..Default::default()
            }),
            ..Default::default()
        },
    )
    .run("rejects-faults", &mut nodes);
}
