//! Chaos scenario suite: REX under packet loss, flash partitions,
//! asymmetric links, and node churn.
//!
//! The paper evaluates REX on a fully reliable fabric; these tests pin
//! down how the protocol degrades when the fabric misbehaves — and that
//! the degradation itself is *deterministic*. Every scenario drives the
//! generic engine with a seeded [`FaultPlan`] in its config, which
//! wraps every node's endpoint in the fault layer:
//!
//! * the same plan replays **bit-for-bit** across reruns (per-epoch
//!   delivered/dropped counts included), because every per-message fate
//!   is a pure hash of `(seed, link, message index)`;
//! * both backends (mem/TCP), split into node threads or not, under the
//!   same plan stay **bit-identical** — the fault layer composes above the backends
//!   and below the engine's canonical ordering;
//! * raw-data sharing keeps converging under heavy degradation: the
//!   envelopes asserted here are the suite's regression contract.
//!
//! Raw-data sharing is naturally loss-tolerant: a dropped batch only
//! delays store growth, and D-PSGD's Metropolis–Hastings merge
//! renormalizes the self-weight over whatever actually arrived.

use rex_repro::core::builder::Scenario;
use rex_repro::core::config::ExecutionMode;
use rex_repro::core::engine::{Driver, Engine, EngineConfig, EngineResult, TimeAxis};
use rex_repro::core::membership::MembershipPlan;
use rex_repro::core::Node;
use rex_repro::data::SyntheticConfig;
use rex_repro::ml::MfModel;
use rex_repro::net::fault::{FaultPlan, LinkFaults};
use rex_repro::net::{MemNetwork, TcpTransport, Transport};
use rex_repro::tee::SgxCostModel;
use rex_repro::topology::{alive_connected, repair_after_crashes, TopologySpec};

/// Builds an `n`-node REX fleet (raw-data sharing, D-PSGD) over a
/// small-world overlay, scaled so every node holds a couple of users.
fn fleet(n: usize, epoch_points: usize) -> Vec<Node<MfModel>> {
    let mut s = Scenario::two_users_per_node(n);
    s.protocol.points_per_epoch = epoch_points;
    s.build_fleet()
}

fn cfg(
    epochs: usize,
    execution: ExecutionMode,
    time: TimeAxis,
    driver: Driver,
    plan: &FaultPlan,
) -> EngineConfig {
    EngineConfig {
        epochs,
        execution,
        time,
        driver,
        processes_per_platform: 1,
        seed: 0xE0,
        faults: Some(plan.clone()),
        membership: None,
        trace_out: None,
    }
}

/// Runs a fleet over the fault-wrapped mem fabric (fabric scheduler,
/// simulated time).
fn run_mem(
    nodes: &mut [Node<MfModel>],
    epochs: usize,
    execution: ExecutionMode,
    plan: &FaultPlan,
) -> EngineResult {
    Engine::<MfModel, _>::new(
        MemNetwork::new(nodes.len()),
        cfg(
            epochs,
            execution,
            TimeAxis::Simulated(Default::default()),
            Driver::WorkSteal { workers: 2 },
            plan,
        ),
    )
    .run("mem", nodes)
}

/// Runs a fleet over the fault-wrapped mem fabric split into one OS
/// thread per node.
fn run_threads(
    nodes: &mut [Node<MfModel>],
    epochs: usize,
    execution: ExecutionMode,
    plan: &FaultPlan,
) -> EngineResult {
    Engine::<MfModel, _>::new(
        MemNetwork::new(nodes.len()),
        cfg(
            epochs,
            execution,
            TimeAxis::Wall,
            Driver::ThreadPerNode,
            plan,
        ),
    )
    .run("threads", nodes)
}

/// Runs a fleet over fault-wrapped real loopback TCP sockets (inline
/// fabric scheduler: every frame still crosses the kernel).
fn run_tcp(
    nodes: &mut [Node<MfModel>],
    epochs: usize,
    execution: ExecutionMode,
    plan: &FaultPlan,
) -> EngineResult {
    Engine::<MfModel, _>::new(
        TcpTransport::loopback(nodes.len()).expect("loopback fabric"),
        cfg(
            epochs,
            execution,
            TimeAxis::Wall,
            Driver::WorkSteal { workers: 1 },
            plan,
        ),
    )
    .run("tcp", nodes)
}

/// Asserts two runs of the same plan are bit-identical in everything a
/// fault scenario can influence: per-epoch RMSE, byte means, liveness,
/// and the delivered/dropped/late/duplicated counters.
fn assert_same_degradation(a: &EngineResult, b: &EngineResult) {
    assert_eq!(a.trace.records.len(), b.trace.records.len());
    for (x, y) in a.trace.records.iter().zip(&b.trace.records) {
        assert_eq!(
            x.rmse.to_bits(),
            y.rmse.to_bits(),
            "epoch {}: rmse diverged: {} vs {}",
            x.epoch,
            x.rmse,
            y.rmse
        );
        assert_eq!(
            x.bytes_per_node.to_bits(),
            y.bytes_per_node.to_bits(),
            "epoch {}: byte means diverged",
            x.epoch
        );
        assert_eq!(x.live_nodes, y.live_nodes, "epoch {}: liveness", x.epoch);
        assert_eq!(x.delivery, y.delivery, "epoch {}: delivery", x.epoch);
    }
    assert_eq!(a.final_stats, b.final_stats, "traffic counters diverged");
}

const HEADLINE_NODES: usize = 32;
const HEADLINE_EPOCHS: usize = 10;

/// The headline acceptance plan: 10% uniform packet loss plus two
/// crash-stop nodes out of 32.
fn headline_plan() -> FaultPlan {
    FaultPlan::uniform(0xC4A05, LinkFaults::drop_rate(0.10))
        .with_crash(5, 3, None)
        .with_crash(17, 5, None)
}

/// Pinned convergence envelope for the headline scenario. The clean run
/// of this 32-node fleet ends 10 epochs at RMSE ≈ 0.607; with 10% loss
/// and 2 crashes it degrades to ≈ 0.622. The envelope allows a few
/// percent of slack on top — a regression past it means fault tolerance
/// broke (crashed-node aggregation, loss-tolerant merging, or store
/// growth under drops).
const HEADLINE_RMSE_ENVELOPE: f64 = 0.65;

#[test]
fn headline_loss_and_crashes_converge_on_all_backends() {
    let plan = headline_plan();

    let mut mem_nodes = fleet(HEADLINE_NODES, 40);
    let mem = run_mem(
        &mut mem_nodes,
        HEADLINE_EPOCHS,
        ExecutionMode::Native,
        &plan,
    );

    let mut split_nodes = fleet(HEADLINE_NODES, 40);
    let split = run_threads(
        &mut split_nodes,
        HEADLINE_EPOCHS,
        ExecutionMode::Native,
        &plan,
    );

    let mut tcp_nodes = fleet(HEADLINE_NODES, 40);
    let tcp = run_tcp(
        &mut tcp_nodes,
        HEADLINE_EPOCHS,
        ExecutionMode::Native,
        &plan,
    );

    // Degradation is bit-identical across backends and drivers.
    assert_same_degradation(&mem, &split);
    assert_same_degradation(&mem, &tcp);

    // Liveness accounting follows the crash schedule.
    let live: Vec<usize> = mem.trace.records.iter().map(|r| r.live_nodes).collect();
    let expected: Vec<usize> = (0..HEADLINE_EPOCHS)
        .map(|e| HEADLINE_NODES - usize::from(e >= 3) - usize::from(e >= 5))
        .collect();
    assert_eq!(live, expected);

    // The fabric really dropped traffic (10% of ~6 msgs/node/epoch).
    let total = mem.trace.total_delivery();
    assert!(
        total.dropped > 50,
        "10% loss dropped only {} messages",
        total.dropped
    );
    assert!(total.delivered > 5 * total.dropped);

    // And REX still converges below the pinned envelope.
    let first = mem.trace.records.first().unwrap().rmse;
    let last = mem.trace.final_rmse().unwrap();
    assert!(last < first, "no learning under faults: {first} -> {last}");
    assert!(
        last < HEADLINE_RMSE_ENVELOPE,
        "degraded convergence {last} blew the envelope {HEADLINE_RMSE_ENVELOPE}"
    );
}

#[test]
fn headline_plan_replays_bitwise_across_reruns() {
    let plan = headline_plan();
    let mut a_nodes = fleet(HEADLINE_NODES, 40);
    let a = run_mem(&mut a_nodes, HEADLINE_EPOCHS, ExecutionMode::Native, &plan);
    let mut b_nodes = fleet(HEADLINE_NODES, 40);
    let b = run_mem(&mut b_nodes, HEADLINE_EPOCHS, ExecutionMode::Native, &plan);
    assert_same_degradation(&a, &b);

    // A different seed re-rolls the per-message fates: same rates, a
    // different realization.
    let reseeded = FaultPlan {
        seed: 0xBEEF,
        ..headline_plan()
    };
    let mut c_nodes = fleet(HEADLINE_NODES, 40);
    let c = run_mem(
        &mut c_nodes,
        HEADLINE_EPOCHS,
        ExecutionMode::Native,
        &reseeded,
    );
    assert_ne!(
        a.trace.total_delivery().dropped,
        c.trace.total_delivery().dropped,
        "reseeding changed nothing — fates are not seed-keyed"
    );
}

#[test]
#[ignore = "widest sweep (4 full 16-node runs); CI runs it via `cargo test --test chaos -- --ignored`"]
fn packet_loss_sweep_degrades_gracefully() {
    // Convergence-under-loss envelopes: RMSE after 8 epochs at each loss
    // level. The clean 16-node run lands at ≈ 0.6475; raw-data sharing
    // is naturally loss-tolerant (a dropped batch only delays store
    // growth), so even 60% loss costs well under 1% — the envelopes pin
    // that property.
    let sweep = [(0.0, 0.66), (0.10, 0.66), (0.30, 0.66), (0.60, 0.67)];
    let mut deliveries = Vec::new();
    let mut finals = Vec::new();
    for &(drop, envelope) in &sweep {
        let plan = FaultPlan::uniform(11, LinkFaults::drop_rate(drop));
        let mut nodes = fleet(16, 40);
        let result = run_mem(&mut nodes, 8, ExecutionMode::Native, &plan);
        let first = result.trace.records.first().unwrap().rmse;
        let last = result.trace.final_rmse().unwrap();
        assert!(
            last < first,
            "no learning at {drop} loss: {first} -> {last}"
        );
        assert!(
            last < envelope,
            "drop {drop}: final rmse {last} blew envelope {envelope}"
        );
        deliveries.push(result.trace.total_delivery());
        finals.push(last);
    }
    // Delivered counts fall monotonically with the loss rate; dropped
    // counts rise.
    for pair in deliveries.windows(2) {
        assert!(
            pair[1].delivered < pair[0].delivered,
            "delivered did not fall: {pair:?}"
        );
        assert!(
            pair[1].dropped > pair[0].dropped,
            "dropped did not rise: {pair:?}"
        );
    }
    assert_eq!(deliveries[0].dropped, 0, "0% loss must drop nothing");
}

#[test]
fn flash_partition_heals_and_convergence_recovers() {
    // Epochs 3..5: the overlay is cut into {0..8} vs {8..16}; afterwards
    // it heals completely.
    let plan = FaultPlan::default().with_partition(3, 5, (0..8).collect());
    let mut nodes = fleet(16, 40);
    let result = run_mem(&mut nodes, 10, ExecutionMode::Native, &plan);

    for r in &result.trace.records {
        let in_partition = (3..5).contains(&r.epoch);
        assert_eq!(
            r.delivery.dropped > 0,
            in_partition,
            "epoch {}: dropped={} (partition active: {in_partition})",
            r.epoch,
            r.delivery.dropped
        );
        assert_eq!(r.live_nodes, 16, "partitions do not kill nodes");
    }
    // Clean 16-node runs land at ≈ 0.6475 after 8 epochs; healing must
    // bring the partitioned run back to the same neighbourhood.
    let last = result.trace.final_rmse().unwrap();
    assert!(
        last < 0.66,
        "post-heal convergence {last} blew the envelope"
    );
}

#[test]
fn coordinated_churn_wave_tracks_liveness_and_recovers() {
    // Two waves: nodes 2,3,4 down for epochs 2..5, nodes 8,9 down for
    // epochs 4..7.
    let plan = FaultPlan::default()
        .with_crash(2, 2, Some(5))
        .with_crash(3, 2, Some(5))
        .with_crash(4, 2, Some(5))
        .with_crash(8, 4, Some(7))
        .with_crash(9, 4, Some(7));
    let mut nodes = fleet(16, 40);
    let result = run_mem(&mut nodes, 10, ExecutionMode::Native, &plan);

    let live: Vec<usize> = result.trace.records.iter().map(|r| r.live_nodes).collect();
    assert_eq!(live, vec![16, 16, 13, 13, 11, 14, 14, 16, 16, 16]);

    // Every node — including the ones that churned — ends the run with a
    // trained model and a grown store.
    for node in &nodes {
        assert!(node.local_rmse().is_some());
        assert!(!node.store().is_empty());
    }
    // Observed ≈ 0.6479 — within a hair of the clean run's 0.6475.
    let last = result.trace.final_rmse().unwrap();
    assert!(last < 0.66, "churned fleet failed to recover: {last}");
}

#[test]
fn asymmetric_lossy_link_starves_one_direction_exactly() {
    // 4 fully connected nodes; the 0 -> 1 direction loses everything,
    // 1 -> 0 is untouched. With D-PSGD every node sends to all 3 peers
    // every epoch: 12 messages per epoch, of which exactly one dies.
    let epochs = 8;
    let plan = FaultPlan::default().with_link(0, 1, LinkFaults::drop_rate(1.0));
    let mut s = Scenario {
        dataset: SyntheticConfig {
            num_users: 12,
            num_items: 100,
            num_ratings: 600,
            seed: 2,
            ..SyntheticConfig::default()
        },
        split_seed: 3,
        nodes: 4,
        ..Scenario::default()
    };
    s.protocol.points_per_epoch = 20;
    s.protocol.steps_per_epoch = 60;
    s.protocol.seed = 3;
    let mut nodes = s.build_fleet();
    let result = run_mem(&mut nodes, epochs, ExecutionMode::Native, &plan);

    for r in &result.trace.records {
        assert_eq!(r.delivery.dropped, 1, "epoch {}: exactly one loss", r.epoch);
        assert_eq!(r.delivery.delivered, 11, "epoch {}", r.epoch);
    }
    // Node 1 hears from only 2 peers; node 0 still hears from all 3.
    assert_eq!(result.final_stats[1].msgs_in, 2 * epochs as u64);
    assert_eq!(result.final_stats[0].msgs_in, 3 * epochs as u64);
    // TrafficStats record what the fabric carried end-to-end: the killed
    // 0 -> 1 message is accounted at *neither* end (the DeliveryStats
    // above are where losses are visible), so node 0 books 2 sends per
    // epoch and everyone else the full 3.
    assert_eq!(result.final_stats[0].msgs_out, 2 * epochs as u64);
    for stats in &result.final_stats[1..] {
        assert_eq!(stats.msgs_out, 3 * epochs as u64);
    }
}

#[test]
fn never_alive_node_is_pruned_and_sgx_still_attests() {
    // Node 3 is dead for the whole run. In SGX mode this exercises the
    // crash-aware setup path: no edge touching node 3 is attested, its
    // neighbours renormalize their degrees, and sealing works for every
    // surviving pair.
    let plan = FaultPlan::default().with_crash(3, 0, None);
    let mut nodes = fleet(8, 40);
    let neighbor_of_3: Vec<usize> = nodes
        .iter()
        .filter(|n| n.neighbors().contains(&3))
        .map(|n| n.id())
        .collect();
    assert!(!neighbor_of_3.is_empty(), "scenario needs node 3 wired in");

    let result = run_mem(
        &mut nodes,
        6,
        ExecutionMode::Sgx(SgxCostModel::default()),
        &plan,
    );
    assert!(result.setup_ns > 0);
    for r in &result.trace.records {
        assert_eq!(r.live_nodes, 7);
    }
    // The dead node was pruned from every neighbour list before setup...
    for node in &nodes {
        assert!(
            node.id() == 3 || !node.neighbors().contains(&3),
            "node {} still lists the dead node",
            node.id()
        );
    }
    // ...so it neither sent nor received a single protocol byte.
    assert_eq!(result.final_stats[3].msgs_in, 0);
    assert_eq!(result.final_stats[3].msgs_out, 0);

    // Overlay repair keeps the survivors connected (the membership-layer
    // counterpart the chaos scenarios rely on).
    let graph = TopologySpec::SmallWorld.build(8, 5);
    let mut dead = vec![false; 8];
    dead[3] = true;
    let repaired = repair_after_crashes(&graph, &dead, 99);
    assert!(alive_connected(&repaired, &dead));
}

#[test]
fn deployed_cluster_replays_delay_plan_bit_identically_with_engine() {
    // The deployed node loop runs *two* wire barriers per epoch (drain +
    // post-send) where the engine's thread driver runs one; held
    // (delayed/reordered) messages must be released only at the
    // post-send barrier or the cluster diverges from the engine and
    // races slow peers' drains. This pins the deployed loop to the
    // engine bit-for-bit under a delay-heavy plan.
    use rex_repro::node::{build_fleet, run_cluster_in_process, ClusterConfig};
    let plan = FaultPlan::uniform(
        5,
        LinkFaults {
            drop: 0.10,
            delay: 0.30,
            duplicate: 0.10,
            reorder: 0.20,
        },
    );
    let cfg = ClusterConfig {
        nodes: (0..4).map(|i| format!("127.0.0.1:{}", 7501 + i)).collect(),
        epochs: 6,
        faults: Some(plan.clone()),
        membership: None,
        ..ClusterConfig::default()
    };
    let summaries = run_cluster_in_process(&cfg).expect("in-process cluster");

    let mut nodes = build_fleet(&cfg);
    let result = Engine::<MfModel, _>::new(
        MemNetwork::new(cfg.num_nodes()),
        EngineConfig {
            epochs: cfg.epochs,
            execution: ExecutionMode::Native,
            time: TimeAxis::Wall,
            driver: Driver::ThreadPerNode,
            processes_per_platform: cfg.processes_per_platform,
            seed: cfg.infra_seed,
            faults: Some(plan),
            membership: None,
            trace_out: None,
        },
    )
    .run("engine-reference", &mut nodes);

    // The plan actually exercised the held-message machinery.
    let total = result.trace.total_delivery();
    assert!(total.late > 0 && total.duplicated > 0 && total.dropped > 0);

    for (summary, node) in summaries.iter().zip(&nodes) {
        assert_eq!(
            summary.final_rmse_bits,
            node.local_rmse().map(f64::to_bits),
            "node {}: cluster diverged from engine under delay plan",
            summary.id
        );
        assert_eq!(summary.store_len, node.store().len());
        assert_eq!(summary.stats, result.final_stats[summary.id]);
    }
}

/// Audit-under-churn: the verifiable-epochs commitment root must stay
/// auditable while the membership view *and* the fabric both misbehave.
///
/// The aggregate root folds every live node's signed model commitment in
/// node order, so it is the single value an external auditor checks per
/// epoch. This scenario runs a join/join/leave schedule under 10% packet
/// loss and asserts the per-epoch roots are (a) bit-identical across
/// mem/TCP backends, worker counts and reruns, (b) never zero — a membership
/// transition must not produce an epoch with no attested commitments —
/// and (c) pairwise distinct across epochs, because models keep moving
/// and the root binds their exact wire bytes.
#[test]
fn audit_roots_survive_churn_and_loss_on_all_backends() {
    const NODES: usize = 8;
    const EPOCHS: usize = 8;
    let faults = FaultPlan::uniform(0xA0D1, LinkFaults::drop_rate(0.10));
    let membership = MembershipPlan {
        seed: 0x11,
        bootstrap_points: 30,
        ..MembershipPlan::default()
    }
    .with_join(6, 2, None)
    .with_join(7, 4, Some(1))
    .with_leave(2, 6);

    fn run_churn<T: Transport>(
        transport: T,
        time: TimeAxis,
        driver: Driver,
        faults: &FaultPlan,
        membership: &MembershipPlan,
    ) -> EngineResult {
        let mut nodes = fleet(8, 40);
        Engine::<MfModel, T>::new(
            transport,
            EngineConfig {
                epochs: 8,
                execution: ExecutionMode::Native,
                time,
                driver,
                processes_per_platform: 1,
                seed: 0xE0,
                faults: Some(faults.clone()),
                membership: Some(membership.clone()),
                trace_out: None,
            },
        )
        .run("audit-churn", &mut nodes)
    }

    let roots = |r: &EngineResult| -> Vec<[u8; 32]> {
        r.trace.records.iter().map(|e| e.commitment_root).collect()
    };

    let mem = run_churn(
        MemNetwork::new(NODES),
        TimeAxis::Simulated(Default::default()),
        Driver::WorkSteal { workers: 4 },
        &faults,
        &membership,
    );
    let tcp = run_churn(
        TcpTransport::loopback(NODES).expect("loopback fabric"),
        TimeAxis::Wall,
        Driver::WorkSteal { workers: 1 },
        &faults,
        &membership,
    );
    let rerun = run_churn(
        MemNetwork::new(NODES),
        TimeAxis::Simulated(Default::default()),
        Driver::WorkSteal { workers: 5 },
        &faults,
        &membership,
    );

    // (a) One auditable root stream, regardless of fabric or scheduler.
    let reference = roots(&mem);
    assert_eq!(reference.len(), EPOCHS);
    assert_eq!(reference, roots(&tcp), "tcp roots diverged");
    assert_eq!(reference, roots(&rerun), "rerun roots diverged");

    // (b) Every epoch stays attested through joins and the leave.
    assert!(
        reference.iter().all(|r| r != &[0u8; 32]),
        "an epoch lost its commitment root under churn"
    );
    // (c) Roots are distinct epoch to epoch: they bind the evolving
    // model bytes, the live set, and the epoch index.
    for (i, a) in reference.iter().enumerate() {
        for b in reference.iter().skip(i + 1) {
            assert_ne!(a, b, "two epochs produced the same root");
        }
    }

    // The churn schedule actually ran: 6 founders, +1 at epoch 2, +1 at
    // epoch 4, -1 at epoch 6 — and the loss plan actually dropped.
    let live: Vec<usize> = mem.trace.records.iter().map(|r| r.live_nodes).collect();
    assert_eq!(live, vec![6, 6, 7, 7, 8, 8, 7, 7]);
    assert!(
        mem.trace.total_delivery().dropped > 0,
        "loss plan was inert"
    );
}

#[test]
fn delay_and_duplicate_fabric_still_converges_bit_reproducibly() {
    // A nastier mix: late and duplicated messages on every link. Raw
    // batches arriving twice are deduplicated by the store; batches
    // arriving a round late still grow it.
    let plan = FaultPlan::uniform(
        21,
        LinkFaults {
            drop: 0.05,
            delay: 0.15,
            duplicate: 0.10,
            reorder: 0.10,
        },
    );
    let mut a_nodes = fleet(12, 40);
    let a = run_mem(&mut a_nodes, 8, ExecutionMode::Native, &plan);
    let mut b_nodes = fleet(12, 40);
    let b = run_mem(&mut b_nodes, 8, ExecutionMode::Native, &plan);
    assert_same_degradation(&a, &b);

    let total = a.trace.total_delivery();
    assert!(total.late > 0, "no message was ever delayed");
    assert!(total.duplicated > 0, "no message was ever duplicated");
    assert!(total.dropped > 0);
    // Observed ≈ 0.6077 on this 12-node fleet (clean ≈ 0.6075).
    let last = a.trace.final_rmse().unwrap();
    assert!(last < 0.63, "delay/duplicate mix broke convergence: {last}");
}
