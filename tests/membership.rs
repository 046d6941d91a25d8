//! Dynamic-membership acceptance suite: epoch-scoped views, online
//! joins with attested state bootstrap, and graceful leaves with live
//! topology rewiring — held bit-identical across **every driver ×
//! backend** combination (fabric-scheduler worker counts and one thread
//! per node), native and SGX, with and without fault plans.
//!
//! The deployed equivalent (a fifth OS process dialing a running
//! 4-process TCP cluster) lives in `tests/tcp_cluster.rs`; the pinned
//! trace lives in `tests/golden_trace.rs` (`golden_membership`).

use rex_repro::core::builder::Scenario;
use rex_repro::core::config::{ExecutionMode, SharingMode};
use rex_repro::core::engine::{Driver, Engine, EngineConfig, EngineResult, TimeAxis};
use rex_repro::core::membership::MembershipPlan;
use rex_repro::core::Node;
use rex_repro::ml::MfModel;
use rex_repro::net::fault::{FaultPlan, LinkFaults};
use rex_repro::net::{MemNetwork, TcpTransport, Transport};
use rex_repro::tee::SgxCostModel;

const N: usize = 8;
const EPOCHS: usize = 8;

/// 6 founders on a small world over 8 ids; node 6 joins at epoch 2
/// (default sponsor), node 7 at epoch 4 (explicit sponsor 1); node 2
/// leaves at epoch 6.
fn churn_plan() -> MembershipPlan {
    MembershipPlan {
        seed: 0x11,
        bootstrap_points: 30,
        ..MembershipPlan::default()
    }
    .with_join(6, 2, None)
    .with_join(7, 4, Some(1))
    .with_leave(2, 6)
}

fn fleet(sharing: SharingMode) -> Vec<Node<MfModel>> {
    let mut s = Scenario::two_users_per_node(N);
    s.protocol.sharing = sharing;
    s.build_fleet()
}

fn config(
    driver: Driver,
    time: TimeAxis,
    execution: ExecutionMode,
    faults: Option<FaultPlan>,
) -> EngineConfig {
    EngineConfig {
        epochs: EPOCHS,
        execution,
        time,
        driver,
        processes_per_platform: 1,
        seed: 0xE0,
        faults,
        membership: Some(churn_plan()),
        trace_out: None,
    }
}

/// Runs the churn scenario over one combination, returning the result
/// and the trained fleet.
fn run_churn<T: Transport>(
    transport: T,
    driver: Driver,
    time: TimeAxis,
    execution: ExecutionMode,
    faults: Option<FaultPlan>,
) -> (EngineResult, Vec<Node<MfModel>>) {
    let mut nodes = fleet(SharingMode::RawData);
    let cfg = config(driver, time, execution, faults);
    let result = Engine::<MfModel, T>::new(transport, cfg).run("churn", &mut nodes);
    (result, nodes)
}

/// The fixture-relevant slice of a trace: per-epoch RMSE/byte bits,
/// liveness, delivery counters, final traffic.
fn signature(result: &EngineResult) -> Vec<String> {
    let mut sig: Vec<String> = result
        .trace
        .records
        .iter()
        .map(|r| {
            format!(
                "{}:{:#x}:{:#x}:{}:{}:{}:{}:{}",
                r.epoch,
                r.rmse.to_bits(),
                r.bytes_per_node.to_bits(),
                r.live_nodes,
                r.delivery.delivered,
                r.delivery.dropped,
                r.delivery.late,
                r.delivery.duplicated
            )
        })
        .collect();
    for (id, s) in result.final_stats.iter().enumerate() {
        sig.push(format!(
            "stats {id}: {} {} {} {}",
            s.bytes_out, s.bytes_in, s.msgs_out, s.msgs_in
        ));
    }
    sig
}

#[test]
fn churn_scenario_is_bit_identical_across_drivers_and_backends() {
    let sim = || TimeAxis::Simulated(Default::default());
    let (reference, _) = run_churn(
        MemNetwork::new(N),
        Driver::WorkSteal { workers: 1 },
        sim(),
        ExecutionMode::Native,
        None,
    );
    let want = signature(&reference);
    let combos: Vec<(&str, EngineResult)> = vec![
        (
            "mem/work-steal-5",
            run_churn(
                MemNetwork::new(N),
                Driver::WorkSteal { workers: 5 },
                sim(),
                ExecutionMode::Native,
                None,
            )
            .0,
        ),
        (
            "mem/work-steal",
            run_churn(
                MemNetwork::new(N),
                Driver::WorkSteal { workers: 4 },
                sim(),
                ExecutionMode::Native,
                None,
            )
            .0,
        ),
        (
            "tcp/work-steal-1",
            run_churn(
                TcpTransport::loopback(N).expect("loopback fabric"),
                Driver::WorkSteal { workers: 1 },
                TimeAxis::Wall,
                ExecutionMode::Native,
                None,
            )
            .0,
        ),
        (
            "tcp/work-steal",
            run_churn(
                TcpTransport::loopback(N).expect("loopback fabric"),
                Driver::WorkSteal { workers: 2 },
                TimeAxis::Wall,
                ExecutionMode::Native,
                None,
            )
            .0,
        ),
        (
            "mem/thread-per-node",
            run_churn(
                MemNetwork::new(N),
                Driver::ThreadPerNode,
                TimeAxis::Wall,
                ExecutionMode::Native,
                None,
            )
            .0,
        ),
        (
            "tcp/thread-per-node",
            run_churn(
                TcpTransport::loopback(N).expect("loopback fabric"),
                Driver::ThreadPerNode,
                TimeAxis::Wall,
                ExecutionMode::Native,
                None,
            )
            .0,
        ),
    ];
    for (combo, result) in &combos {
        assert_eq!(signature(result), want, "{combo} diverged from reference");
    }
}

#[test]
fn joiner_converges_and_leaver_detaches() {
    let (result, nodes) = run_churn(
        MemNetwork::new(N),
        Driver::WorkSteal { workers: 1 },
        TimeAxis::Simulated(Default::default()),
        ExecutionMode::Native,
        None,
    );

    // Liveness tracks the view: 6 founders, +1 at epoch 2, +1 at epoch
    // 4, -1 at epoch 6.
    let live: Vec<usize> = result.trace.records.iter().map(|r| r.live_nodes).collect();
    assert_eq!(live, vec![6, 6, 7, 7, 8, 8, 7, 7]);

    // The joiners converged into the gossip: they hold neighbours, their
    // stores grew past their initial (empty-join) state, and the
    // sponsor's bootstrap landed (store larger than local partition
    // alone can explain is covered by raw sharing; assert reception via
    // traffic).
    for joiner in [6, 7] {
        assert!(
            !nodes[joiner].neighbors().is_empty(),
            "joiner {joiner} wired into the overlay"
        );
        assert!(
            result.final_stats[joiner].msgs_in > 0,
            "joiner {joiner} received gossip"
        );
        assert!(
            result.final_stats[joiner].msgs_out > 0,
            "joiner {joiner} shared after joining"
        );
    }

    // The leaver is detached: no survivor still lists it.
    for (id, node) in nodes.iter().enumerate() {
        if id != 2 {
            assert!(
                !node.neighbors().contains(&2),
                "node {id} still lists the departed node"
            );
        }
    }
    // The surviving overlay stays connected (graceful leave repaired it).
    let overlay = rex_repro::core::setup::overlay_of(&nodes);
    let dead: Vec<bool> = (0..N).map(|v| v == 2).collect();
    assert!(
        rex_repro::topology::repair::alive_connected(&overlay, &dead),
        "survivor overlay disconnected after the leave"
    );

    // A member before joining contributes no RMSE: epoch 0 mean over 6
    // founders differs from a static 8-node run's epoch 0.
    assert!(result.trace.records[0].rmse.is_finite());
}

#[test]
fn bootstrap_grows_joiner_store_before_first_epoch() {
    // With bootstrapping on, the joiner's first-epoch inbox contains the
    // sponsor's raw shares; with it off, it starts from its local
    // partition only. Compare the two runs' joiner stores right after.
    let run = |points: usize| {
        let mut nodes = fleet(SharingMode::RawData);
        let mut cfg = config(
            Driver::WorkSteal { workers: 1 },
            TimeAxis::Simulated(Default::default()),
            ExecutionMode::Native,
            None,
        );
        cfg.epochs = 3; // one epoch past the first join
        cfg.membership = Some(
            MembershipPlan {
                seed: 0x11,
                bootstrap_points: points,
                ..MembershipPlan::default()
            }
            .with_join(6, 2, None),
        );
        let _ = Engine::<MfModel, MemNetwork>::new(MemNetwork::new(N), cfg)
            .run("bootstrap", &mut nodes);
        nodes[6].store().len()
    };
    let with = run(50);
    let without = run(0);
    assert!(
        with > without,
        "bootstrap did not grow the joiner's store ({with} vs {without})"
    );
}

#[test]
fn sgx_churn_installs_late_sessions_and_stays_bit_identical() {
    let sgx = ExecutionMode::Sgx(SgxCostModel::default());
    let (mem_result, nodes) = run_churn(
        MemNetwork::new(N),
        Driver::WorkSteal { workers: 1 },
        TimeAxis::Simulated(Default::default()),
        sgx,
        None,
    );
    // Joiners hold attested sessions with every current neighbour.
    let assert_sessions = |nodes: &[Node<MfModel>], driver: Driver| {
        for joiner in [6, 7] {
            for &peer in nodes[joiner].neighbors() {
                assert!(
                    nodes[joiner].has_session(peer),
                    "{driver:?}: joiner {joiner} lacks a session with neighbour {peer}"
                );
            }
        }
    };
    assert_sessions(&nodes, Driver::WorkSteal { workers: 1 });
    // SGX churn replays bit-identically on every other driver: each
    // node thread installs its late sessions from its own copy of the
    // view and the TEE directory.
    for driver in [Driver::WorkSteal { workers: 3 }, Driver::ThreadPerNode] {
        let (result, nodes) = run_churn(MemNetwork::new(N), driver, TimeAxis::Wall, sgx, None);
        assert_eq!(signature(&mem_result), signature(&result), "{driver:?}");
        assert_sessions(&nodes, driver);
    }
}

#[test]
fn membership_composes_with_fault_plans() {
    // A lossy fabric plus a crash window over the sponsor's join epoch:
    // the schedule still replays bit-for-bit across drivers, and the
    // delivery counters show real loss.
    let faults = FaultPlan::uniform(0xFA01, LinkFaults::drop_rate(0.15)).with_crash(3, 1, Some(4));
    let (a, _) = run_churn(
        MemNetwork::new(N),
        Driver::WorkSteal { workers: 1 },
        TimeAxis::Simulated(Default::default()),
        ExecutionMode::Native,
        Some(faults.clone()),
    );
    let (b, _) = run_churn(
        MemNetwork::new(N),
        Driver::WorkSteal { workers: 2 },
        TimeAxis::Wall,
        ExecutionMode::Native,
        Some(faults),
    );
    assert_eq!(signature(&a), signature(&b));
    let total = a.trace.total_delivery();
    assert!(total.dropped > 0, "no loss realized under a 15% drop plan");
}

#[test]
fn dropped_bootstrap_is_deterministic_not_fatal() {
    // A link override that destroys everything the default sponsor (node
    // 5, the joiner's lowest-id neighbour — asserted below) sends to the
    // joiner: the bootstrap is lost, the join still happens, and the run
    // replays bit-for-bit.
    let mut nodes = fleet(SharingMode::RawData);
    let plan = MembershipPlan {
        seed: 0x11,
        bootstrap_points: 50,
        ..MembershipPlan::default()
    }
    .with_join(6, 2, Some(0));
    let faults = FaultPlan::default().with_link(0, 6, LinkFaults::drop_rate(1.0));
    let mut cfg = config(
        Driver::WorkSteal { workers: 1 },
        TimeAxis::Simulated(Default::default()),
        ExecutionMode::Native,
        Some(faults.clone()),
    );
    cfg.membership = Some(plan);
    let run = |cfg: EngineConfig, nodes: &mut [Node<MfModel>]| {
        Engine::<MfModel, _>::new(MemNetwork::new(N), cfg).run("dropped-bootstrap", nodes)
    };
    let a = run(cfg.clone(), &mut nodes);
    let mut nodes_b = fleet(SharingMode::RawData);
    let b = run(cfg, &mut nodes_b);
    assert_eq!(signature(&a), signature(&b));
    assert!(
        a.trace.records[2].delivery.dropped > 0,
        "the bootstrap (and the sponsor's epoch shares) were dropped"
    );
    assert_eq!(nodes[6].store().len(), nodes_b[6].store().len());
}
