//! Cross-backend equivalence: the correctness oracle of the
//! Transport/Engine refactor.
//!
//! The same fixed-seed fleet must produce *identical* per-node RMSE
//! trajectories and byte counts whether it runs through the discrete-event
//! [`MemNetwork`] fabric (the inline fabric scheduler, simulated time), the
//! same fabric split into one real OS thread per node (wall-clock time),
//! or the [`TcpTransport`] fabric (real loopback sockets with
//! length-prefixed framing, either driver). Only the time axis may
//! differ. This holds because the engine hands every node its inbox in
//! canonical order (ascending sender id, per-sender FIFO) regardless of
//! physical arrival order, and because the TCP backend's wire barrier
//! makes message visibility deterministic despite real propagation delay.

use rex_repro::core::builder::Scenario;
use rex_repro::core::config::{ExecutionMode, GossipAlgorithm, SharingMode};
use rex_repro::core::engine::{Driver, Engine, EngineConfig, EngineResult, TimeAxis};
use rex_repro::core::Node;
use rex_repro::ml::MfModel;
use rex_repro::net::fault::FaultPlan;
use rex_repro::net::{MemNetwork, TcpTransport};
use rex_repro::tee::SgxCostModel;
use rex_repro::topology::TopologySpec;

const EPOCHS: usize = 10;

/// The default cluster's fleet (8 nodes of 3 users) on a small world.
fn fleet(sharing: SharingMode, algorithm: GossipAlgorithm) -> Vec<Node<MfModel>> {
    let mut s = Scenario {
        topology: TopologySpec::SmallWorld,
        ..Scenario::default()
    };
    s.protocol.sharing = sharing;
    s.protocol.algorithm = algorithm;
    s.build_fleet()
}

fn engine_config(execution: ExecutionMode, time: TimeAxis, driver: Driver) -> EngineConfig {
    EngineConfig {
        epochs: EPOCHS,
        execution,
        time,
        driver,
        processes_per_platform: 1, // identical platform packing on both sides
        seed: 0xE0,
        faults: None,
        membership: None,
        trace_out: None,
    }
}

/// Runs one fleet through the simulator fabric, another identical fleet
/// through the same fabric split across real threads, and returns both
/// results plus the final node states.
#[allow(clippy::type_complexity)]
fn run_both(
    execution: ExecutionMode,
) -> (
    (EngineResult, Vec<Node<MfModel>>),
    (EngineResult, Vec<Node<MfModel>>),
) {
    let mut sim_nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
    let sim = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(sim_nodes.len()),
        engine_config(
            execution,
            TimeAxis::Simulated(Default::default()),
            Driver::WorkSteal { workers: 1 },
        ),
    )
    .run("sim", &mut sim_nodes);

    let mut threaded_nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
    let threaded = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(threaded_nodes.len()),
        engine_config(execution, TimeAxis::Wall, Driver::ThreadPerNode),
    )
    .run("threads", &mut threaded_nodes);

    ((sim, sim_nodes), (threaded, threaded_nodes))
}

fn assert_equivalent(
    (sim, sim_nodes): &(EngineResult, Vec<Node<MfModel>>),
    (threaded, threaded_nodes): &(EngineResult, Vec<Node<MfModel>>),
) {
    // Per-epoch fleet RMSE and byte means: bit-identical.
    assert_eq!(sim.trace.records.len(), threaded.trace.records.len());
    for (s, t) in sim.trace.records.iter().zip(&threaded.trace.records) {
        assert_eq!(
            s.rmse.to_bits(),
            t.rmse.to_bits(),
            "epoch {}: rmse diverged: sim {} vs threads {}",
            s.epoch,
            s.rmse,
            t.rmse
        );
        assert_eq!(
            s.bytes_per_node.to_bits(),
            t.bytes_per_node.to_bits(),
            "epoch {}: byte means diverged",
            s.epoch
        );
        // The verifiable-epochs contract rides on the same determinism:
        // the aggregate commitment root folds every live node's chained
        // model digest and HMAC tag in node order, so root equality means
        // every per-node commitment matched bit-for-bit.
        assert_eq!(
            s.commitment_root, t.commitment_root,
            "epoch {}: commitment root diverged",
            s.epoch
        );
    }

    // Per-node traffic counters: identical message-for-message.
    assert_eq!(sim.final_stats, threaded.final_stats);

    // Per-node final models: identical local RMSE.
    for (a, b) in sim_nodes.iter().zip(threaded_nodes) {
        let (ra, rb) = (a.local_rmse(), b.local_rmse());
        match (ra, rb) {
            (Some(x), Some(y)) => assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "node {}: final rmse diverged: {x} vs {y}",
                a.id()
            ),
            (None, None) => {}
            _ => panic!("node {}: rmse presence diverged", a.id()),
        }
        assert_eq!(
            a.store().len(),
            b.store().len(),
            "node {}: store size",
            a.id()
        );
    }
}

/// Runs the reference fleet over the mem fabric (inline fabric scheduler,
/// simulated time) and an identical fleet over real TCP loopback sockets with the
/// given driver.
#[allow(clippy::type_complexity)]
fn run_mem_vs_tcp(
    execution: ExecutionMode,
    tcp_driver: Driver,
) -> (
    (EngineResult, Vec<Node<MfModel>>),
    (EngineResult, Vec<Node<MfModel>>),
) {
    let mut sim_nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
    let sim = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(sim_nodes.len()),
        engine_config(
            execution,
            TimeAxis::Simulated(Default::default()),
            Driver::WorkSteal { workers: 1 },
        ),
    )
    .run("sim", &mut sim_nodes);

    let mut tcp_nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
    let tcp = Engine::<MfModel, TcpTransport>::new(
        TcpTransport::loopback(tcp_nodes.len()).expect("loopback fabric"),
        engine_config(execution, TimeAxis::Wall, tcp_driver),
    )
    .run("tcp", &mut tcp_nodes);

    ((sim, sim_nodes), (tcp, tcp_nodes))
}

/// [`engine_config`] under an *empty* fault plan, so the engine wraps
/// every endpoint in the fault layer — the wrapper's identity oracle. A
/// clean plan must change nothing: not one RMSE bit, not one payload
/// byte.
fn identity_config(execution: ExecutionMode, time: TimeAxis, driver: Driver) -> EngineConfig {
    EngineConfig {
        faults: Some(FaultPlan::default()),
        ..engine_config(execution, time, driver)
    }
}

/// Runs the reference fleet over the plain mem fabric with no fault
/// plan; the same fleet under `identity_config` must be equivalent.
fn reference_run(execution: ExecutionMode) -> (EngineResult, Vec<Node<MfModel>>) {
    let mut nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
    let result = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(nodes.len()),
        engine_config(
            execution,
            TimeAxis::Simulated(Default::default()),
            Driver::WorkSteal { workers: 1 },
        ),
    )
    .run("reference", &mut nodes);
    (result, nodes)
}

#[test]
fn empty_fault_plan_is_identity_on_every_backend_native() {
    let reference = reference_run(ExecutionMode::Native);

    let mut mem_nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
    let mem = Engine::<MfModel, _>::new(
        MemNetwork::new(mem_nodes.len()),
        identity_config(
            ExecutionMode::Native,
            TimeAxis::Simulated(Default::default()),
            Driver::WorkSteal { workers: 1 },
        ),
    )
    .run("faulty-mem", &mut mem_nodes);
    assert_equivalent(&reference, &(mem, mem_nodes));

    let mut split_nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
    let split = Engine::<MfModel, _>::new(
        MemNetwork::new(split_nodes.len()),
        identity_config(ExecutionMode::Native, TimeAxis::Wall, Driver::ThreadPerNode),
    )
    .run("faulty-mem-split", &mut split_nodes);
    assert_equivalent(&reference, &(split, split_nodes));

    let mut tcp_nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
    let tcp = Engine::<MfModel, _>::new(
        TcpTransport::loopback(tcp_nodes.len()).expect("loopback fabric"),
        identity_config(ExecutionMode::Native, TimeAxis::Wall, Driver::ThreadPerNode),
    )
    .run("faulty-tcp", &mut tcp_nodes);
    assert_equivalent(&reference, &(tcp, tcp_nodes));
}

#[test]
fn empty_fault_plan_is_identity_on_every_backend_sgx() {
    // SGX routes the attestation handshake through the transport
    // before the engine wraps it: wrapping after setup must leave the
    // handshake's bytes as they were, native byte accounting included.
    let execution = ExecutionMode::Sgx(SgxCostModel::default());
    let reference = reference_run(execution);

    let mut mem_nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
    let mem = Engine::<MfModel, _>::new(
        MemNetwork::new(mem_nodes.len()),
        identity_config(
            execution,
            TimeAxis::Simulated(Default::default()),
            Driver::WorkSteal { workers: 1 },
        ),
    )
    .run("faulty-mem-sgx", &mut mem_nodes);
    assert_equivalent(&reference, &(mem, mem_nodes));

    let mut tcp_nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
    let tcp = Engine::<MfModel, _>::new(
        TcpTransport::loopback(tcp_nodes.len()).expect("loopback fabric"),
        identity_config(execution, TimeAxis::Wall, Driver::ThreadPerNode),
    )
    .run("faulty-tcp-sgx", &mut tcp_nodes);
    assert_equivalent(&reference, &(tcp, tcp_nodes));
}

/// Runs the reference fleet on the mem fabric under the work-stealing
/// scheduler with the given worker count.
fn work_steal_run(execution: ExecutionMode, workers: usize) -> (EngineResult, Vec<Node<MfModel>>) {
    let mut nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
    let result = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(nodes.len()),
        engine_config(
            execution,
            TimeAxis::Simulated(Default::default()),
            Driver::WorkSteal { workers },
        ),
    )
    .run("work-steal", &mut nodes);
    (result, nodes)
}

#[test]
fn work_steal_scheduler_is_bit_identical_to_sequential_native() {
    // The fixed worker pool must not change one bit of the learning
    // trajectory, whatever the worker count (1 worker, several, more
    // workers than the auto choice would pick).
    let reference = reference_run(ExecutionMode::Native);
    for workers in [1, 3, 0] {
        let run = work_steal_run(ExecutionMode::Native, workers);
        assert_equivalent(&reference, &run);
    }
}

#[test]
fn work_steal_scheduler_is_bit_identical_to_sequential_sgx() {
    // SGX setup runs on the driver thread before the pool spins up; the
    // sealed per-epoch traffic must still match bit-for-bit.
    let reference = reference_run(ExecutionMode::Sgx(SgxCostModel::default()));
    let run = work_steal_run(ExecutionMode::Sgx(SgxCostModel::default()), 4);
    assert_equivalent(&reference, &run);
    assert!(run.0.setup_ns > 0);
}

/// The chaos suite's headline scenario (32 nodes, 10% uniform loss, two
/// crash-stop nodes) — the scheduler-equivalence oracle runs it through
/// both drivers over the fault-wrapped mem fabric.
fn headline_fleet() -> Vec<Node<MfModel>> {
    Scenario::two_users_per_node(32).build_fleet()
}

fn headline_plan() -> FaultPlan {
    use rex_repro::net::fault::LinkFaults;
    FaultPlan::uniform(0xC4A05, LinkFaults::drop_rate(0.10))
        .with_crash(5, 3, None)
        .with_crash(17, 5, None)
}

fn run_headline(execution: ExecutionMode, driver: Driver) -> (EngineResult, Vec<Node<MfModel>>) {
    let plan = headline_plan();
    let mut nodes = headline_fleet();
    let result = Engine::<MfModel, _>::new(
        MemNetwork::new(nodes.len()),
        EngineConfig {
            epochs: 10,
            execution,
            time: TimeAxis::Simulated(Default::default()),
            driver,
            processes_per_platform: 1,
            seed: 0xE0,
            faults: Some(plan),
            membership: None,
            trace_out: None,
        },
    )
    .run("headline", &mut nodes);
    (result, nodes)
}

#[test]
fn work_steal_matches_sequential_under_chaos_headline_native() {
    let seq = run_headline(ExecutionMode::Native, Driver::WorkSteal { workers: 1 });
    let pool = run_headline(ExecutionMode::Native, Driver::WorkSteal { workers: 4 });
    assert_equivalent(&seq, &pool);
    // Fault accounting is part of the contract: liveness and the
    // delivered/dropped/late/duplicated counters must match per epoch.
    for (a, b) in seq.0.trace.records.iter().zip(&pool.0.trace.records) {
        assert_eq!(a.live_nodes, b.live_nodes, "epoch {}: liveness", a.epoch);
        assert_eq!(a.delivery, b.delivery, "epoch {}: delivery", a.epoch);
    }
    // And the plan really did degrade the fabric.
    assert!(seq.0.trace.total_delivery().dropped > 0);
    assert_eq!(seq.0.trace.min_live_nodes(), 30);
    // Commitments survive the chaos: every epoch still aggregates the
    // live nodes' chains into a non-zero root (checked equal across
    // drivers by `assert_equivalent` above).
    assert!(seq
        .0
        .trace
        .records
        .iter()
        .all(|r| r.commitment_root != [0u8; 32]));
}

#[test]
fn work_steal_matches_sequential_under_chaos_headline_sgx() {
    let execution = ExecutionMode::Sgx(SgxCostModel::default());
    let seq = run_headline(execution, Driver::WorkSteal { workers: 1 });
    let pool = run_headline(execution, Driver::WorkSteal { workers: 4 });
    assert_equivalent(&seq, &pool);
    for (a, b) in seq.0.trace.records.iter().zip(&pool.0.trace.records) {
        assert_eq!(a.live_nodes, b.live_nodes, "epoch {}: liveness", a.epoch);
        assert_eq!(a.delivery, b.delivery, "epoch {}: delivery", a.epoch);
    }
    assert!(seq.0.setup_ns > 0 && pool.0.setup_ns > 0);
}

/// One node per user (24 nodes), either through the pre-sharding
/// per-user partition or through width-1 user blocks on the sharded
/// construction path. The two must be indistinguishable — this is the
/// sharding determinism contract (`users_per_node = 1` stays bit-exact).
fn per_user_fleet(sharded: bool) -> Vec<Node<MfModel>> {
    Scenario {
        nodes: 24,
        sharded,
        topology: TopologySpec::SmallWorld,
        ..Scenario::default()
    }
    .build_fleet()
}

#[test]
fn width_one_sharded_fleet_matches_legacy_per_user_run_everywhere() {
    // The pre-sharding trajectory: the legacy per-user fleet on the
    // reference backend (mem fabric, inline fabric scheduler, simulated time).
    let mut legacy_nodes = per_user_fleet(false);
    let legacy = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(legacy_nodes.len()),
        engine_config(
            ExecutionMode::Native,
            TimeAxis::Simulated(Default::default()),
            Driver::WorkSteal { workers: 1 },
        ),
    )
    .run("legacy", &mut legacy_nodes);
    let reference = (legacy, legacy_nodes);

    // The users_per_node = 1 sharded fleet must reproduce it bit-for-bit
    // on every fabric and driver.
    let drivers = [
        Driver::WorkSteal { workers: 1 },
        Driver::WorkSteal { workers: 4 },
    ];
    for driver in drivers {
        let mut nodes = per_user_fleet(true);
        let result = Engine::<MfModel, MemNetwork>::new(
            MemNetwork::new(nodes.len()),
            engine_config(
                ExecutionMode::Native,
                TimeAxis::Simulated(Default::default()),
                driver,
            ),
        )
        .run("sharded-mem", &mut nodes);
        assert_equivalent(&reference, &(result, nodes));
    }
    for driver in drivers {
        let mut nodes = per_user_fleet(true);
        let result = Engine::<MfModel, TcpTransport>::new(
            TcpTransport::loopback(nodes.len()).expect("loopback fabric"),
            engine_config(ExecutionMode::Native, TimeAxis::Wall, driver),
        )
        .run("sharded-tcp", &mut nodes);
        assert_equivalent(&reference, &(result, nodes));
    }
}

#[test]
fn native_runs_agree_across_backends() {
    let (sim, threaded) = run_both(ExecutionMode::Native);
    assert_equivalent(&sim, &threaded);
    // Sanity: the runs actually learned something.
    let first = sim.0.trace.records.first().unwrap().rmse;
    let last = sim.0.trace.final_rmse().unwrap();
    assert!(last < first, "no learning: {first} -> {last}");
    // Commitment roots are live (every epoch aggregates real chains) and
    // history-chained (no two epochs share a root).
    let roots: Vec<[u8; 32]> = sim
        .0
        .trace
        .records
        .iter()
        .map(|r| r.commitment_root)
        .collect();
    assert!(
        roots.iter().all(|r| *r != [0u8; 32]),
        "zeroed commitment root"
    );
    for (i, a) in roots.iter().enumerate() {
        for b in &roots[i + 1..] {
            assert_ne!(a, b, "commitment roots repeat across epochs");
        }
    }
}

#[test]
fn sgx_runs_agree_across_backends() {
    // SGX mode adds attestation, AEAD sealing, and hardware charges; the
    // charges are time-only, so learning trajectories and wire bytes must
    // still match bit-for-bit (sealing is deterministic per session).
    let (sim, threaded) = run_both(ExecutionMode::Sgx(SgxCostModel::default()));
    assert_equivalent(&sim, &threaded);
    assert!(sim.0.setup_ns > 0 && threaded.0.setup_ns > 0);
}

#[test]
fn tcp_loopback_threaded_matches_mem_fabric() {
    // Real sockets, one OS thread per node: the loopback stand-in for the
    // paper's distributed testbed must match the simulator bit-for-bit.
    let (sim, tcp) = run_mem_vs_tcp(ExecutionMode::Native, Driver::ThreadPerNode);
    assert_equivalent(&sim, &tcp);
    let first = sim.0.trace.records.first().unwrap().rmse;
    let last = sim.0.trace.final_rmse().unwrap();
    assert!(last < first, "no learning: {first} -> {last}");
}

#[test]
fn tcp_loopback_lockstep_matches_mem_fabric() {
    // The same sockets driven by the inline fabric scheduler (fabric view, no
    // node threads).
    let (sim, tcp) = run_mem_vs_tcp(ExecutionMode::Native, Driver::WorkSteal { workers: 1 });
    assert_equivalent(&sim, &tcp);
}

#[test]
fn sgx_tcp_loopback_matches_mem_fabric() {
    // SGX mode sends the attestation handshake through the sockets too
    // (and the setup drain must not leak handshake frames into epoch 0).
    let (sim, tcp) = run_mem_vs_tcp(
        ExecutionMode::Sgx(SgxCostModel::default()),
        Driver::ThreadPerNode,
    );
    assert_equivalent(&sim, &tcp);
    assert!(sim.0.setup_ns > 0 && tcp.0.setup_ns > 0);
}
