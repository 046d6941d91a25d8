//! The unified experiment runner: one [`run`] entry point over every
//! execution backend.
//!
//! `run(&Backend, name, &mut nodes)` is a thin shim mapping a config
//! struct onto [`Engine`]. Pick the backend, not the function:
//!
//! - [`Backend::Simulated`] — discrete-event simulation on a
//!   [`MemNetwork`] fabric, fabric rounds on the worker pool, simulated
//!   time (the paper's 610- and 50-node single-machine scenarios, §IV-A).
//! - [`Backend::Threaded`] — real concurrency, one OS thread per node
//!   running the per-node loop over [`ChannelTransport`] endpoints,
//!   wall-clock time (the paper's distributed SGX deployment shape,
//!   §IV-C: 8 nodes on 4 machines, 2 processes each, fully connected).
//! - [`Backend::Centralized`] — the engine's degenerate deployment: the
//!   given nodes run with no fabric effects on a one-slot-per-node
//!   [`MemNetwork`], infinite links, inline rounds. Used by
//!   [`crate::run_baseline`] for the paper's dashed reference line.

use crate::config::ExecutionMode;
use crate::engine::{Driver, Engine, EngineConfig, EngineResult, TimeAxis};
use crate::node::Node;
use rex_ml::Model;
use rex_net::channel::ChannelTransport;
use rex_net::link::LinkModel;
use rex_net::mem::MemNetwork;

/// Simulated-backend parameters.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Number of epochs to run (epoch 0 trains on initial local data).
    pub epochs: usize,
    /// Link model for simulated transfer time.
    pub link: LinkModel,
    /// Native or SGX execution.
    pub execution: ExecutionMode,
    /// Seed for infrastructure randomness (attestation keys).
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            epochs: 100,
            link: LinkModel::default(),
            execution: ExecutionMode::Native,
            seed: 0x1234,
        }
    }
}

/// Threaded-backend parameters.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Native or SGX.
    pub execution: ExecutionMode,
    /// REX processes sharing one SGX machine (the paper packs 2 per
    /// server); only affects platform assignment.
    pub processes_per_platform: usize,
    /// Infrastructure seed.
    pub seed: u64,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            epochs: 50,
            execution: ExecutionMode::Native,
            processes_per_platform: 2,
            seed: 99,
        }
    }
}

/// Output of a threaded run (the engine's result shape).
pub type ThreadedResult = EngineResult;

/// Which execution backend [`run`] deploys the fleet on.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Discrete-event simulation: [`MemNetwork`], fabric rounds on one
    /// pool worker per core, [`TimeAxis::Simulated`].
    Simulated(SimulationConfig),
    /// Real concurrency: [`ChannelTransport`], one thread per node,
    /// [`TimeAxis::Wall`].
    Threaded(ThreadedConfig),
    /// No network effects: inline rounds over infinite links on the
    /// simulated time axis. The nodes' merge/share stages still run, so a
    /// one-node fleet degenerates to the paper's centralized baseline.
    Centralized {
        /// Number of epochs.
        epochs: usize,
        /// Infrastructure seed.
        seed: u64,
    },
}

/// Runs `nodes` for the backend's epoch count; `name` becomes the trace
/// label. Nodes are trained in place and remain usable afterwards.
pub fn run<M: Model>(backend: &Backend, name: &str, nodes: &mut Vec<Node<M>>) -> EngineResult {
    match backend {
        Backend::Simulated(sim) => Engine::<M, MemNetwork>::new(
            MemNetwork::new(nodes.len()),
            EngineConfig {
                epochs: sim.epochs,
                execution: sim.execution,
                time: TimeAxis::Simulated(sim.link),
                driver: Driver::WorkSteal { workers: 0 },
                processes_per_platform: 1, // one platform per simulated node
                seed: sim.seed,
                faults: None,
                membership: None,
            },
        )
        .run(name, nodes),
        Backend::Threaded(cfg) => Engine::<M, ChannelTransport>::new(
            ChannelTransport::new(nodes.len()),
            EngineConfig {
                epochs: cfg.epochs,
                execution: cfg.execution,
                time: TimeAxis::Wall,
                driver: Driver::ThreadPerNode,
                processes_per_platform: cfg.processes_per_platform,
                seed: cfg.seed,
                faults: None,
                membership: None,
            },
        )
        .run(name, nodes),
        Backend::Centralized { epochs, seed } => Engine::<M, MemNetwork>::new(
            MemNetwork::new(nodes.len()),
            EngineConfig {
                epochs: *epochs,
                execution: ExecutionMode::Native,
                time: TimeAxis::Simulated(LinkModel::infinite()),
                driver: Driver::Lockstep,
                processes_per_platform: 1,
                seed: *seed,
                faults: None,
                membership: None,
            },
        )
        .run(name, nodes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_mf_nodes, NodeSeeds};
    use crate::config::{GossipAlgorithm, ProtocolConfig, SharingMode};
    use rex_data::{Partition, SyntheticConfig, TrainTestSplit};
    use rex_ml::MfHyperParams;
    use rex_tee::SgxCostModel;
    use rex_topology::TopologySpec;

    fn fleet(
        sharing: SharingMode,
        algorithm: GossipAlgorithm,
    ) -> Vec<crate::node::Node<rex_ml::MfModel>> {
        fleet_on(TopologySpec::Ring, sharing, algorithm)
    }

    /// The paper's §IV-C shape: 8 fully connected nodes, one thread each.
    fn threaded_fleet(sharing: SharingMode) -> Vec<crate::node::Node<rex_ml::MfModel>> {
        fleet_on(
            TopologySpec::FullyConnected,
            sharing,
            GossipAlgorithm::DPsgd,
        )
    }

    fn fleet_on(
        topology: TopologySpec,
        sharing: SharingMode,
        algorithm: GossipAlgorithm,
    ) -> Vec<crate::node::Node<rex_ml::MfModel>> {
        let ds = SyntheticConfig {
            num_users: 24,
            num_items: 120,
            num_ratings: 1_600,
            seed: 5,
            ..SyntheticConfig::default()
        }
        .generate();
        let split = TrainTestSplit::standard(&ds, 2);
        let part = Partition::multi_user(&split, 8);
        let graph = topology.build(8, 3);
        build_mf_nodes(
            &part,
            &graph,
            ds.num_users,
            ds.num_items,
            MfHyperParams::default(),
            ProtocolConfig {
                sharing,
                algorithm,
                points_per_epoch: 40,
                steps_per_epoch: 150,
                seed: 11,
                ..ProtocolConfig::default()
            },
            NodeSeeds::default(),
        )
    }

    fn quick_sim(epochs: usize, execution: ExecutionMode) -> Backend {
        Backend::Simulated(SimulationConfig {
            epochs,
            execution,
            ..Default::default()
        })
    }

    #[test]
    fn rex_converges_on_ring() {
        let mut nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let result = run(&quick_sim(25, ExecutionMode::Native), "REX", &mut nodes);
        let first = result.trace.records.first().unwrap().rmse;
        let last = result.trace.final_rmse().unwrap();
        assert!(last < first - 0.02, "no convergence: {first} -> {last}");
        assert_eq!(result.trace.records.len(), 25);
        assert_eq!(result.setup_ns, 0);
    }

    #[test]
    fn ms_converges_too() {
        let mut nodes = fleet(SharingMode::Model, GossipAlgorithm::DPsgd);
        let result = run(&quick_sim(25, ExecutionMode::Native), "MS", &mut nodes);
        let first = result.trace.records.first().unwrap().rmse;
        let last = result.trace.final_rmse().unwrap();
        assert!(last < first - 0.02, "no convergence: {first} -> {last}");
    }

    #[test]
    fn rex_moves_far_fewer_bytes_than_ms() {
        let mut rex_nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let mut ms_nodes = fleet(SharingMode::Model, GossipAlgorithm::DPsgd);
        let rex = run(&quick_sim(10, ExecutionMode::Native), "REX", &mut rex_nodes);
        let ms = run(&quick_sim(10, ExecutionMode::Native), "MS", &mut ms_nodes);
        let rex_bytes = rex.trace.total_bytes_per_node();
        let ms_bytes = ms.trace.total_bytes_per_node();
        // At this miniature scale (24 users x 120 items) the model is only
        // ~6.5 KiB, so the gap is ~13x; at paper scale it is ~100x
        // (asserted by the integration tests on the full shape).
        assert!(
            ms_bytes > 10.0 * rex_bytes,
            "expected order-of-magnitude gap: MS={ms_bytes} REX={rex_bytes}"
        );
    }

    #[test]
    fn sgx_mode_attests_and_charges() {
        let mut nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let result = run(
            &quick_sim(5, ExecutionMode::Sgx(SgxCostModel::default())),
            "REX/SGX",
            &mut nodes,
        );
        assert!(result.setup_ns > 0, "attestation setup must cost time");
        // Every epoch charges transitions.
        for r in &result.trace.records {
            assert!(r.sgx_overhead_ns > 0, "epoch {} charged nothing", r.epoch);
        }
        // And still converges.
        let first = result.trace.records.first().unwrap().rmse;
        let last = result.trace.final_rmse().unwrap();
        assert!(last < first);
    }

    #[test]
    fn sgx_and_native_reach_same_quality() {
        // SGX must not change learning semantics, only time.
        let mut native_nodes = fleet(SharingMode::RawData, GossipAlgorithm::Rmw);
        let mut sgx_nodes = fleet(SharingMode::RawData, GossipAlgorithm::Rmw);
        let native = run(
            &quick_sim(12, ExecutionMode::Native),
            "n",
            &mut native_nodes,
        );
        let sgx = run(
            &quick_sim(12, ExecutionMode::Sgx(SgxCostModel::default())),
            "s",
            &mut sgx_nodes,
        );
        let n_rmse = native.trace.final_rmse().unwrap();
        let s_rmse = sgx.trace.final_rmse().unwrap();
        assert!(
            (n_rmse - s_rmse).abs() < 1e-9,
            "semantics changed: native {n_rmse} vs sgx {s_rmse}"
        );
        // But SGX epochs are charged the modelled enclave costs, native
        // ones nothing (wall clock would say the same only on a quiet host).
        assert!(sgx.trace.records.iter().all(|r| r.sgx_overhead_ns > 0));
        assert!(native.trace.records.iter().all(|r| r.sgx_overhead_ns == 0));
    }

    #[test]
    fn rmw_uses_less_bandwidth_than_dpsgd() {
        let mut rmw = fleet(SharingMode::Model, GossipAlgorithm::Rmw);
        let mut dpsgd = fleet(SharingMode::Model, GossipAlgorithm::DPsgd);
        let r = run(&quick_sim(6, ExecutionMode::Native), "rmw", &mut rmw);
        let d = run(&quick_sim(6, ExecutionMode::Native), "dpsgd", &mut dpsgd);
        assert!(d.trace.total_bytes_per_node() > r.trace.total_bytes_per_node());
    }

    #[test]
    fn eight_node_native_run() {
        let mut nodes = threaded_fleet(SharingMode::RawData);
        let result = run(
            &Backend::Threaded(ThreadedConfig {
                epochs: 10,
                ..Default::default()
            }),
            "native",
            &mut nodes,
        );
        assert_eq!(result.trace.records.len(), 10);
        let first = result.trace.records.first().unwrap().rmse;
        let last = result.trace.final_rmse().unwrap();
        assert!(last < first, "{first} -> {last}");
        // Fully connected 8 nodes: everyone talked to everyone.
        for s in &result.final_stats {
            assert!(s.msgs_out >= 7 * 9); // 7 peers x >=9 sharing epochs
        }
        assert_eq!(result.setup_ns, 0);
    }

    #[test]
    fn eight_node_sgx_run_attests_and_charges() {
        let mut nodes = threaded_fleet(SharingMode::RawData);
        let result = run(
            &Backend::Threaded(ThreadedConfig {
                epochs: 6,
                execution: ExecutionMode::Sgx(SgxCostModel::default()),
                ..Default::default()
            }),
            "sgx",
            &mut nodes,
        );
        assert!(result.setup_ns > 0);
        for r in &result.trace.records {
            assert!(r.sgx_overhead_ns > 0);
        }
        // Time axis is monotone.
        for w in result.trace.records.windows(2) {
            assert!(w[1].time_ns >= w[0].time_ns);
        }
    }

    #[test]
    fn ms_heavier_than_rex_on_wire() {
        let mut rex_nodes = threaded_fleet(SharingMode::RawData);
        let mut ms_nodes = threaded_fleet(SharingMode::Model);
        let quick = Backend::Threaded(ThreadedConfig {
            epochs: 5,
            ..Default::default()
        });
        let rex = run(&quick, "rex", &mut rex_nodes);
        let ms = run(&quick, "ms", &mut ms_nodes);
        assert!(ms.trace.total_bytes_per_node() > 10.0 * rex.trace.total_bytes_per_node());
    }

    /// A node whose epoch panics mid-run must fail a thread-per-node run,
    /// naming the node — not strand its peers on the round barrier. Node
    /// 2 holds a model of alien dimensions, so merging the first model a
    /// peer shares with it panics inside its epoch 1.
    #[test]
    #[should_panic(expected = "node 2 epoch panicked")]
    fn dead_node_fails_a_thread_per_node_run_instead_of_hanging_it() {
        let mut nodes = threaded_fleet(SharingMode::Model);
        // Isolated, so nobody ever receives the alien model in turn.
        let alien = rex_ml::MfModel::new(3, 3, MfHyperParams::default(), 3.0, 1);
        nodes[2] = crate::node::Node::builder(2, alien).build();
        let quick = Backend::Threaded(ThreadedConfig {
            epochs: 4,
            ..Default::default()
        });
        run(&quick, "dies", &mut nodes);
    }
}
