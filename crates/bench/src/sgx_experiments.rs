//! SGX-vs-native experiment harness (Figs 6–7, Table IV): 8 fully
//! connected nodes, real threads, MF model, four arms per algorithm:
//! {Native, SGX} × {DS/REX, MS}.

use crate::args::BenchArgs;
use rex_core::builder::Scenario;
use rex_core::config::{ExecutionMode, GossipAlgorithm, ProtocolConfig, SharingMode};
use rex_core::engine::{Driver, Engine, EngineConfig, EngineResult, TimeAxis};
use rex_data::SyntheticConfig;
use rex_net::mem::MemNetwork;
use rex_net::tcp::TcpTransport;
use rex_tee::SgxCostModel;

/// Scale of an SGX experiment: the fleet recipe, an epoch budget and
/// the enclaves' EPC.
#[derive(Debug, Clone)]
pub struct SgxScale {
    /// The fleet. Its sharing mode and algorithm are set per arm by
    /// [`run_arm_on`].
    pub scenario: Scenario,
    /// Epoch budget.
    pub epochs: usize,
    /// Usable EPC bytes for the SGX arms. The paper's machines expose
    /// 93.5 MiB; our working sets are smaller than the C++/Eigen original
    /// (f32, lean buffers), so the beyond-EPC experiment (fig7) scales the
    /// budget to reproduce the same overcommit *ratio* (EXPERIMENTS.md).
    pub epc_limit_bytes: u64,
}

/// The paper's testbed: `num_users × num_items` synthetic ratings over 8
/// fully connected nodes (the default overlay), 300 points shared and
/// 300 SGD steps per epoch. The data seed is `seed`; the split and
/// protocol seeds are `seed` XOR a constant each.
fn testbed(num_users: u32, num_items: u32, num_ratings: usize, seed: u64) -> Scenario {
    Scenario {
        dataset: SyntheticConfig {
            num_users,
            num_items,
            num_ratings,
            seed,
            ..SyntheticConfig::default()
        },
        split_seed: seed ^ 0x6F1,
        nodes: 8,
        protocol: ProtocolConfig {
            seed: seed ^ 0x3A1,
            ..ProtocolConfig::default()
        },
        ..Scenario::default()
    }
}

impl SgxScale {
    /// Fig 6 quick: medium dataset, EPC comfortably larger than any arm.
    #[must_use]
    pub fn fig6_quick(args: &BenchArgs) -> Self {
        SgxScale {
            scenario: testbed(200, 3_000, 33_000, args.seed),
            epochs: args.epochs.unwrap_or(25),
            epc_limit_bytes: SgxCostModel::default().epc_limit_bytes,
        }
    }

    /// Fig 6 full: the MovieLens-latest shape (610 users).
    #[must_use]
    pub fn fig6_full(args: &BenchArgs) -> Self {
        SgxScale {
            scenario: testbed(610, 9_000, 100_000, args.seed),
            epochs: args.epochs.unwrap_or(120),
            epc_limit_bytes: SgxCostModel::default().epc_limit_bytes,
        }
    }

    /// Fig 7 quick: a larger dataset + an EPC budget scaled so the MS arm
    /// overcommits ~2.2x (the paper's D-PSGD-MS-to-EPC ratio at 15 k
    /// users) while REX stays near the limit.
    #[must_use]
    pub fn fig7_quick(args: &BenchArgs) -> Self {
        SgxScale {
            scenario: testbed(1_000, 6_000, 150_000, args.seed),
            epochs: args.epochs.unwrap_or(15),
            epc_limit_bytes: 3 * 1024 * 1024,
        }
    }

    /// Fig 7 full: the capped MovieLens-25M shape (15 k users).
    #[must_use]
    pub fn fig7_full(args: &BenchArgs) -> Self {
        SgxScale {
            scenario: testbed(15_000, 28_830, 2_249_739, args.seed),
            epochs: args.epochs.unwrap_or(60),
            epc_limit_bytes: 24 * 1024 * 1024,
        }
    }
}

/// One experiment arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arm {
    /// Gossip algorithm.
    pub algorithm: GossipAlgorithm,
    /// Sharing mode.
    pub sharing: SharingMode,
    /// SGX or native.
    pub sgx: bool,
}

impl Arm {
    /// Label in the paper's naming ("REX" = SGX+DS; "SGX, MS"; "Native, DS";
    /// "Native, MS").
    #[must_use]
    pub fn label(&self) -> String {
        let exec = match (self.sgx, self.sharing) {
            (true, SharingMode::RawData) => "REX".to_string(),
            (true, SharingMode::Model) => "SGX, MS".to_string(),
            (false, SharingMode::RawData) => "Native, DS".to_string(),
            (false, SharingMode::Model) => "Native, MS".to_string(),
        };
        format!("{}, {}", self.algorithm.label(), exec)
    }
}

/// All eight arms: {RMW, D-PSGD} × {DS, MS} × {Native, SGX}.
#[must_use]
pub fn all_arms() -> Vec<Arm> {
    let mut arms = Vec::with_capacity(8);
    for algorithm in [GossipAlgorithm::Rmw, GossipAlgorithm::DPsgd] {
        for sharing in [SharingMode::RawData, SharingMode::Model] {
            for sgx in [false, true] {
                arms.push(Arm {
                    algorithm,
                    sharing,
                    sgx,
                });
            }
        }
    }
    arms
}

/// Transport the real-thread arms run over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArmBackend {
    /// The in-memory fabric, split into one channel endpoint per node
    /// thread (default).
    #[default]
    Mem,
    /// Real TCP sockets over loopback — the same run with every frame
    /// crossing the kernel's network stack. Results are bit-identical;
    /// only wall-clock timings differ.
    Tcp,
}

impl ArmBackend {
    /// Maps the shared `--tcp` CLI flag.
    #[must_use]
    pub fn from_args(args: &BenchArgs) -> Self {
        if args.tcp {
            ArmBackend::Tcp
        } else {
            ArmBackend::Mem
        }
    }
}

/// Runs one arm on the paper's 8-node fully connected deployment over
/// the chosen transport backend.
pub fn run_arm_on(scale: &SgxScale, arm: Arm, backend: ArmBackend) -> EngineResult {
    let mut scenario = scale.scenario.clone();
    scenario.protocol.sharing = arm.sharing;
    scenario.protocol.algorithm = arm.algorithm;
    let mut nodes = scenario.build_fleet();
    let execution = if arm.sgx {
        ExecutionMode::Sgx(SgxCostModel::default().with_epc_limit(scale.epc_limit_bytes))
    } else {
        ExecutionMode::Native
    };
    let cfg = EngineConfig {
        epochs: scale.epochs,
        execution,
        time: TimeAxis::Wall,
        driver: Driver::ThreadPerNode,
        processes_per_platform: 2, // the paper packs 2 processes/machine
        seed: scale.scenario.dataset.seed ^ 0x991,
        ..EngineConfig::default()
    };
    let n = nodes.len();
    match backend {
        ArmBackend::Mem => Engine::new(MemNetwork::new(n), cfg).run(&arm.label(), &mut nodes),
        ArmBackend::Tcp => {
            let tcp = TcpTransport::loopback(n).expect("loopback fabric");
            Engine::new(tcp, cfg).run(&arm.label(), &mut nodes)
        }
    }
}

/// Runs one arm over the default in-memory backend.
pub fn run_arm(scale: &SgxScale, arm: Arm) -> EngineResult {
    run_arm_on(scale, arm, ArmBackend::Mem)
}

/// Mean epoch duration (seconds) excluding setup.
#[must_use]
pub fn mean_epoch_secs(result: &EngineResult) -> f64 {
    let Some(last) = result.trace.records.last() else {
        return 0.0;
    };
    let total = last.time_ns.saturating_sub(result.setup_ns);
    total as f64 / 1e9 / result.trace.records.len() as f64
}

/// One row of Table IV: `(setup label, RAM MiB, overhead %)` computed from
/// an SGX arm and its native twin.
#[must_use]
pub fn overhead_row(label: &str, sgx: &EngineResult, native: &EngineResult) -> (String, f64, f64) {
    let t_sgx = mean_epoch_secs(sgx);
    let t_native = mean_epoch_secs(native);
    let overhead_pct = if t_native > 0.0 {
        (t_sgx / t_native - 1.0) * 100.0
    } else {
        0.0
    };
    let ram_mib = sgx.trace.peak_ram_bytes() / (1024.0 * 1024.0);
    (label.to_string(), ram_mib, overhead_pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_labels_match_paper_naming() {
        let labels: Vec<String> = all_arms().iter().map(Arm::label).collect();
        assert_eq!(labels.len(), 8);
        assert!(labels.contains(&"RMW, REX".to_string()));
        assert!(labels.contains(&"D-PSGD, SGX, MS".to_string()));
        assert!(labels.contains(&"D-PSGD, Native, DS".to_string()));
    }

    #[test]
    fn tiny_arm_runs_native_and_sgx() {
        let scale = SgxScale {
            scenario: testbed(24, 150, 1_600, 2),
            epochs: 4,
            epc_limit_bytes: SgxCostModel::default().epc_limit_bytes,
        };
        let native = run_arm(
            &scale,
            Arm {
                algorithm: GossipAlgorithm::DPsgd,
                sharing: SharingMode::RawData,
                sgx: false,
            },
        );
        let sgx = run_arm(
            &scale,
            Arm {
                algorithm: GossipAlgorithm::DPsgd,
                sharing: SharingMode::RawData,
                sgx: true,
            },
        );
        assert_eq!(native.trace.records.len(), 4);
        assert!(sgx.setup_ns > 0);
        let (label, ram, overhead) = overhead_row("D-PSGD, REX", &sgx, &native);
        assert_eq!(label, "D-PSGD, REX");
        assert!(ram > 0.0);
        // Overheads on tiny runs are noisy; just require a finite number.
        assert!(overhead.is_finite());
    }

    #[test]
    fn tcp_backend_arm_matches_channel_backend() {
        let scale = SgxScale {
            scenario: testbed(24, 150, 1_600, 3),
            epochs: 3,
            epc_limit_bytes: SgxCostModel::default().epc_limit_bytes,
        };
        let arm = Arm {
            algorithm: GossipAlgorithm::DPsgd,
            sharing: SharingMode::RawData,
            sgx: false,
        };
        let mem = run_arm_on(&scale, arm, ArmBackend::Mem);
        let tcp = run_arm_on(&scale, arm, ArmBackend::Tcp);
        // Same learning and wire traffic; only the time axis may differ.
        for (m, t) in mem.trace.records.iter().zip(&tcp.trace.records) {
            assert_eq!(m.rmse.to_bits(), t.rmse.to_bits());
            assert_eq!(m.bytes_per_node.to_bits(), t.bytes_per_node.to_bits());
        }
        assert_eq!(mem.final_stats, tcp.final_stats);
    }
}
