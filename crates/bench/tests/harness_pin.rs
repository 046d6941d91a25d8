//! Pins what the figure, table and ablation harness computes: per-epoch
//! RMSE and bytes per node-epoch, as IEEE-754 bits, for one arm of each
//! shape the bins run at a tiny scale. A change to the harness's
//! dataset, split, partition, overlay, seed or model-init plumbing moves
//! these bits; a refactor of it must not.

use rex_bench::mf_experiments::{build_fleet, run_panel, MfScale};
use rex_bench::sgx_experiments::{run_arm, Arm, SgxScale};
use rex_bench::BenchArgs;
use rex_core::config::{ExecutionMode, GossipAlgorithm, SharingMode};
use rex_core::engine::{Engine, EngineConfig};
use rex_net::mem::MemNetwork;
use rex_sim::trace::ExperimentTrace;
use rex_topology::TopologySpec;

/// `(rmse bits, bytes_per_node bits)` per epoch.
type Pin = [(u64, u64)];

fn assert_pinned(trace: &ExperimentTrace, pin: &Pin) {
    let got: Vec<(u64, u64)> = trace
        .records
        .iter()
        .map(|r| (r.rmse.to_bits(), r.bytes_per_node.to_bits()))
        .collect();
    assert_eq!(got, pin, "{} moved", trace.name);
}

fn args(nodes: Option<usize>, epochs: usize) -> BenchArgs {
    BenchArgs {
        nodes,
        epochs: Some(epochs),
        ..BenchArgs::default()
    }
}

#[test]
fn one_user_per_node_panel_is_pinned() {
    let scale = MfScale::one_user_quick(&args(Some(8), 3));
    let (rex, ms) = run_panel(
        &scale,
        "D-PSGD, SW",
        GossipAlgorithm::DPsgd,
        TopologySpec::SmallWorld,
        ExecutionMode::Native,
    );
    assert_pinned(
        &rex,
        &[
            (0x3fe6_3a56_89d2_441e, 0x40be_f300_0000_0000),
            (0x3fe6_5287_618b_841a, 0x40dc_e9c0_0000_0000),
            (0x3fe6_5a51_8b30_399d, 0x40e5_2d00_0000_0000),
        ],
    );
    assert_pinned(
        &ms,
        &[
            (0x3fe6_3a56_89d2_441e, 0x4120_3adc_0000_0000),
            (0x3fe5_bddb_a58b_9ce9, 0x4130_3adc_0000_0000),
            (0x3fe5_bd53_2288_1393, 0x4130_3adc_0000_0000),
        ],
    );
}

#[test]
fn multi_user_panel_is_pinned() {
    let scale = MfScale::multi_user_quick(&args(Some(4), 3));
    let (rex, ms) = run_panel(
        &scale,
        "RMW, ER",
        GossipAlgorithm::Rmw,
        TopologySpec::ErdosRenyi,
        ExecutionMode::Native,
    );
    assert_pinned(
        &rex,
        &[
            (0x3fe5_04be_0c81_5e07, 0x40ac_3c00_0000_0000),
            (0x3fe4_bb0f_6b75_c7e2, 0x40bc_3c00_0000_0000),
            (0x3fe4_87ea_8894_1c5c, 0x40bc_3c00_0000_0000),
        ],
    );
    assert_pinned(
        &ms,
        &[
            (0x3fe5_04be_0c81_5e07, 0x40f6_3e40_0000_0000),
            (0x3fe4_9933_0106_b107, 0x4106_3e40_0000_0000),
            (0x3fe4_75a5_0c54_b94c, 0x4106_3e40_0000_0000),
        ],
    );
}

#[test]
fn embedding_size_override_is_pinned() {
    // Fig 3's sweep: the same fleet at another embedding size.
    let scale = MfScale::one_user_quick(&args(Some(8), 3)).with_k(20);
    let mut nodes = build_fleet(
        &scale,
        TopologySpec::SmallWorld,
        SharingMode::Model,
        GossipAlgorithm::DPsgd,
    );
    let cfg = EngineConfig {
        epochs: 3,
        execution: ExecutionMode::Native,
        ..EngineConfig::default()
    };
    let trace = Engine::new(MemNetwork::new(nodes.len()), cfg)
        .run("MS, D-PSGD, SW, k=20", &mut nodes)
        .trace;
    assert_pinned(
        &trace,
        &[
            (0x3fe6_3a9d_09be_be94, 0x412e_efdc_0000_0000),
            (0x3fe5_9c3a_4ad4_ec6f, 0x413e_efdc_0000_0000),
            (0x3fe5_9978_dad1_2473, 0x413e_efdc_0000_0000),
        ],
    );
}

#[test]
fn sgx_arm_is_pinned_native_and_sgx() {
    let scale = SgxScale::fig6_quick(&args(None, 2));
    // The SGX arm moves the same ratings plus sealing overhead.
    let native: &Pin = &[
        (0x3fe5_9a68_44ee_6bcf, 0x40d8_b480_0000_0000),
        (0x3fe5_6154_a21a_a6f1, 0x40e8_b480_0000_0000),
    ];
    let sgx: &Pin = &[
        (0x3fe5_9a68_44ee_6bcf, 0x40d8_d080_0000_0000),
        (0x3fe5_6154_a21a_a6f1, 0x40e8_d080_0000_0000),
    ];
    for (sgx, pin) in [(false, native), (true, sgx)] {
        let arm = Arm {
            algorithm: GossipAlgorithm::DPsgd,
            sharing: SharingMode::RawData,
            sgx,
        };
        assert_pinned(&run_arm(&scale, arm).trace, pin);
    }
}

#[test]
fn a_longer_run_begins_with_the_shorter_run() {
    // Fig 2 reads the first epochs of Fig 1's runs instead of its own.
    let (rmw, er) = (GossipAlgorithm::Rmw, TopologySpec::ErdosRenyi);
    let first_three = |epochs| {
        let scale = MfScale::one_user_quick(&args(Some(8), epochs));
        let (rex, ms) = run_panel(&scale, "RMW, ER", rmw, er, ExecutionMode::Native);
        let bits = |t: &ExperimentTrace| -> Vec<(u64, u64)> {
            let records = t.records[..3].iter();
            records
                .map(|r| (r.rmse.to_bits(), r.bytes_per_node.to_bits()))
                .collect()
        };
        (bits(&rex), bits(&ms))
    };
    assert_eq!(first_three(5), first_three(3));
}
