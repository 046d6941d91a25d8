//! Integration: the SGX cost structure must reproduce the paper's Table IV
//! ordering — model sharing pays far more for the enclave than REX, and
//! overcommitting the EPC amplifies the penalty.

use rex_repro::core::builder::Scenario;
use rex_repro::core::config::{ExecutionMode, ProtocolConfig, SharingMode};
use rex_repro::core::engine::{Engine, EngineConfig, EngineResult};
use rex_repro::data::SyntheticConfig;
use rex_repro::ml::MfModel;
use rex_repro::net::mem::MemNetwork;
use rex_repro::tee::SgxCostModel;

fn fleet(sharing: SharingMode) -> Vec<rex_repro::core::Node<MfModel>> {
    Scenario {
        dataset: SyntheticConfig {
            num_users: 32,
            num_items: 600,
            num_ratings: 5_000,
            seed: 13,
            ..SyntheticConfig::default()
        },
        split_seed: 1,
        protocol: ProtocolConfig {
            sharing,
            points_per_epoch: 100,
            steps_per_epoch: 150,
            seed: 8,
            ..ProtocolConfig::default()
        },
        ..Scenario::default()
    }
    .build_fleet()
}

/// Runs a fresh `sharing` fleet for `epochs` on the simulated fabric.
fn run(sharing: SharingMode, epochs: usize, execution: ExecutionMode) -> EngineResult {
    let mut nodes = fleet(sharing);
    let cfg = EngineConfig {
        epochs,
        execution,
        ..EngineConfig::default()
    };
    Engine::new(MemNetwork::new(nodes.len()), cfg).run("sgx", &mut nodes)
}

fn charged_overhead(sharing: SharingMode, cost: SgxCostModel) -> u64 {
    let result = run(sharing, 10, ExecutionMode::Sgx(cost));
    result.trace.mean_sgx_overhead_ns()
}

#[test]
fn ms_pays_more_sgx_overhead_than_rex() {
    let cost = SgxCostModel::default();
    let rex = charged_overhead(SharingMode::RawData, cost);
    let ms = charged_overhead(SharingMode::Model, cost);
    assert!(
        ms > 2 * rex,
        "Table IV ordering broken: MS charged {ms} ns vs REX {rex} ns"
    );
}

#[test]
fn epc_overcommit_amplifies_overhead() {
    // Shrink the EPC so the MS working set (model + 7 neighbour models)
    // no longer fits: paging charges must appear.
    let fitting = SgxCostModel::default();
    let overcommitted = SgxCostModel::default().with_epc_limit(64 * 1024);
    let fits = charged_overhead(SharingMode::Model, fitting);
    let pages = charged_overhead(SharingMode::Model, overcommitted);
    assert!(
        pages > fits + fits / 4,
        "paging did not materialize: {fits} ns vs {pages} ns"
    );
}

#[test]
fn sgx_does_not_change_model_quality() {
    let final_rmse = |execution| {
        let result = run(SharingMode::RawData, 12, execution);
        result.trace.final_rmse().unwrap()
    };
    let native = final_rmse(ExecutionMode::Native);
    let sgx = final_rmse(ExecutionMode::Sgx(SgxCostModel::default()));
    assert!(
        (native - sgx).abs() < 1e-9,
        "SGX must only cost time, not accuracy: {native} vs {sgx}"
    );
}
