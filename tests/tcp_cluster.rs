//! Multi-process deployment oracle: a cluster of real `rex-node` OS
//! processes talking TCP over loopback must reproduce the in-process
//! backends bit-for-bit — per-node RMSE trajectories, byte counts, and
//! final stores.
//!
//! The launcher needs the `rex-node` binary, which `cargo test` builds as
//! part of the workspace; if it is missing (e.g. a filtered build), the
//! tests skip with a notice instead of failing.

use rex_repro::core::config::ExecutionMode;
use rex_repro::core::engine::{Driver, Engine, EngineConfig, TimeAxis};
use rex_repro::ml::MfModel;
use rex_repro::net::MemNetwork;
use rex_repro::node::launcher::{find_node_binary, launch_cluster, scratch_dir};
use rex_repro::node::{build_fleet, run_cluster_in_process, ClusterConfig, NodeSummary};
use rex_repro::tee::SgxCostModel;
use std::path::PathBuf;

fn tiny_cfg(n: usize, sgx: bool) -> ClusterConfig {
    ClusterConfig {
        // Placeholder addresses; the launcher reserves real ports.
        nodes: (0..n).map(|i| format!("127.0.0.1:{}", 7200 + i)).collect(),
        epochs: 4,
        num_users: 16,
        num_items: 80,
        num_ratings: 1_000,
        points_per_epoch: 20,
        steps_per_epoch: 60,
        sgx,
        ..ClusterConfig::default()
    }
}

fn require_binary() -> Option<PathBuf> {
    let bin = find_node_binary();
    if bin.is_none() {
        eprintln!("[tcp_cluster] rex-node binary not built; skipping");
    }
    bin
}

fn launch(cfg: &ClusterConfig, tag: &str) -> Option<Vec<NodeSummary>> {
    let bin = require_binary()?;
    let dir = scratch_dir(tag);
    let result = launch_cluster(&bin, cfg, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    Some(result.expect("cluster run failed"))
}

#[test]
fn processes_match_in_process_cluster_bit_for_bit() {
    let cfg = tiny_cfg(4, false);
    let Some(deployed) = launch(&cfg, "native") else {
        return;
    };
    let reference = run_cluster_in_process(&cfg).expect("in-process reference");
    assert_eq!(deployed, reference);
}

#[test]
fn processes_match_engine_results() {
    // Tie the deployed loop back to the Engine itself: same fleet through
    // the thread-per-node driver over the split in-memory fabric.
    let cfg = tiny_cfg(4, false);
    let Some(deployed) = launch(&cfg, "engine-cmp") else {
        return;
    };

    let mut nodes = build_fleet(&cfg);
    let result = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(nodes.len()),
        EngineConfig {
            epochs: cfg.epochs,
            execution: ExecutionMode::Native,
            time: TimeAxis::Wall,
            driver: Driver::ThreadPerNode,
            processes_per_platform: cfg.processes_per_platform,
            seed: cfg.infra_seed,
            faults: None,
            membership: None,
            trace_out: None,
        },
    )
    .run("reference", &mut nodes);

    for (summary, node) in deployed.iter().zip(&nodes) {
        assert_eq!(
            summary.final_rmse_bits,
            node.local_rmse().map(f64::to_bits),
            "node {}: final rmse diverged between processes and engine",
            summary.id
        );
        assert_eq!(summary.store_len, node.store().len());
        assert_eq!(
            summary.stats, result.final_stats[summary.id],
            "node {}: traffic counters diverged",
            summary.id
        );
    }
}

#[test]
fn sparse_codec_cluster_learns_identically_with_fewer_bytes() {
    // The `codec = "sparse"` TOML knob, end to end through the deployed
    // node loop: model deltas reconstruct bit-exactly, so a sparse
    // cluster's per-node RMSE trajectories equal the dense cluster's to
    // the last bit — only the wire bytes shrink.
    use rex_repro::core::config::{SharingMode, WireCodec};
    let mut dense = tiny_cfg(4, false);
    dense.sharing = SharingMode::Model;
    let mut sparse = dense.clone();
    sparse.codec = WireCodec::Sparse;
    // Round-trip the sparse config through its TOML form first, so this
    // also covers the parser path the deployed binary takes.
    let sparse = ClusterConfig::parse(&sparse.to_toml()).expect("sparse config parses");

    let dense_run = run_cluster_in_process(&dense).expect("dense cluster");
    let sparse_run = run_cluster_in_process(&sparse).expect("sparse cluster");
    for (d, s) in dense_run.iter().zip(&sparse_run) {
        assert_eq!(
            d.rmse_trace_bits, s.rmse_trace_bits,
            "node {}: sparse codec changed the learning trajectory",
            d.id
        );
        assert!(
            s.stats.bytes_out < d.stats.bytes_out,
            "node {}: sparse {} B out vs dense {} B out",
            d.id,
            s.stats.bytes_out,
            d.stats.bytes_out
        );
        assert_eq!(d.stats.msgs_out, s.stats.msgs_out);
    }
}

#[test]
fn fifth_process_joins_running_cluster_bit_for_bit() {
    // The dynamic-membership acceptance path: a 5-node config whose
    // fifth id joins at epoch 2. The launcher starts all five OS
    // processes; the four founders mesh and run, the fifth dials in
    // with a `Join` control frame (via `rex-node --join`) and is
    // admitted at the epoch boundary the shared schedule names, with a
    // raw-share bootstrap from its sponsor. The whole run must
    // reproduce the in-process cluster *and* the engine bit-for-bit.
    use rex_repro::core::membership::MembershipPlan;

    let mut cfg = tiny_cfg(5, false);
    cfg.epochs = 5;
    cfg.membership = Some(
        MembershipPlan {
            seed: 0x5A,
            bootstrap_points: 30,
            ..MembershipPlan::default()
        }
        .with_join(4, 2, None)
        .with_leave(1, 4),
    );
    let Some(deployed) = launch(&cfg, "join") else {
        return;
    };
    let reference = run_cluster_in_process(&cfg).expect("in-process reference");
    assert_eq!(deployed, reference);

    // The joiner's trace shows the lifecycle: out, out, in, in, in.
    let joiner = &deployed[4];
    assert!(joiner.rmse_trace_bits[0].is_none() && joiner.rmse_trace_bits[1].is_none());
    assert!(joiner.rmse_trace_bits[2].is_some() && joiner.rmse_trace_bits[4].is_some());
    assert!(joiner.stats.msgs_in > 0, "joiner converged into the gossip");
    assert!(deployed[1].rmse_trace_bits[4].is_none(), "leaver departed");

    // And the engine agrees: same fleet, same schedule, the inline
    // fabric scheduler over the mem fabric — per-node final models, stores,
    // and traffic.
    let mut nodes = rex_repro::node::build_fleet(&cfg);
    let result = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(nodes.len()),
        EngineConfig {
            epochs: cfg.epochs,
            execution: ExecutionMode::Native,
            time: TimeAxis::Wall,
            driver: Driver::WorkSteal { workers: 1 },
            processes_per_platform: cfg.processes_per_platform,
            seed: cfg.infra_seed,
            faults: None,
            membership: cfg.membership.clone(),
            trace_out: None,
        },
    )
    .run("join-reference", &mut nodes);
    for (summary, node) in deployed.iter().zip(&nodes) {
        assert_eq!(
            summary.final_rmse_bits,
            node.local_rmse().map(f64::to_bits),
            "node {}: final rmse diverged between processes and engine",
            summary.id
        );
        assert_eq!(summary.store_len, node.store().len());
        assert_eq!(
            summary.stats, result.final_stats[summary.id],
            "node {}: traffic counters diverged",
            summary.id
        );
    }
}

#[test]
#[ignore = "heaviest cluster scenario (4 OS processes + per-process attestation replay, twice); CI runs it via `cargo test --test tcp_cluster -- --ignored`"]
fn sgx_processes_reproduce_attested_run() {
    // Every process replays provisioning + attestation from the shared
    // seed, deriving identical session keys — sealed traffic and
    // handshake byte accounting must match the in-process SGX run.
    let cfg = tiny_cfg(4, true);
    let Some(deployed) = launch(&cfg, "sgx") else {
        return;
    };
    let reference = run_cluster_in_process(&cfg).expect("in-process reference");
    assert_eq!(deployed, reference);

    let mut nodes = build_fleet(&cfg);
    let result = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(nodes.len()),
        EngineConfig {
            epochs: cfg.epochs,
            execution: ExecutionMode::Sgx(SgxCostModel::default()),
            time: TimeAxis::Wall,
            driver: Driver::ThreadPerNode,
            processes_per_platform: cfg.processes_per_platform,
            seed: cfg.infra_seed,
            faults: None,
            membership: None,
            trace_out: None,
        },
    )
    .run("sgx-reference", &mut nodes);
    for (summary, node) in deployed.iter().zip(&nodes) {
        assert_eq!(summary.final_rmse_bits, node.local_rmse().map(f64::to_bits));
        assert_eq!(summary.stats, result.final_stats[summary.id]);
    }
}
