//! Ablation (paper §III-E): "Sharing data brings the question of how much
//! to share in every epoch. We treat this as another hyperparameter."
//!
//! Sweeps the number of raw points shared per epoch and reports the
//! accuracy-vs-time-vs-bytes trade-off that motivates the paper's choice
//! of 300 (MF).

use rex_bench::mf_experiments::{build_fleet, MfScale};
use rex_bench::{output, BenchArgs};
use rex_core::config::{ExecutionMode, GossipAlgorithm, SharingMode};
use rex_core::engine::{Engine, EngineConfig};
use rex_net::mem::MemNetwork;
use rex_topology::TopologySpec;

fn main() {
    let args = BenchArgs::parse();
    let base = if args.full {
        MfScale::one_user_full(&args)
    } else {
        MfScale::one_user_quick(&args)
    };
    println!(
        "Ablation: points shared per epoch (D-PSGD, SW, {} nodes, {} epochs)\n",
        base.scenario.nodes, base.epochs
    );

    let sim = EngineConfig {
        epochs: base.epochs,
        execution: ExecutionMode::Native,
        ..EngineConfig::default()
    };

    let mut traces = Vec::new();
    for points in [10usize, 50, 100, 300, 1000, 3000] {
        let mut scale = base.clone();
        scale.scenario.protocol.points_per_epoch = points;
        eprintln!("[ablation] points/epoch = {points}");
        let mut nodes = build_fleet(
            &scale,
            TopologySpec::SmallWorld,
            SharingMode::RawData,
            GossipAlgorithm::DPsgd,
        );
        let engine = Engine::new(MemNetwork::new(nodes.len()), sim.clone());
        let trace = engine.run(&format!("REX, {points} pts"), &mut nodes).trace;
        traces.push(trace);
    }

    println!(
        "{:<16} {:>10} {:>12} {:>14}",
        "points/epoch", "final RMSE", "sim time", "bytes/node"
    );
    for t in &traces {
        println!(
            "{:<16} {:>10.4} {:>10.3}s {:>14}",
            t.name.trim_start_matches("REX, "),
            t.final_rmse().unwrap_or(f64::NAN),
            t.duration_secs(),
            output::human_bytes(t.total_bytes_per_node())
        );
    }
    println!(
        "\nExpected shape: accuracy saturates while bytes grow linearly —\n\
         a mid-range value (the paper picks 300) is the sweet spot."
    );
    let refs: Vec<&_> = traces.iter().collect();
    output::save_traces("ablation_share_size", &refs);
}
