//! Fig 3 — Effect of the feature-vector (embedding) size k ∈ {10..50} for
//! D-PSGD on a small world: RMSE vs epoch, RMSE vs time, and data volume
//! per round, for MS (row 1) and REX (row 2).
//!
//! Expected shape: MS network load grows linearly in k at little
//! convergence benefit; REX's load is k-independent.

use rex_bench::mf_experiments::{build_fleet, MfScale};
use rex_bench::{output, BenchArgs};
use rex_core::config::{ExecutionMode, GossipAlgorithm, SharingMode};
use rex_core::engine::{Engine, EngineConfig};
use rex_net::mem::MemNetwork;
use rex_topology::TopologySpec;

fn main() {
    let args = BenchArgs::parse();
    let mut scale = if args.full {
        MfScale::one_user_full(&args)
    } else {
        MfScale::one_user_quick(&args)
    };
    // The paper fixes 400 epochs for this sweep; quick mode trims it.
    scale.epochs = args.epochs.unwrap_or(if args.full { 400 } else { 60 });
    println!(
        "Fig 3: embedding-size sweep, D-PSGD, SW. {} nodes, {} epochs",
        scale.scenario.nodes, scale.epochs
    );

    let sim = EngineConfig {
        epochs: scale.epochs,
        execution: ExecutionMode::Native,
        ..EngineConfig::default()
    };

    let mut traces = Vec::new();
    for sharing in [SharingMode::Model, SharingMode::RawData] {
        for k in [10usize, 20, 30, 40, 50] {
            eprintln!("[fig3] {} k={k}", sharing.label());
            let mut nodes = build_fleet(
                &scale.with_k(k),
                TopologySpec::SmallWorld,
                sharing,
                GossipAlgorithm::DPsgd,
            );
            let name = format!("{}, D-PSGD, SW, k={k}", sharing.label());
            let engine = Engine::new(MemNetwork::new(nodes.len()), sim.clone());
            traces.push(engine.run(&name, &mut nodes).trace);
        }
    }

    println!("\nPer-round data volume and final quality:");
    for t in &traces {
        let per_round = t.total_bytes_per_node() / t.records.len() as f64;
        println!(
            "  {:<26} bytes/round {:>12}   final RMSE {:.4}   duration {:>8.2}s",
            t.name,
            output::human_bytes(per_round),
            t.final_rmse().unwrap_or(f64::NAN),
            t.duration_secs()
        );
    }
    // Headline check: MS row grows ~linearly with k; REX row is flat.
    let ms_10 = traces[0].total_bytes_per_node();
    let ms_50 = traces[4].total_bytes_per_node();
    let rex_10 = traces[5].total_bytes_per_node();
    let rex_50 = traces[9].total_bytes_per_node();
    println!(
        "\nMS volume k=50 / k=10: {:.2}x (paper: ~4.6x, linear in k)",
        ms_50 / ms_10
    );
    println!(
        "REX volume k=50 / k=10: {:.2}x (paper: 1.0x, constant)",
        rex_50 / rex_10
    );

    let refs: Vec<&_> = traces.iter().collect();
    output::save_traces("fig3", &refs);
}
