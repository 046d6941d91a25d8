//! Configurable decentralized-recommender simulation: choose sharing mode,
//! gossip algorithm, topology, node count and epochs from the command line.
//!
//! ```text
//! cargo run --release --example movielens_sim -- \
//!     [rex|ms] [rmw|dpsgd] [sw|er|fc|ring] [nodes] [epochs] [--sgx]
//! e.g. cargo run --release --example movielens_sim -- rex dpsgd sw 64 80
//! ```

use rex_repro::core::builder::Scenario;
use rex_repro::core::config::{ExecutionMode, GossipAlgorithm, ProtocolConfig, SharingMode};
use rex_repro::core::engine::{Engine, EngineConfig};
use rex_repro::data::SyntheticConfig;
use rex_repro::net::mem::MemNetwork;
use rex_repro::tee::SgxCostModel;
use rex_repro::topology::TopologySpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sharing = match args.first().map(String::as_str) {
        Some("ms") => SharingMode::Model,
        _ => SharingMode::RawData,
    };
    let algorithm = match args.get(1).map(String::as_str) {
        Some("rmw") => GossipAlgorithm::Rmw,
        _ => GossipAlgorithm::DPsgd,
    };
    let topology = match args.get(2).map(String::as_str) {
        Some("er") => TopologySpec::ErdosRenyi,
        Some("fc") => TopologySpec::FullyConnected,
        Some("ring") => TopologySpec::Ring,
        _ => TopologySpec::SmallWorld,
    };
    let nodes: usize = args.get(3).and_then(|v| v.parse().ok()).unwrap_or(64);
    let epochs: usize = args.get(4).and_then(|v| v.parse().ok()).unwrap_or(80);
    let sgx = args.iter().any(|a| a == "--sgx");

    println!(
        "running {} / {} on {} ({} nodes, {} epochs, {})",
        sharing.label(),
        algorithm.label(),
        topology.label(),
        nodes,
        epochs,
        if sgx { "SGX" } else { "native" }
    );

    // One node per user; 30 items and, as in MovieLens-latest, 164
    // ratings per user.
    let mut fleet = Scenario {
        dataset: SyntheticConfig {
            num_users: nodes as u32,
            num_items: (nodes * 30) as u32,
            num_ratings: nodes * 164,
            seed: 11,
            ..SyntheticConfig::default()
        },
        split_seed: 1,
        nodes,
        topology,
        protocol: ProtocolConfig {
            sharing,
            algorithm,
            seed: 3,
            ..ProtocolConfig::default()
        },
        ..Scenario::default()
    }
    .build_fleet();

    let execution = if sgx {
        ExecutionMode::Sgx(SgxCostModel::default())
    } else {
        ExecutionMode::Native
    };
    let cfg = EngineConfig {
        epochs,
        execution,
        ..EngineConfig::default()
    };
    let result = Engine::new(MemNetwork::new(fleet.len()), cfg).run(
        &format!(
            "{}, {}, {}",
            sharing.label(),
            algorithm.label(),
            topology.label()
        ),
        &mut fleet,
    );

    if sgx {
        println!("attestation setup: {:.2} ms", result.setup_ns as f64 / 1e6);
    }
    println!("\nepoch  time[s]   rmse     bytes/node");
    let step = (epochs / 12).max(1);
    for r in result.trace.records.iter().step_by(step) {
        println!(
            "{:>5} {:>8.3} {:>8.4} {:>12.1} KiB",
            r.epoch,
            r.time_ns as f64 / 1e9,
            r.rmse,
            r.bytes_per_node / 1024.0
        );
    }
    println!(
        "\nfinal: rmse={:.4} after {:.3}s simulated; {:.1} MiB/node total traffic",
        result.trace.final_rmse().unwrap_or(f64::NAN),
        result.trace.duration_secs(),
        result.trace.total_bytes_per_node() / (1024.0 * 1024.0)
    );
}
