//! Quickstart: a 16-node REX deployment on a small-world graph, compared
//! against model sharing and a centralized baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rex_repro::core::builder::{build_mf_nodes, NodeSeeds};
use rex_repro::core::centralized::run_baseline;
use rex_repro::core::config::{ExecutionMode, GossipAlgorithm, ProtocolConfig, SharingMode};
use rex_repro::core::engine::{Engine, EngineConfig};
use rex_repro::data::{Partition, SyntheticConfig, TrainTestSplit};
use rex_repro::ml::{MfHyperParams, MfModel};
use rex_repro::net::mem::MemNetwork;
use rex_repro::topology::TopologySpec;

fn main() {
    // 1. A MovieLens-like dataset: 16 users, 400 items, dense enough to
    //    learn from.
    let dataset = SyntheticConfig {
        num_users: 16,
        num_items: 400,
        num_ratings: 2_600,
        seed: 42,
        ..SyntheticConfig::default()
    }
    .generate();
    println!(
        "dataset: {} users x {} items, {} ratings (density {:.2}%)",
        dataset.num_users,
        dataset.num_items,
        dataset.ratings.len(),
        dataset.density() * 100.0
    );

    // 2. 70/30 split, one node per user, small-world gossip graph.
    let split = TrainTestSplit::standard(&dataset, 7);
    let partition = Partition::one_user_per_node(&split);
    let graph = TopologySpec::SmallWorld.build(16, 3);

    // 3. Run REX (raw-data sharing) and the model-sharing baseline.
    let sim = EngineConfig {
        epochs: 60,
        execution: ExecutionMode::Native,
        ..EngineConfig::default()
    };
    let mut results = Vec::new();
    for sharing in [SharingMode::RawData, SharingMode::Model] {
        let mut nodes = build_mf_nodes(
            &partition,
            &graph,
            dataset.num_users,
            dataset.num_items,
            MfHyperParams::default(),
            ProtocolConfig {
                sharing,
                algorithm: GossipAlgorithm::DPsgd,
                points_per_epoch: 50,
                steps_per_epoch: 200,
                seed: 1,
                ..ProtocolConfig::default()
            },
            NodeSeeds::default(),
        );
        let engine = Engine::new(MemNetwork::new(nodes.len()), sim.clone());
        let result = engine.run(sharing.label(), &mut nodes);
        results.push(result.trace);
    }

    // 4. Centralized reference.
    let mut central = MfModel::new(
        dataset.num_users,
        dataset.num_items,
        MfHyperParams::default(),
        dataset.mean_rating() as f32,
        NodeSeeds::default().model_init,
    );
    let central_trace = run_baseline(
        "Centralized",
        &mut central,
        &split.train,
        &split.test,
        split.train.len(),
        30,
        5,
    );
    results.push(central_trace);

    // 5. Compare.
    println!(
        "\n{:<14} {:>10} {:>14} {:>14}",
        "scheme", "final RMSE", "sim time", "bytes/node"
    );
    for t in &results {
        println!(
            "{:<14} {:>10.4} {:>12.3}s {:>12.1} KiB",
            t.name,
            t.final_rmse().unwrap_or(f64::NAN),
            t.duration_secs(),
            t.total_bytes_per_node() / 1024.0
        );
    }
    let rex = &results[0];
    let ms = &results[1];
    println!(
        "\nREX moved {:.0}x fewer bytes and finished {:.1}x sooner than model sharing.",
        ms.total_bytes_per_node() / rex.total_bytes_per_node(),
        ms.duration_secs() / rex.duration_secs(),
    );
}
