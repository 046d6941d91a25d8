//! Quickstart: a 16-node REX deployment on a small-world graph, compared
//! against model sharing and a centralized baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rex_repro::core::builder::Scenario;
use rex_repro::core::centralized::run_baseline;
use rex_repro::core::config::{ExecutionMode, ProtocolConfig, SharingMode};
use rex_repro::core::engine::{Engine, EngineConfig};
use rex_repro::data::{SyntheticConfig, TrainTestSplit};
use rex_repro::ml::MfModel;
use rex_repro::net::mem::MemNetwork;
use rex_repro::topology::TopologySpec;

fn main() {
    // 1. A MovieLens-like dataset (16 users, 400 items, dense enough to
    //    learn from), split 70/30, one node per user on a small world.
    let scenario = Scenario {
        dataset: SyntheticConfig {
            num_users: 16,
            num_items: 400,
            num_ratings: 2_600,
            seed: 42,
            ..SyntheticConfig::default()
        },
        nodes: 16,
        topology: TopologySpec::SmallWorld,
        topology_seed: 3,
        protocol: ProtocolConfig {
            points_per_epoch: 50,
            steps_per_epoch: 200,
            seed: 1,
            ..ProtocolConfig::default()
        },
        ..Scenario::default()
    };
    let dataset = scenario.dataset.generate();
    println!(
        "dataset: {} users x {} items, {} ratings (density {:.2}%)",
        dataset.num_users,
        dataset.num_items,
        dataset.ratings.len(),
        dataset.density() * 100.0
    );

    // 2. Run REX (raw-data sharing) and the model-sharing baseline.
    let sim = EngineConfig {
        epochs: 60,
        execution: ExecutionMode::Native,
        ..EngineConfig::default()
    };
    let mut results = Vec::new();
    for sharing in [SharingMode::RawData, SharingMode::Model] {
        let mut fleet = scenario.clone();
        fleet.protocol.sharing = sharing;
        let mut nodes = fleet.build_fleet();
        let engine = Engine::new(MemNetwork::new(nodes.len()), sim.clone());
        let result = engine.run(sharing.label(), &mut nodes);
        results.push(result.trace);
    }

    // 3. Centralized reference on the same split.
    let split = TrainTestSplit::standard(&dataset, scenario.split_seed);
    let mut central = MfModel::new(
        dataset.num_users,
        dataset.num_items,
        scenario.hp,
        dataset.mean_rating() as f32,
        scenario.model_seed,
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

    // 4. Compare.
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
