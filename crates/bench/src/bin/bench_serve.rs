//! Online-serving benchmark with machine-readable output: times top-k
//! queries through the pruned/blocked `Scorer` against the final model
//! of a small decentralized training run, idle and **while training
//! continues next door**, and writes `results/BENCH_serve.json` — the
//! artifact CI uploads to track the serve path's latency trajectory.
//!
//! Two arms mirror the paper's sharing modes: the served model comes
//! from a raw-data-sharing (REX) fleet and from a model-sharing fleet.
//! Each arm is measured twice:
//!
//! * **idle** — the model is frozen; queries hit a warm norm cache;
//! * **concurrent** — a trainer thread keeps running
//!   `train_steps_batched` rounds and swapping fresh model snapshots
//!   into the serving slot, so every adoption invalidates the scorer's
//!   block cache and the query pays the rebuild — the deployed
//!   node-serving regime under live training.
//!
//! Reported per (arm, regime): queries answered, qps, and p50/p99
//! latency, from the best (lowest-p99) of [`WINDOW_REPS`] windows rotated
//! across all four (arm, regime) pairs ([`rex_bench::harness`]). The
//! summary key is `p99_ratio_concurrent` — the worst
//! arm's p99 under training over its idle p99, a machine-speed-
//! independent gauge of how much live training costs the tail.
//!
//! `--check-baseline <path>` compares this run's ratio against a
//! committed baseline JSON and exits non-zero when it regressed more
//! than 25%.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rex_bench::harness::{self, Arm, Gate, Report, Row};
use rex_bench::BenchArgs;
use rex_core::builder::Scenario;
use rex_core::config::{ExecutionMode, SharingMode};
use rex_core::engine::{Driver, Engine, EngineConfig, TimeAxis};
use rex_core::serve::{QueryStream, Scorer};
use rex_data::{Rating, TrainTestSplit};
use rex_ml::{MfModel, Model};
use rex_net::mem::MemNetwork;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The paper's recommendation-list length.
const TOP_K: usize = 10;
/// Steps per trainer round between snapshot publications.
const TRAIN_ROUND_STEPS: usize = 50;
/// Windows measured per (arm, regime), one rotation over the four so
/// each runs first once; the best (lowest-p99) window is reported.
const WINDOW_REPS: usize = 4;

/// Trains a small fleet under the given sharing mode and returns node
/// 0's final model plus the training ratings (the trainer thread's
/// fuel) and the user-universe size for the query stream.
fn train_arm(sharing: SharingMode, epochs: usize) -> (MfModel, Vec<Rating>, u32) {
    // The test suites' small-world fleet, eight users a node.
    let mut scenario = Scenario::two_users_per_node(8);
    scenario.dataset.num_users = 64;
    scenario.dataset.num_items = 1024;
    scenario.dataset.num_ratings = 6_000;
    scenario.protocol.sharing = sharing;
    let mut nodes = scenario.build_fleet();
    Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(nodes.len()),
        EngineConfig {
            epochs,
            execution: ExecutionMode::Native,
            time: TimeAxis::Simulated(Default::default()),
            driver: Driver::WorkSteal { workers: 1 },
            processes_per_platform: 1,
            seed: 0xE0,
            faults: None,
            membership: None,
            trace_out: None,
        },
    )
    .run("serve-train", &mut nodes);
    let train = TrainTestSplit::standard(&scenario.dataset.generate(), scenario.split_seed).train;
    (nodes[0].model().clone(), train, scenario.dataset.num_users)
}

/// Measures one serving window: a seeded query stream against the model
/// in `slot`, adopting whatever snapshot the trainer last published
/// (idle runs never see a swap). Returns the window's row and its p99.
fn serve_window(
    arm: &'static str,
    training: bool,
    window: Duration,
    model: &MfModel,
    data: &[Rating],
    num_users: u32,
) -> (Row, u64) {
    let slot = Arc::new(Mutex::new(Arc::new(model.clone())));
    let stop = Arc::new(AtomicBool::new(false));
    let trainer = training.then(|| {
        let slot = Arc::clone(&slot);
        let stop = Arc::clone(&stop);
        let mut m = model.clone();
        let data = data.to_vec();
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x7EA1);
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) {
                m.train_steps_batched(&data, TRAIN_ROUND_STEPS, &mut rng);
                *slot.lock().expect("slot poisoned") = Arc::new(m.clone());
                rounds += 1;
            }
            rounds
        })
    });

    let mut scorer = Scorer::default();
    let mut stream = QueryStream::new(0x5E37, num_users, TOP_K);
    let mut latencies: Vec<u64> = Vec::with_capacity(4096);
    let mut served_items = 0usize;
    let start = Instant::now();
    while start.elapsed() < window && latencies.len() < 500_000 {
        let q = stream.next_query();
        let t = Instant::now();
        let snapshot = Arc::clone(&slot.lock().expect("slot poisoned"));
        let top = scorer.top_k(&snapshot, &q, &[]);
        latencies.push(t.elapsed().as_nanos() as u64);
        served_items += top.len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = trainer {
        let rounds = handle.join().expect("trainer thread panicked");
        assert!(rounds > 0, "{arm}: trainer thread never published");
    }
    assert_eq!(
        served_items,
        latencies.len() * TOP_K,
        "{arm}: short result lists"
    );

    latencies.sort_unstable();
    let p99 = harness::percentile(&latencies, 0.99);
    let row = Row::new()
        .str("arm", arm)
        .int("training", training)
        .int("queries", latencies.len())
        .num("qps", latencies.len() as f64 / elapsed, 1)
        .int("p50_ns", harness::percentile(&latencies, 0.50))
        .int("p99_ns", p99);
    (row, p99)
}

fn main() {
    let args = BenchArgs::parse();
    let mode = if args.full { "full" } else { "quick" };
    let window = Duration::from_millis(if args.full { 2_000 } else { 800 });
    let epochs = args.epochs.unwrap_or(if args.full { 6 } else { 3 });

    let arms = [("raw", SharingMode::RawData), ("model", SharingMode::Model)];
    let trained: Vec<_> = arms
        .iter()
        .map(|&(name, sharing)| {
            eprintln!("[bench_serve] training {name} arm ({epochs} epochs)");
            (name, train_arm(sharing, epochs))
        })
        .collect();
    // Rows in (arm, regime) order: raw idle, raw training, model idle,
    // model training.
    let mut windows: Vec<Arm<'_, (Row, u64)>> = Vec::new();
    for (name, (model, data, num_users)) in &trained {
        for training in [false, true] {
            windows.push(Box::new(move || {
                serve_window(name, training, window, model, data, *num_users)
            }));
        }
    }
    let windows = harness::rotate("serve windows", WINDOW_REPS, &mut windows);
    let (rows, p99): (Vec<Row>, Vec<u64>) = harness::keep_best(windows, |w| w.1 as f64)
        .into_iter()
        .unzip();
    // Worst arm's p99 under concurrent training over its idle p99: how
    // much the live-training regime costs the latency tail, independent
    // of absolute machine speed.
    let p99_ratio_concurrent = p99
        .chunks(2)
        .map(|pair| pair[1] as f64 / pair[0].max(1) as f64)
        .fold(0.0, f64::max);
    let json = Report::new("serve_topk", mode)
        .fields(Row::new().int("top_k", TOP_K))
        .rows("results", &rows)
        .render(&Row::new().num("p99_ratio_concurrent", p99_ratio_concurrent, 2));
    harness::finish(
        &args,
        "BENCH_serve.json",
        &json,
        &[Gate::ceiling("p99_ratio_concurrent", p99_ratio_concurrent)],
    );
}
