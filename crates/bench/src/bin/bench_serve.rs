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
//! latency. The summary key is `p99_ratio_concurrent` — the worst
//! arm's p99 under training over its idle p99, a machine-speed-
//! independent gauge of how much live training costs the tail.
//!
//! `--check-baseline <path>` compares this run's ratio against a
//! committed baseline JSON and exits non-zero when it regressed more
//! than 25%.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rex_bench::{baseline, output, BenchArgs};
use rex_core::builder::{build_mf_nodes, NodeSeeds};
use rex_core::config::{ExecutionMode, GossipAlgorithm, ProtocolConfig, SharingMode};
use rex_core::engine::{Driver, Engine, EngineConfig, TimeAxis};
use rex_core::serve::{QueryStream, Scorer};
use rex_data::{Partition, Rating, SyntheticConfig, TrainTestSplit};
use rex_ml::{MfHyperParams, MfModel, Model};
use rex_net::mem::MemNetwork;
use rex_topology::TopologySpec;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The paper's recommendation-list length.
const TOP_K: usize = 10;
/// Steps per trainer round between snapshot publications.
const TRAIN_ROUND_STEPS: usize = 50;
/// Windows measured per (arm, regime); the best (lowest-p99) window is
/// reported. Scheduling hiccups only ever inflate a tail, so taking the
/// best window filters OS noise while a real serve-path regression —
/// systematic, present in every window — still shows.
const WINDOW_REPS: usize = 3;

struct Arm {
    name: &'static str,
    sharing: SharingMode,
}

/// One measured regime of one arm.
struct Row {
    arm: &'static str,
    training: bool,
    queries: u64,
    qps: f64,
    p50_ns: u64,
    p99_ns: u64,
}

/// Trains a small fleet under the given sharing mode and returns node
/// 0's final model plus the training ratings (the trainer thread's
/// fuel) and the user-universe size for the query stream.
fn train_arm(sharing: SharingMode, epochs: usize) -> (MfModel, Vec<Rating>, u32) {
    let n = 8;
    let ds = SyntheticConfig {
        num_users: 64,
        num_items: 1024,
        num_ratings: 6_000,
        seed: 42,
        ..SyntheticConfig::default()
    }
    .generate();
    let split = TrainTestSplit::standard(&ds, 7);
    let part = Partition::multi_user(&split, n);
    let graph = TopologySpec::SmallWorld.build(n, 5);
    let mut nodes = build_mf_nodes(
        &part,
        &graph,
        ds.num_users,
        ds.num_items,
        MfHyperParams::default(),
        ProtocolConfig {
            sharing,
            algorithm: GossipAlgorithm::DPsgd,
            points_per_epoch: 40,
            steps_per_epoch: 100,
            seed: 17,
            ..ProtocolConfig::default()
        },
        NodeSeeds::default(),
    );
    Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(n),
        EngineConfig {
            epochs,
            execution: ExecutionMode::Native,
            time: TimeAxis::Simulated(Default::default()),
            driver: Driver::Lockstep,
            processes_per_platform: 1,
            seed: 0xE0,
            faults: None,
            membership: None,
        },
    )
    .run("serve-train", &mut nodes);
    let train = split.train;
    (nodes[0].model().clone(), train, ds.num_users)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Measures one serving window: a seeded query stream against the model
/// in `slot`, adopting whatever snapshot the trainer last published
/// (idle runs never see a swap). Returns per-query latencies.
fn serve_window(
    arm: &'static str,
    training: bool,
    window: Duration,
    model: &MfModel,
    data: &[Rating],
    num_users: u32,
) -> Row {
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
    Row {
        arm,
        training,
        queries: latencies.len() as u64,
        qps: latencies.len() as f64 / elapsed,
        p50_ns: percentile(&latencies, 0.50),
        p99_ns: percentile(&latencies, 0.99),
    }
}

fn render_json(rows: &[Row], ratio: f64, mode: &str) -> String {
    // Hand-rolled JSON: fixed schema, no strings that need escaping.
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"serve_topk\",\n  \"mode\": \"{mode}\",\n  \"top_k\": {TOP_K},\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"arm\": \"{}\", \"training\": {}, \"queries\": {}, \"qps\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}}}{}\n",
            r.arm,
            r.training,
            r.queries,
            r.qps,
            r.p50_ns,
            r.p99_ns,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"summary\": {{\"p99_ratio_concurrent\": {ratio:.2}}}\n}}\n"
    ));
    out
}

fn main() {
    let args = BenchArgs::parse();
    let mode = if args.full { "full" } else { "quick" };
    let window = Duration::from_millis(if args.full { 2_000 } else { 800 });
    let epochs = args.epochs.unwrap_or(if args.full { 6 } else { 3 });

    let arms = [
        Arm {
            name: "raw",
            sharing: SharingMode::RawData,
        },
        Arm {
            name: "model",
            sharing: SharingMode::Model,
        },
    ];

    let mut rows = Vec::new();
    for arm in &arms {
        eprintln!("[bench_serve] training {} arm ({epochs} epochs)", arm.name);
        let (model, data, num_users) = train_arm(arm.sharing, epochs);
        for training in [false, true] {
            let best = (0..WINDOW_REPS)
                .map(|_| serve_window(arm.name, training, window, &model, &data, num_users))
                .min_by_key(|r| r.p99_ns)
                .expect("WINDOW_REPS > 0");
            rows.push(best);
        }
    }

    println!("top-{TOP_K} serving ({mode} mode, {window:?} windows):");
    for r in &rows {
        println!(
            "  {:<6} {:<10} {:>9.0} qps  p50 {:>8} ns  p99 {:>8} ns  ({} queries)",
            r.arm,
            if r.training { "training" } else { "idle" },
            r.qps,
            r.p50_ns,
            r.p99_ns,
            r.queries
        );
    }

    // Worst arm's p99 under concurrent training over its idle p99: how
    // much the live-training regime costs the latency tail, independent
    // of absolute machine speed.
    let ratio_for = |arm: &str| {
        let p99 = |training: bool| {
            rows.iter()
                .find(|r| r.arm == arm && r.training == training)
                .expect("both regimes measured per arm")
                .p99_ns as f64
        };
        p99(true) / p99(false).max(1.0)
    };
    let p99_ratio_concurrent = arms.iter().map(|a| ratio_for(a.name)).fold(0.0, f64::max);
    println!("summary: worst concurrent/idle p99 ratio = {p99_ratio_concurrent:.2}");

    // Read the baseline *before* saving: the committed baseline is
    // usually the same results/ file this run is about to overwrite.
    let baseline = args
        .check_baseline
        .as_ref()
        .map(|path| baseline::read(path, ["p99_ratio_concurrent"]));

    let json = render_json(&rows, p99_ratio_concurrent, mode);
    match output::save("BENCH_serve.json", &json) {
        Ok(path) => println!("[saved] {}", path.display()),
        Err(e) => {
            eprintln!("could not save BENCH_serve.json: {e}");
            std::process::exit(1);
        }
    }

    if let Some([committed]) = baseline {
        let name = "p99_ratio_concurrent";
        if !baseline::holds_ceiling(name, p99_ratio_concurrent, committed) {
            std::process::exit(1);
        }
    }
}
