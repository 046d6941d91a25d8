//! Scale benchmark with machine-readable output: the work-stealing
//! scheduler against the sequential lockstep driver on a large
//! mem-backend fleet, the sparse wire codec against the dense baseline
//! on the Table-IV synthetic workload, and the **user-sharded** fleet
//! arms (each node hosts a contiguous block of virtual users, up to the
//! 1M-user configuration) with RAM-per-user and epoch-time curves, and
//! the **paper-shaped raw fleet** (§IV-A: 610 one-user nodes over
//! 9 000 items and 100 k ratings) with the mean node-epoch split by
//! stage — where a cold node-epoch goes, from the stage times
//! `Node::epoch` itself reports.
//! Writes `results/BENCH_scale.json` — the artifact CI uploads to track
//! the scaling trajectory.
//!
//! Quick mode (default, the CI scale-smoke job): 512 nodes, 5 epochs,
//! and one 64-shard × 1024-users-per-node arm per sharing mode.
//! `--full`: 1024 nodes, 10 epochs, sharded curves up to 16 × 65536
//! (1,048,576 virtual users) — the committed artifact. `--nodes` and
//! `--epochs` override the fleet shape. Both schedulers run the *same*
//! seeded fleet, so their final RMSE must agree to the bit — the
//! benchmark fails loudly if the parallel run diverges, making the
//! artifact an equivalence proof as well as a timing.
//!
//! `--check-baseline PATH` reads a previously committed
//! `BENCH_scale.json` *before* overwriting it and exits non-zero if the
//! quick sharded arm's RAM-per-user, or the quick fleet arm's merge share
//! of the node-epoch, grew more than 25% — the CI regression gates on
//! per-user memory and on the duplicate check. Both are
//! machine-independent (a byte count; a ratio inside one run), and every
//! mode runs the quick-shaped arm of each, so a quick run compares like
//! with like against a committed full-mode file.
//!
//! Scheduler speedup is bounded by the host's cores (`host_cpus` in the
//! JSON): on a single-core container the pool can only tie the
//! sequential driver; the committed numbers record whatever the build
//! host honestly measured.

use rex_bench::{baseline, output, BenchArgs};
use rex_core::builder::{build_mf_nodes, build_mf_nodes_sharded, NodeSeeds};
use rex_core::config::{ExecutionMode, GossipAlgorithm, ProtocolConfig, SharingMode, WireCodec};
use rex_core::engine::{Driver, Engine, EngineConfig, EngineResult, TimeAxis};
use rex_core::membership::MembershipPlan;
use rex_core::Node;
use rex_data::{Partition, SyntheticConfig, TrainTestSplit};
use rex_ml::{MfHyperParams, MfModel};
use rex_net::mem::MemNetwork;
use rex_sim::stage::{Stage, StageTimes, STAGES};
use rex_topology::TopologySpec;
use std::time::Instant;

/// Builds the scheduler benchmark's fleet: `n` nodes over a small world,
/// two users per node (the chaos suite's shape, scaled up).
fn scale_fleet(n: usize, sharing: SharingMode) -> Vec<Node<MfModel>> {
    let ds = SyntheticConfig {
        num_users: (2 * n) as u32,
        num_items: 160,
        num_ratings: 125 * n,
        seed: 42,
        ..SyntheticConfig::default()
    }
    .generate();
    let split = TrainTestSplit::standard(&ds, 7);
    let part = Partition::multi_user(&split, n);
    let graph = TopologySpec::SmallWorld.build(n, 5);
    build_mf_nodes(
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
    )
}

fn engine_config(epochs: usize, driver: Driver) -> EngineConfig {
    EngineConfig {
        epochs,
        execution: ExecutionMode::Native,
        time: TimeAxis::Simulated(Default::default()),
        driver,
        processes_per_platform: 1,
        seed: 0xE0,
        faults: None,
        membership: None,
    }
}

fn run_driver(n: usize, epochs: usize, driver: Driver) -> (f64, EngineResult) {
    let mut nodes = scale_fleet(n, SharingMode::RawData);
    let start = Instant::now();
    let result =
        Engine::<MfModel, MemNetwork>::new(MemNetwork::new(n), engine_config(epochs, driver))
            .run("scale", &mut nodes);
    (start.elapsed().as_secs_f64(), result)
}

/// One codec-comparison arm on the Table-IV quick workload (200 users ×
/// 3000 items over 8 fully connected nodes — `SgxScale::fig6_quick`).
struct CodecRow {
    sharing: &'static str,
    codec: &'static str,
    bytes_per_node_per_epoch: f64,
    final_rmse_bits: u64,
}

fn run_codec_arm(sharing: SharingMode, codec: WireCodec, epochs: usize) -> CodecRow {
    let ds = SyntheticConfig {
        num_users: 200,
        num_items: 3_000,
        num_ratings: 33_000,
        seed: 0xBE7C,
        ..SyntheticConfig::default()
    }
    .generate();
    let split = TrainTestSplit::standard(&ds, 2);
    let part = Partition::multi_user(&split, 8);
    let graph = TopologySpec::FullyConnected.build(8, 0);
    let mut nodes = build_mf_nodes(
        &part,
        &graph,
        ds.num_users,
        ds.num_items,
        MfHyperParams::default(),
        ProtocolConfig {
            sharing,
            codec,
            ..ProtocolConfig::default()
        },
        NodeSeeds::default(),
    );
    let result = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(8),
        engine_config(epochs, Driver::WorkSteal { workers: 0 }),
    )
    .run("codec", &mut nodes);
    CodecRow {
        sharing: match sharing {
            SharingMode::RawData => "raw",
            SharingMode::Model => "model",
        },
        codec: if codec.is_sparse() { "sparse" } else { "dense" },
        bytes_per_node_per_epoch: result.trace.total_bytes_per_node() / epochs as f64,
        final_rmse_bits: result.trace.final_rmse().unwrap_or(f64::NAN).to_bits(),
    }
}

/// The join-wave arm: a quarter of the ids are not founders but join in
/// waves (spread over the run's early epochs, sponsor-bootstrapped),
/// and one founder leaves gracefully near the end — the
/// dynamic-membership stress shape. Run under both lockstep and the
/// work-stealing pool so the artifact doubles as a view-transition
/// equivalence proof at scale.
fn run_join_wave(n: usize, epochs: usize) -> (f64, f64, usize, EngineResult) {
    assert!(epochs >= 3, "join wave needs at least 3 epochs");
    let joiners = (n / 4).max(1);
    let wave_epochs = epochs - 2; // joins land on 1..=epochs-2
    let mut plan = MembershipPlan {
        seed: 0x7A7E,
        bootstrap_points: 40,
        ..MembershipPlan::default()
    };
    for i in 0..joiners {
        plan = plan.with_join(n - joiners + i, 1 + (i % wave_epochs), None);
    }
    plan = plan.with_leave(0, epochs - 1);

    let run = |driver| {
        let mut nodes = scale_fleet(n, SharingMode::RawData);
        let mut cfg = engine_config(epochs, driver);
        cfg.membership = Some(plan.clone());
        let start = Instant::now();
        let result = Engine::<MfModel, MemNetwork>::new(MemNetwork::new(n), cfg)
            .run("join-wave", &mut nodes);
        (start.elapsed().as_secs_f64(), result)
    };
    let (seq_secs, seq) = run(Driver::Lockstep);
    let (pool_secs, pool) = run(Driver::WorkSteal { workers: 0 });
    assert_eq!(
        seq.trace.final_rmse().map(f64::to_bits),
        pool.trace.final_rmse().map(f64::to_bits),
        "join-wave run diverged between lockstep and the work-stealing pool"
    );
    (seq_secs, pool_secs, joiners, pool)
}

/// One user-sharded fleet arm: `shards` enclave nodes, each hosting a
/// contiguous block of `users_per_node` virtual users behind a single
/// wire endpoint (aggregate-then-share: one message per shard per
/// neighbor, never one per user).
struct ShardRow {
    shards: usize,
    users_per_node: u32,
    users: u64,
    sharing: &'static str,
    epochs: usize,
    epoch_secs: f64,
    ram_per_user: f64,
    bytes_per_node_per_epoch: f64,
    final_rmse_bits: u64,
}

fn run_shard_arm(
    shards: usize,
    users_per_node: u32,
    sharing: SharingMode,
    epochs: usize,
) -> ShardRow {
    let num_users = shards as u32 * users_per_node;
    let ds = SyntheticConfig {
        num_users,
        num_items: 160,
        num_ratings: 5 * num_users as usize,
        seed: 42,
        ..SyntheticConfig::default()
    }
    .generate();
    let split = TrainTestSplit::standard(&ds, 7);
    let (part, blocks) = Partition::user_blocks(&split, shards);
    let graph = TopologySpec::SmallWorld.build(shards, 5);
    // Model sharing at these scales only makes sense over the sparse
    // delta codec (a dense 1M-row embedding table per message would
    // swamp the fabric); raw sharing keeps the dense rating encoding.
    let codec = match sharing {
        SharingMode::RawData => WireCodec::Dense,
        SharingMode::Model => WireCodec::sparse(),
    };
    let mut nodes = build_mf_nodes_sharded(
        &part,
        &blocks,
        &graph,
        ds.num_users,
        ds.num_items,
        MfHyperParams::default(),
        ProtocolConfig {
            sharing,
            codec,
            algorithm: GossipAlgorithm::DPsgd,
            points_per_epoch: 40,
            steps_per_epoch: 100,
            seed: 17,
        },
        NodeSeeds::default(),
    );
    let start = Instant::now();
    let result = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(shards),
        engine_config(epochs, Driver::Lockstep),
    )
    .run("shard", &mut nodes);
    let secs = start.elapsed().as_secs_f64();
    let last = result.trace.records.last().expect("shard arm ran epochs");
    ShardRow {
        shards,
        users_per_node,
        users: u64::from(num_users),
        sharing: match sharing {
            SharingMode::RawData => "raw",
            SharingMode::Model => "model",
        },
        epochs,
        epoch_secs: secs / epochs as f64,
        ram_per_user: last.ram_bytes / f64::from(users_per_node),
        bytes_per_node_per_epoch: result.trace.total_bytes_per_node() / epochs as f64,
        final_rmse_bits: result.trace.final_rmse().unwrap_or(f64::NAN).to_bits(),
    }
}

/// One paper-shaped fleet arm: where the mean node-epoch goes, by the
/// stage times every [`rex_core::node::EpochReport`] carries.
struct FleetEpochRow {
    shape: &'static str,
    epochs: usize,
    /// Mean stage times over every node-epoch of the run.
    mean: StageTimes,
    final_rmse_bits: u64,
}

impl FleetEpochRow {
    fn node_epoch_us(&self) -> f64 {
        self.mean.total() as f64 / 1e3
    }

    /// The merge stage's share of the staged node-epoch: on a raw fleet,
    /// decode + the store's duplicate check.
    fn merge_share(&self) -> f64 {
        self.mean.get(Stage::Merge) as f64 / self.mean.total() as f64
    }

    /// `label(stage, µs)` over the stages in pipeline order.
    fn stages(&self, label: impl Fn(&str, f64) -> String) -> Vec<String> {
        STAGES
            .iter()
            .map(|&stage| label(stage.label(), self.mean.get(stage) as f64 / 1e3))
            .collect()
    }
}

const FLEET_NODES: usize = 610;
const FLEET_ITEMS: u32 = 9_000;
const FLEET_RATINGS: usize = 100_000;
const FLEET_WORKERS: usize = 2;

/// The paper's headline scenario (§IV-A) on the repo benchmark's
/// `sim-fleet` settings: one user per node, small world, D-PSGD raw
/// sharing of 300 points, 300 SGD steps. 610 models of 424 KB are
/// ~260 MB, so each node's tables, key set and ratings are out of cache
/// by the time its turn comes round again — the cold node-epoch.
fn run_fleet_epoch(shape: &'static str, epochs: usize) -> FleetEpochRow {
    let ds = SyntheticConfig {
        num_users: FLEET_NODES as u32,
        num_items: FLEET_ITEMS,
        num_ratings: FLEET_RATINGS,
        seed: 42,
        ..SyntheticConfig::default()
    }
    .generate();
    let split = TrainTestSplit::standard(&ds, 7);
    let part = Partition::one_user_per_node(&split);
    let graph = TopologySpec::SmallWorld.build(FLEET_NODES, 5);
    let mut nodes = build_mf_nodes(
        &part,
        &graph,
        ds.num_users,
        ds.num_items,
        MfHyperParams::default(),
        ProtocolConfig {
            sharing: SharingMode::RawData,
            algorithm: GossipAlgorithm::DPsgd,
            points_per_epoch: 300,
            steps_per_epoch: 300,
            seed: 17,
            ..ProtocolConfig::default()
        },
        NodeSeeds::default(),
    );
    let driver = Driver::WorkSteal {
        workers: FLEET_WORKERS,
    };
    let result = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(FLEET_NODES),
        engine_config(epochs, driver),
    )
    .run("fleet-epoch", &mut nodes);
    FleetEpochRow {
        shape,
        epochs,
        mean: result.trace.mean_stage_times(),
        final_rmse_bits: result.trace.final_rmse().unwrap_or(f64::NAN).to_bits(),
    }
}

fn main() {
    let args = BenchArgs::parse();
    let mode = if args.full { "full" } else { "quick" };
    let nodes = args.nodes.unwrap_or(if args.full { 1024 } else { 512 });
    let epochs = args.epochs.unwrap_or(if args.full { 10 } else { 5 });
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // Warm both drivers (allocator, page cache) before timing anything,
    // so run order does not bias the comparison.
    let _ = run_driver(64, 1, Driver::Lockstep);
    let _ = run_driver(64, 1, Driver::WorkSteal { workers: 0 });

    // Paper-shaped fleet: the node-epoch by stage. Every mode runs the
    // quick shape (what the merge-share gate compares); full mode adds
    // the repo benchmark's nominal length, where the stores have grown.
    // First of all arms, so that every mode measures the quick shape in
    // the same process state: run right after the 1M-user sharded arms
    // had returned their gigabytes, its merge stage (the one that
    // allocates) read 74-78 µs in epochs 2-3 where the same epochs of
    // the arm after it read 49.
    let fleet_arms: &[(&str, usize)] = if args.full {
        &[("quick", 10), ("full", 30)]
    } else {
        &[("quick", 10)]
    };
    let mut fleet_rows = Vec::new();
    for &(shape, fleet_epochs) in fleet_arms {
        eprintln!(
            "[bench_scale] fleet arm ({shape}): {FLEET_NODES} nodes x {fleet_epochs} epochs..."
        );
        fleet_rows.push(run_fleet_epoch(shape, fleet_epochs));
    }
    println!(
        "fleet node-epoch ({FLEET_NODES} x {FLEET_ITEMS} x {FLEET_RATINGS}, raw, \
         {FLEET_WORKERS} workers), mean us by stage:"
    );
    for r in &fleet_rows {
        let stages = r.stages(|stage, us| format!("{stage} {us:.1}"));
        println!(
            "  {:<5} ({:>2} epochs): {} = {:.1} us, merge share {:.3}",
            r.shape,
            r.epochs,
            stages.join(" + "),
            r.node_epoch_us(),
            r.merge_share()
        );
    }
    let quick_merge_share = fleet_rows[0].merge_share();

    eprintln!("[bench_scale] {nodes} nodes x {epochs} epochs, sequential driver...");
    let (seq_secs, seq) = run_driver(nodes, epochs, Driver::Lockstep);
    eprintln!("[bench_scale] work-stealing pool ({host_cpus} workers)...");
    let (pool_secs, pool) = run_driver(nodes, epochs, Driver::WorkSteal { workers: 0 });

    let seq_rmse = seq.trace.final_rmse().expect("sequential run has epochs");
    let pool_rmse = pool.trace.final_rmse().expect("pool run has epochs");
    assert_eq!(
        seq_rmse.to_bits(),
        pool_rmse.to_bits(),
        "work-stealing scheduler diverged from the sequential driver"
    );
    let speedup = seq_secs / pool_secs;
    println!(
        "scheduler ({nodes} nodes x {epochs} epochs, {host_cpus} cores): \
         sequential {seq_secs:.2}s, work-steal {pool_secs:.2}s, speedup {speedup:.2}x, \
         final rmse {seq_rmse:.4} (bit-identical)"
    );

    let codec_epochs = if args.full { 10 } else { 5 };
    let mut codec_rows = Vec::new();
    for sharing in [SharingMode::RawData, SharingMode::Model] {
        for codec in [WireCodec::Dense, WireCodec::sparse()] {
            eprintln!("[bench_scale] codec arm: {:?} / {:?}...", sharing, codec);
            codec_rows.push(run_codec_arm(sharing, codec, codec_epochs));
        }
    }
    println!("codec (table4 workload, 8 nodes x {codec_epochs} epochs):");
    for r in &codec_rows {
        println!(
            "  {:<6} {:<6}: {:>10.0} B/node/epoch",
            r.sharing, r.codec, r.bytes_per_node_per_epoch
        );
    }
    // The artifact's second claim: sparse moves fewer bytes in both
    // sharing modes, and sparse model sharing learns identically.
    for pair in codec_rows.chunks(2) {
        assert!(
            pair[1].bytes_per_node_per_epoch < pair[0].bytes_per_node_per_epoch,
            "{}: sparse did not reduce bytes",
            pair[0].sharing
        );
    }
    assert_eq!(
        codec_rows[2].final_rmse_bits, codec_rows[3].final_rmse_bits,
        "sparse model sharing changed the learning trajectory"
    );

    // Join-wave arm: dynamic membership at the same fleet scale.
    eprintln!("[bench_scale] join-wave arm ({nodes} ids, both drivers)...");
    let (wave_seq_secs, wave_pool_secs, wave_joiners, wave) = run_join_wave(nodes, epochs.max(3));
    let wave_first_live = wave.trace.records.first().map_or(0, |r| r.live_nodes);
    let wave_last_live = wave.trace.records.last().map_or(0, |r| r.live_nodes);
    println!(
        "join wave ({nodes} ids, {wave_joiners} joiners, 1 leave): live {wave_first_live} -> \
         {wave_last_live}, sequential {wave_seq_secs:.2}s, work-steal {wave_pool_secs:.2}s, \
         bit-identical across drivers"
    );
    assert_eq!(wave_first_live, nodes - wave_joiners);
    assert_eq!(
        wave_last_live,
        nodes - 1,
        "everyone joined, one founder left"
    );

    // User-sharded arms: RAM-per-user and epoch-time curves. Quick mode
    // runs the CI smoke shape (64 shards x 1024 users, both sharing
    // modes); full mode extends the raw curve through 262k users and the
    // 1M-user configuration, and gives model sharing a second point.
    let shard_arms: &[(usize, u32, SharingMode)] = if args.full {
        &[
            (64, 1024, SharingMode::RawData),
            (64, 2048, SharingMode::RawData),
            (64, 4096, SharingMode::RawData),
            (16, 65536, SharingMode::RawData), // 1,048,576 virtual users
            (64, 1024, SharingMode::Model),
            (64, 2048, SharingMode::Model),
        ]
    } else {
        &[
            (64, 1024, SharingMode::RawData),
            (64, 1024, SharingMode::Model),
        ]
    };
    let mut shard_rows = Vec::new();
    for &(shards, upn, sharing) in shard_arms {
        eprintln!(
            "[bench_scale] sharded arm: {shards} shards x {upn} users ({:?})...",
            sharing
        );
        shard_rows.push(run_shard_arm(shards, upn, sharing, epochs));
    }
    println!("user sharding ({epochs} epochs per arm):");
    for r in &shard_rows {
        println!(
            "  {:>3} shards x {:>6} users ({:<5}): {:>8.1} B/user RAM, {:>7.3} s/epoch, \
             {:>10.0} B/node/epoch",
            r.shards,
            r.users_per_node,
            r.sharing,
            r.ram_per_user,
            r.epoch_secs,
            r.bytes_per_node_per_epoch
        );
    }

    // Wire-traffic claim: bytes per node per epoch track the shard
    // count (a shard sends one aggregate message per neighbor), not the
    // user count — quadrupling users per shard must not move traffic by
    // more than encoding slack.
    let wire_small = run_shard_arm(32, 256, SharingMode::RawData, epochs);
    let wire_large = run_shard_arm(32, 1024, SharingMode::RawData, epochs);
    let wire_ratio = wire_large.bytes_per_node_per_epoch / wire_small.bytes_per_node_per_epoch;
    println!(
        "wire scaling (32 shards, raw): {:>8.0} B/node/epoch at 256 u/shard, {:>8.0} at 1024 \
         u/shard (ratio {wire_ratio:.3})",
        wire_small.bytes_per_node_per_epoch, wire_large.bytes_per_node_per_epoch
    );
    assert!(
        wire_ratio < 1.10,
        "wire traffic scaled with user count (ratio {wire_ratio:.3}), not shard count"
    );

    let quick_ram_per_user = shard_rows
        .iter()
        .find(|r| r.shards == 64 && r.users_per_node == 1024 && r.sharing == "raw")
        .expect("every mode runs the 64x1024 raw arm")
        .ram_per_user;

    // Read the baseline *before* saving: the committed baseline is
    // usually the same results/ file this run is about to overwrite.
    let baseline = args.check_baseline.as_ref().map(|path| {
        baseline::read(
            path,
            ["shard_ram_per_user_64x1024_raw", "fleet_merge_share_quick"],
        )
    });

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"scale\",\n  \"mode\": \"{mode}\",\n  \"host_cpus\": {host_cpus},\n"
    ));
    json.push_str(&format!(
        "  \"scheduler\": {{\"nodes\": {nodes}, \"epochs\": {epochs}, \"workers\": {host_cpus}, \
         \"sequential_secs\": {seq_secs:.3}, \"work_steal_secs\": {pool_secs:.3}, \
         \"speedup\": {speedup:.3}, \"final_rmse_bits_equal\": true, \
         \"final_rmse_bits\": \"{:#018x}\"}},\n",
        seq_rmse.to_bits()
    ));
    json.push_str("  \"codec\": [\n");
    for (i, r) in codec_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"sharing\": \"{}\", \"codec\": \"{}\", \"epochs\": {codec_epochs}, \
             \"bytes_per_node_per_epoch\": {:.1}, \"final_rmse_bits\": \"{:#018x}\"}}{}\n",
            r.sharing,
            r.codec,
            r.bytes_per_node_per_epoch,
            r.final_rmse_bits,
            if i + 1 < codec_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"membership\": {{\"nodes\": {nodes}, \"epochs\": {}, \"joiners\": {wave_joiners}, \
         \"leaves\": 1, \"live_first\": {wave_first_live}, \"live_last\": {wave_last_live}, \
         \"sequential_secs\": {wave_seq_secs:.3}, \"work_steal_secs\": {wave_pool_secs:.3}, \
         \"final_rmse_bits_equal\": true, \"final_rmse_bits\": \"{:#018x}\"}},\n",
        epochs.max(3),
        wave.trace.final_rmse().unwrap_or(f64::NAN).to_bits()
    ));
    json.push_str("  \"sharding\": [\n");
    for (i, r) in shard_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"users_per_node\": {}, \"users\": {}, \"sharing\": \"{}\", \
             \"epochs\": {}, \"ram_per_user_bytes\": {:.1}, \"epoch_secs\": {:.4}, \
             \"bytes_per_node_per_epoch\": {:.1}, \"final_rmse_bits\": \"{:#018x}\"}}{}\n",
            r.shards,
            r.users_per_node,
            r.users,
            r.sharing,
            r.epochs,
            r.ram_per_user,
            r.epoch_secs,
            r.bytes_per_node_per_epoch,
            r.final_rmse_bits,
            if i + 1 < shard_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"wire_scaling\": {{\"shards\": 32, \"sharing\": \"raw\", \
         \"bytes_per_node_per_epoch_256u\": {:.1}, \"bytes_per_node_per_epoch_1024u\": {:.1}, \
         \"ratio\": {wire_ratio:.4}}},\n",
        wire_small.bytes_per_node_per_epoch, wire_large.bytes_per_node_per_epoch
    ));
    json.push_str("  \"fleet_epoch\": [\n");
    for (i, r) in fleet_rows.iter().enumerate() {
        let stages = r.stages(|stage, us| format!("\"{stage}_us\": {us:.1}"));
        json.push_str(&format!(
            "    {{\"shape\": \"{}\", \"nodes\": {FLEET_NODES}, \"items\": {FLEET_ITEMS}, \
             \"ratings\": {FLEET_RATINGS}, \"epochs\": {}, \"workers\": {FLEET_WORKERS}, {}, \
             \"node_epoch_us\": {:.1}, \"merge_share\": {:.4}, \
             \"final_rmse_bits\": \"{:#018x}\"}}{}\n",
            r.shape,
            r.epochs,
            stages.join(", "),
            r.node_epoch_us(),
            r.merge_share(),
            r.final_rmse_bits,
            if i + 1 < fleet_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"summary\": {{\"shard_ram_per_user_64x1024_raw\": {quick_ram_per_user:.1}, \
         \"fleet_merge_share_quick\": {quick_merge_share:.4}}}\n"
    ));
    json.push_str("}\n");

    match output::save("BENCH_scale.json", &json) {
        Ok(path) => println!("[saved] {}", path.display()),
        Err(e) => {
            eprintln!("could not save BENCH_scale.json: {e}");
            std::process::exit(1);
        }
    }

    // CI gates: the quick sharded arm's RAM-per-user and the quick fleet
    // arm's merge share against the committed baseline.
    if let Some([ram, merge_share]) = baseline {
        let ram_ok =
            baseline::holds_ceiling("shard_ram_per_user_64x1024_raw", quick_ram_per_user, ram);
        let merge_ok =
            baseline::holds_ceiling("fleet_merge_share_quick", quick_merge_share, merge_share);
        if !(ram_ok && merge_ok) {
            std::process::exit(1);
        }
    }
}
