//! Scale benchmark with machine-readable output: the work-stealing
//! scheduler against the sequential lockstep driver on a large
//! mem-backend fleet, the sparse wire codec against the dense baseline
//! on the Table-IV synthetic workload, and the **user-sharded** fleet
//! arms (each node hosts a contiguous block of virtual users, up to the
//! 1M-user configuration) with RAM-per-user and epoch-time curves, and
//! the **paper-shaped raw fleet** (§IV-A: 610 one-user nodes over
//! 9 000 items and 100 k ratings) with the mean node-epoch split by
//! stage — where a cold node-epoch goes, from the stage times
//! `Node::epoch` itself reports — and **bounded-async vs lockstep**:
//! time-to-target RMSE of `round::run_node_loop_async` against
//! `round::run_node_loop` on an 8-node loopback TCP cluster, every node
//! even and with one node stalled at every epoch start — and the paper
//! shape's **cold set-up** by layer (generate, split, partition, build),
//! with the generator timed against its pre-rewrite reference
//! ([`rex_bench::reference`]) in every window.
//! Writes (and prints) `results/BENCH_scale.json` — the artifact CI
//! uploads to track the scaling trajectory. Timed comparisons take
//! their windows in rotation ([`rex_bench::harness`]).
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
//! quick sharded arm's RAM-per-user, the quick fleet arm's merge share
//! of the node-epoch, or the MB its models hold (shared init once, plus
//! each node's own rows) grew more than 25%, or bounded-async's
//! time-to-target speedup under the straggler or the generator's speedup
//! over its reference (`generate_speedup`) fell more than 25% — the CI
//! regression gates on per-user memory, on the duplicate check, on
//! copy-on-write sharing, on the one execution mode without barriers and
//! on the cold set-up's largest layer.
//! None compares absolute time across hosts (byte counts; ratios inside
//! one run, the straggler's stall sized from the same run's even
//! lockstep epoch), and every
//! mode runs the quick-shaped arm of each, so a quick run compares like
//! with like against a committed full-mode file (the set-up block runs
//! the same shape in both modes; full mode takes more windows). Reported
//! and never gated: each sharded and fleet row's `setup_secs` and the
//! set-up block's per-layer ms (dataset, split, partition and build:
//! absolute time) and each fleet row's `row_union_share` (moves only when
//! trajectories do).
//!
//! Scheduler speedup is bounded by the host's cores (`host_cpus` in the
//! JSON): on a single-core container the pool can only tie the
//! sequential driver; the committed numbers record whatever the build
//! host honestly measured.

use rex_bench::harness::{self, Arm, Gate, Report, Row};
use rex_bench::reference::reference_generate;
use rex_bench::BenchArgs;
use rex_core::builder::{build_mf_nodes, Scenario};
use rex_core::config::{ExecutionMode, ProtocolConfig, SharingMode, WireCodec};
use rex_core::engine::{Driver, Engine, EngineConfig, EngineResult, TimeAxis};
use rex_core::membership::MembershipPlan;
use rex_core::round::{self, RoundContext};
use rex_core::setup::establish_tee;
use rex_core::Node;
use rex_data::{Partition, SyntheticConfig, TrainTestSplit};
use rex_ml::MfModel;
use rex_net::mem::MemNetwork;
use rex_net::tcp::TcpTransport;
use rex_net::Transport;
use rex_sim::stage::{Stage, STAGES};
use rex_tee::SgxCostModel;
use rex_topology::TopologySpec;
use std::hint::black_box;
use std::time::{Duration, Instant};

const FLEET_NODES: usize = 610;
const FLEET_ITEMS: u32 = 9_000;
const FLEET_RATINGS: usize = 100_000;
const FLEET_WORKERS: usize = 2;

const ASYNC_NODES: usize = 8;
/// Neighbour shares a bounded-async node waits for before it trains.
const ASYNC_K: usize = 2;
/// The mean local RMSE over the cluster both drivers race to.
const ASYNC_TARGET_RMSE: f64 = 0.575;
/// Epoch budget: lockstep reaches the target near epoch 895, and
/// bounded-async within a few epochs of that.
const ASYNC_EPOCHS: usize = 1_100;

fn sharing_name(sharing: SharingMode) -> &'static str {
    match sharing {
        SharingMode::RawData => "raw",
        SharingMode::Model => "model",
    }
}

/// A run's final RMSE bits, as the JSON writes them.
fn rmse_bits(result: &EngineResult) -> String {
    let rmse = result.trace.final_rmse().unwrap_or(f64::NAN);
    format!("{:#018x}", rmse.to_bits())
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
        trace_out: None,
    }
}

/// Runs `nodes` through `epochs` over an in-memory fabric.
fn run_mem(nodes: &mut [Node<MfModel>], cfg: EngineConfig) -> EngineResult {
    Engine::<MfModel, MemNetwork>::new(MemNetwork::new(nodes.len()), cfg).run("scale", nodes)
}

/// The inline driver against the work-stealing pool on `n` nodes of two
/// users each on a small world (the chaos suite's shape, scaled up):
/// `reps` rotated windows per driver (each on a fresh fleet, built
/// untimed), keeping each driver's fastest. Asserts that every run of
/// either driver ends on the same final-RMSE bits.
fn race(
    label: &str,
    n: usize,
    reps: usize,
    cfg: impl Fn(Driver) -> EngineConfig,
) -> [(f64, EngineResult); 2] {
    let cfg = &cfg;
    let mut arms: Vec<Arm<'_, (f64, EngineResult)>> = [
        Driver::WorkSteal { workers: 1 },
        Driver::WorkSteal { workers: 0 },
    ]
    .into_iter()
    .map(|driver| {
        Box::new(move || {
            let mut nodes = Scenario::two_users_per_node(n).build_fleet();
            let start = Instant::now();
            let result = run_mem(&mut nodes, cfg(driver));
            (start.elapsed().as_secs_f64(), result)
        }) as Arm<'_, _>
    })
    .collect();
    let windows = harness::rotate(label, reps, &mut arms);
    let bits: Vec<String> = windows
        .iter()
        .flatten()
        .map(|(_, r)| rmse_bits(r))
        .collect();
    assert!(
        bits.iter().all(|b| *b == bits[0]),
        "{label}: the work-stealing pool diverged from the sequential driver"
    );
    let mut best = harness::keep_best(windows, |w| w.0).into_iter();
    [best.next().unwrap(), best.next().unwrap()]
}

/// The join-wave plan: a quarter of the ids are not founders but join
/// in waves (spread over the run's early epochs, sponsor-bootstrapped),
/// and one founder leaves gracefully near the end — the
/// dynamic-membership stress shape.
fn join_wave(n: usize, epochs: usize) -> MembershipPlan {
    assert!(epochs >= 3, "join wave needs at least 3 epochs");
    let joiners = (n / 4).max(1);
    let mut plan = MembershipPlan {
        seed: 0x7A7E,
        bootstrap_points: 40,
        ..MembershipPlan::default()
    };
    for i in 0..joiners {
        // Joins land on epochs 1..=epochs-2.
        plan = plan.with_join(n - joiners + i, 1 + (i % (epochs - 2)), None);
    }
    plan.with_leave(0, epochs - 1)
}

/// One codec-comparison arm on the Table-IV quick workload (200 users ×
/// 3000 items over 8 fully connected nodes — `SgxScale::fig6_quick`).
/// Returns bytes per node per epoch and the final-RMSE bits.
fn run_codec_arm(sharing: SharingMode, codec: WireCodec, epochs: usize) -> (f64, String) {
    let mut nodes = Scenario {
        dataset: SyntheticConfig {
            num_users: 200,
            num_items: 3_000,
            num_ratings: 33_000,
            seed: 0xBE7C,
            ..SyntheticConfig::default()
        },
        split_seed: 2,
        protocol: ProtocolConfig {
            sharing,
            codec,
            ..ProtocolConfig::default()
        },
        ..Scenario::default()
    }
    .build_fleet();
    let result = run_mem(
        &mut nodes,
        engine_config(epochs, Driver::WorkSteal { workers: 0 }),
    );
    (
        result.trace.total_bytes_per_node() / epochs as f64,
        rmse_bits(&result),
    )
}

/// One user-sharded fleet arm: `shards` enclave nodes, each hosting a
/// contiguous block of `users_per_node` virtual users behind a single
/// wire endpoint (aggregate-then-share: one message per shard per
/// neighbor, never one per user). Returns the row, its RAM per user and
/// its bytes per node per epoch.
fn run_shard_arm(
    shards: usize,
    users_per_node: u32,
    sharing: SharingMode,
    epochs: usize,
) -> (Row, f64, f64) {
    let num_users = shards as u32 * users_per_node;
    let setup = Instant::now();
    // Model sharing at these scales only makes sense over the sparse
    // delta codec (a dense 1M-row embedding table per message would
    // swamp the fabric); raw sharing keeps the dense rating encoding.
    let codec = match sharing {
        SharingMode::RawData => WireCodec::Dense,
        SharingMode::Model => WireCodec::Sparse,
    };
    // The scheduler fleet's shape, `users_per_node` users a shard.
    let mut s = Scenario::two_users_per_node(shards);
    s.dataset.num_users = num_users;
    s.dataset.num_ratings = 5 * num_users as usize;
    s.sharded = true;
    (s.protocol.sharing, s.protocol.codec) = (sharing, codec);
    let mut nodes = s.build_fleet();
    let setup_secs = setup.elapsed().as_secs_f64();
    let start = Instant::now();
    let result = run_mem(
        &mut nodes,
        engine_config(epochs, Driver::WorkSteal { workers: 1 }),
    );
    let secs = start.elapsed().as_secs_f64();
    let last = result.trace.records.last().expect("shard arm ran epochs");
    let ram_per_user = last.ram_bytes / f64::from(users_per_node);
    let bytes = result.trace.total_bytes_per_node() / epochs as f64;
    let row = Row::new()
        .int("shards", shards)
        .int("users_per_node", users_per_node)
        .int("users", num_users)
        .str("sharing", sharing_name(sharing))
        .int("epochs", epochs)
        .num("setup_secs", setup_secs, 3)
        .num("ram_per_user_bytes", ram_per_user, 1)
        .num("epoch_secs", secs / epochs as f64, 4)
        .num("bytes_per_node_per_epoch", bytes, 1)
        .str("final_rmse_bits", &rmse_bits(&result));
    (row, ram_per_user, bytes)
}

/// The paper's data (610 users × 9 000 items, 100 k ratings) on `nodes`
/// nodes of a small world, D-PSGD raw sharing of 300 points and 300 SGD
/// steps per epoch: the repo benchmark's `sim-fleet` settings.
fn paper_scenario(nodes: usize) -> Scenario {
    let d = Scenario::default();
    Scenario {
        dataset: SyntheticConfig {
            num_users: FLEET_NODES as u32,
            num_items: FLEET_ITEMS,
            num_ratings: FLEET_RATINGS,
            ..d.dataset
        },
        nodes,
        topology: TopologySpec::SmallWorld,
        protocol: ProtocolConfig {
            points_per_epoch: 300,
            steps_per_epoch: 300,
            ..d.protocol
        },
        ..d
    }
}

/// The paper shape's cold set-up by layer: [`Scenario::build_fleet`]'s
/// steps written out, each timed: generate the dataset, split it,
/// partition it one user per node, and build the 610-node raw fleet of
/// [`run_fleet_epoch`] (topology included), ms each, best of `reps`
/// windows. Every window also runs the reference generator
/// ([`rex_bench::reference`], the generator before its rewrite) on the
/// same config, before the new one in one window and after it in the
/// next. Returns the row and `generate_speedup`, the median over windows
/// of reference / new.
fn setup_arms(reps: usize) -> (Row, f64) {
    let s = paper_scenario(FLEET_NODES);
    let cfg = &s.dataset;
    assert!(
        reference_generate(cfg).ratings == cfg.generate().ratings,
        "the generator parted ways with its reference"
    );
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let reference = || {
        let t = Instant::now();
        black_box(reference_generate(cfg));
        ms(t)
    };
    let mut window = 0;
    let mut arm: Arm<'_, [f64; 5]> = Box::new(|| {
        window += 1;
        let first = (window % 2 == 0).then(reference);
        let t = Instant::now();
        let ds = cfg.generate();
        let generate = ms(t);
        let before = first.unwrap_or_else(reference);
        let t = Instant::now();
        let split = TrainTestSplit::standard(&ds, s.split_seed);
        let split_ms = ms(t);
        let t = Instant::now();
        let partition = Partition::multi_user(&split, s.nodes);
        let partition_ms = ms(t);
        let t = Instant::now();
        let graph = s.topology.build(s.nodes, s.topology_seed);
        let init = MfModel::new(cfg.num_users, cfg.num_items, s.hp, 3.5, s.model_seed);
        black_box(build_mf_nodes(&partition, &[], &graph, init, s.protocol));
        [before, generate, split_ms, partition_ms, ms(t)]
    });
    let windows = harness::rotate(
        "setup: reference vs new generator, split, partition, build",
        reps,
        std::slice::from_mut(&mut arm),
    )
    .pop()
    .expect("one arm");
    let best = |i: usize| windows.iter().map(|w| w[i]).fold(f64::INFINITY, f64::min);
    let mut ratios: Vec<f64> = windows.iter().map(|w| w[0] / w[1]).collect();
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[ratios.len() / 2];
    let row = Row::new()
        .int("nodes", FLEET_NODES)
        .int("items", FLEET_ITEMS)
        .int("ratings", FLEET_RATINGS)
        .int("windows", reps)
        .num("reference_generate_ms", best(0), 2)
        .num("generate_ms", best(1), 2)
        .num("split_ms", best(2), 2)
        .num("partition_ms", best(3), 2)
        .num("build_ms", best(4), 2)
        .num("total_ms", (1..5).map(best).sum(), 2)
        .num("generate_speedup", speedup, 2);
    (row, speedup)
}

/// The share of `model`'s rows (users and items) whose factors, bias or
/// seen flag differ from `init`'s: the least a node sharing the fleet's
/// init row by row has to hold of its own (it holds every row it wrote).
fn row_union_share(model: &MfModel, init: &MfModel) -> f64 {
    let users = (0..model.num_users())
        .filter(|&u| {
            model.user_factors(u) != init.user_factors(u)
                || model.user_bias(u) != init.user_bias(u)
                || model.has_user(u) != init.has_user(u)
        })
        .count();
    let items = (0..model.num_items())
        .filter(|&i| model.item_row(i) != init.item_row(i) || model.has_item(i) != init.has_item(i))
        .count();
    (users + items) as f64 / f64::from(model.num_users() + model.num_items())
}

/// The paper's headline scenario (§IV-A) on the repo benchmark's
/// `sim-fleet` settings: one user per node, small world, D-PSGD raw
/// sharing of 300 points, 300 SGD steps. 610 models share one 423 KB
/// init and each holds the ~120 KB of rows it wrote, ~100 MB in all, so
/// each node's rows, key set and ratings are out of cache by the time
/// its turn comes round again — the cold node-epoch.
/// Returns the row — mean µs per node-epoch by stage, from the stage
/// times every [`rex_core::node::EpochReport`] carries — and the merge
/// stage's share of the node-epoch (on a raw fleet, decode + the store's
/// duplicate check). The row also reports the set-up (the whole
/// [`Scenario::build_fleet`]) and, after the run,
/// the mean [`row_union_share`] over the nodes, the MB (MiB) the fleet's
/// models hold (their shared init once, plus what each node holds of its
/// own, [`MfModel::resident_bytes`]) and the MB its raw-data stores hold
/// (ratings, key sets and indexes, `RawDataStore::resident_bytes`).
/// Returns the merge share and those two figures too.
fn run_fleet_epoch(shape: &str, epochs: usize) -> (Row, f64, f64, f64) {
    let s = paper_scenario(FLEET_NODES);
    let setup = Instant::now();
    let mut nodes = s.build_fleet();
    let setup_secs = setup.elapsed().as_secs_f64();
    let driver = Driver::WorkSteal {
        workers: FLEET_WORKERS,
    };
    let result = run_mem(&mut nodes, engine_config(epochs, driver));
    let init = MfModel::new(FLEET_NODES as u32, FLEET_ITEMS, s.hp, 3.5, s.model_seed);
    let union = nodes
        .iter()
        .map(|n| row_union_share(n.model(), &init))
        .sum::<f64>()
        / nodes.len() as f64;
    // Every node's model is a clone of one init (`build_fleet`), so
    // the base is counted once.
    let resident_bytes = nodes[0].model().base_bytes()
        + nodes
            .iter()
            .map(|n| n.model().resident_bytes())
            .sum::<usize>();
    let resident_mb = resident_bytes as f64 / (1024.0 * 1024.0);
    let store_bytes: usize = nodes.iter().map(|n| n.store().resident_bytes()).sum();
    let store_mb = store_bytes as f64 / (1024.0 * 1024.0);
    let mean = result.trace.mean_stage_times();
    let merge_share = mean.get(Stage::Merge) as f64 / mean.total() as f64;
    let row = Row::new()
        .str("shape", shape)
        .int("nodes", FLEET_NODES)
        .int("items", FLEET_ITEMS)
        .int("ratings", FLEET_RATINGS)
        .int("epochs", epochs)
        .int("workers", FLEET_WORKERS)
        .num("setup_secs", setup_secs, 3);
    let row = STAGES
        .iter()
        .fold(row, |row, &stage| {
            row.num(
                &format!("{}_us", stage.label()),
                mean.get(stage) as f64 / 1e3,
                1,
            )
        })
        .num("node_epoch_us", mean.total() as f64 / 1e3, 1)
        .num("merge_share", merge_share, 4)
        .num("row_union_share", union, 4)
        .num("model_resident_mb", resident_mb, 1)
        .num("store_resident_mb", store_mb, 1)
        .str("final_rmse_bits", &rmse_bits(&result));
    (row, merge_share, resident_mb, store_mb)
}

/// One bounded-async vs lockstep run: [`ASYNC_NODES`] SGX nodes over the
/// paper's data, raw sharing, D-PSGD over a small world, one thread per
/// node on a loopback TCP fabric, the last node stalled by `delay` per
/// epoch. Returns the seconds until every node has reported an epoch
/// whose mean RMSE over the nodes is at most [`ASYNC_TARGET_RMSE`], and
/// that epoch.
fn run_async_arm(bounded: bool, delay: Duration) -> (f64, usize) {
    let mut nodes = paper_scenario(ASYNC_NODES).build_fleet();
    let mut setup = MemNetwork::new(ASYNC_NODES);
    establish_tee(&mut nodes, &mut setup, SgxCostModel::default(), 1, 0xE0);
    let endpoints = TcpTransport::loopback(ASYNC_NODES)
        .expect("loopback fabric")
        .into_endpoints();
    let start = Instant::now();
    // Per node: (seconds since start, local RMSE) at each epoch.
    let reports: Vec<Vec<(f64, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = nodes
            .into_iter()
            .zip(endpoints)
            .map(|(mut node, mut endpoint)| {
                let slow = node.id() == ASYNC_NODES - 1;
                let delay = if slow { delay } else { Duration::ZERO };
                scope.spawn(move || {
                    let mut reports = Vec::with_capacity(ASYNC_EPOCHS);
                    let on_epoch = |event: round::EpochEvent| {
                        let rmse = event.report.and_then(|r| r.rmse).unwrap_or(f64::NAN);
                        reports.push((start.elapsed().as_secs_f64(), rmse));
                        // The straggler's stall, before its next epoch.
                        std::thread::sleep(delay);
                    };
                    let (node, ep) = (&mut node, &mut endpoint);
                    if bounded {
                        round::run_node_loop_async(
                            node,
                            ep,
                            ASYNC_EPOCHS,
                            ASYNC_K,
                            None,
                            None,
                            on_epoch,
                        )
                    } else {
                        let ctx = RoundContext {
                            faults: None,
                            view: None,
                            tee: None,
                            audit: None,
                            serve: None,
                        };
                        round::run_node_loop(node, ep, 0..ASYNC_EPOCHS, ctx, on_epoch)
                    }
                    .expect("node loop failed");
                    reports
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    });
    (0..ASYNC_EPOCHS)
        .find_map(|epoch| {
            let mean = reports.iter().map(|r| r[epoch].1).sum::<f64>() / ASYNC_NODES as f64;
            let at = reports.iter().map(|r| r[epoch].0).fold(0.0, f64::max);
            (mean <= ASYNC_TARGET_RMSE).then_some((at, epoch))
        })
        .expect("the cluster never reached the target RMSE: raise ASYNC_EPOCHS")
}

/// Lockstep against bounded-async, `reps` rotated windows each, the last
/// node stalled by `delay` per epoch: each driver's fastest
/// `(seconds, epoch)` from [`run_async_arm`], lockstep first.
fn race_async(reps: usize, delay: Duration) -> Vec<(f64, usize)> {
    let mut arms: Vec<Arm<'_, (f64, usize)>> = [false, true]
        .into_iter()
        .map(|bounded| Box::new(move || run_async_arm(bounded, delay)) as Arm<'_, _>)
        .collect();
    let label = format!("async vs lockstep, {delay:?} stall");
    harness::keep_best(harness::rotate(&label, reps, &mut arms), |w| w.0)
}

fn main() {
    let args = BenchArgs::parse();
    let mode = if args.full { "full" } else { "quick" };
    let nodes = args.nodes.unwrap_or(if args.full { 1024 } else { 512 });
    let epochs = args.epochs.unwrap_or(if args.full { 10 } else { 5 });
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Rotated windows per timed comparison: each arm runs first equally
    // often.
    let reps = if args.full { 4 } else { 2 };

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
    let mut merge_shares = Vec::new();
    let mut resident_mbs = Vec::new();
    let mut store_mbs = Vec::new();
    for &(shape, fleet_epochs) in fleet_arms {
        eprintln!("[bench_scale] fleet arm ({shape}): {FLEET_NODES} nodes x {fleet_epochs} epochs");
        let (row, merge_share, resident_mb, store_mb) = run_fleet_epoch(shape, fleet_epochs);
        fleet_rows.push(row);
        merge_shares.push(merge_share);
        resident_mbs.push(resident_mb);
        store_mbs.push(store_mb);
    }

    eprintln!("[bench_scale] set-up arm: {FLEET_NODES} nodes");
    let (setup_row, generate_speedup) = setup_arms(if args.full { 21 } else { 11 });

    // Bounded-async vs lockstep to the same target RMSE, even and then
    // with the straggler: every mode runs the one shape the gate
    // compares. The straggler's stall is the even lockstep run's own mean
    // epoch, so the slow node runs at about half speed on any host and
    // the gated speedup does not drift with CPU speed.
    let even = race_async(reps, Duration::ZERO);
    let delay = Duration::from_secs_f64(even[0].0 / (even[0].1 + 1) as f64);
    let async_best = [even, race_async(reps, delay)].concat();
    let async_rows: Vec<Row> = async_best
        .iter()
        .enumerate()
        .map(|(i, &(secs, epoch))| {
            let driver = if i % 2 == 1 {
                format!("bounded_async_k{ASYNC_K}")
            } else {
                "lockstep".to_string()
            };
            let stall = if i < 2 { Duration::ZERO } else { delay };
            Row::new()
                .str("driver", &driver)
                .int("nodes", ASYNC_NODES)
                .num("straggler_delay_ms", stall.as_secs_f64() * 1e3, 2)
                .num("target_rmse", ASYNC_TARGET_RMSE, 3)
                .int("target_epoch", epoch)
                .num("time_to_target_s", secs, 3)
        })
        .collect();
    let async_speedup_straggler = async_best[2].0 / async_best[3].0;

    eprintln!("[bench_scale] scheduler: {nodes} nodes x {epochs} epochs");
    let [(seq_secs, seq), (pool_secs, _)] = race("scheduler", nodes, reps, |driver| {
        engine_config(epochs, driver)
    });

    let codec_epochs = if args.full { 10 } else { 5 };
    let mut codec_rows = Vec::new();
    let mut codec_runs = Vec::new();
    for sharing in [SharingMode::RawData, SharingMode::Model] {
        for codec in [WireCodec::Dense, WireCodec::Sparse] {
            let (bytes, bits) = run_codec_arm(sharing, codec, codec_epochs);
            codec_rows.push(
                Row::new()
                    .str("sharing", sharing_name(sharing))
                    .str("codec", if codec.is_sparse() { "sparse" } else { "dense" })
                    .int("epochs", codec_epochs)
                    .num("bytes_per_node_per_epoch", bytes, 1)
                    .str("final_rmse_bits", &bits),
            );
            codec_runs.push((bytes, bits));
        }
    }
    // The artifact's second claim: sparse moves fewer bytes in both
    // sharing modes, and sparse model sharing learns identically.
    for pair in codec_runs.chunks(2) {
        assert!(pair[1].0 < pair[0].0, "sparse did not reduce bytes");
    }
    assert_eq!(
        codec_runs[2].1, codec_runs[3].1,
        "sparse model sharing changed the learning trajectory"
    );

    // Join-wave arm: dynamic membership at the same fleet scale, under
    // both drivers, so the artifact doubles as a view-transition
    // equivalence proof at scale.
    eprintln!("[bench_scale] join-wave arm: {nodes} ids");
    let wave_epochs = epochs.max(3);
    let plan = join_wave(nodes, wave_epochs);
    let joiners = plan.joins.len();
    let [(wave_seq_secs, _), (wave_pool_secs, wave)] =
        race("join wave", nodes, reps, |driver| EngineConfig {
            membership: Some(plan.clone()),
            ..engine_config(wave_epochs, driver)
        });
    let live_first = wave.trace.records.first().map_or(0, |r| r.live_nodes);
    let live_last = wave.trace.records.last().map_or(0, |r| r.live_nodes);
    assert_eq!(live_first, nodes - joiners);
    assert_eq!(live_last, nodes - 1, "everyone joined, one founder left");

    // User-sharded arms: RAM-per-user and epoch-time curves. Quick mode
    // runs the CI smoke shape (64 shards x 1024 users, both sharing
    // modes); full mode extends the raw curve through 262k users and the
    // 1M-user configuration, and gives model sharing a second point.
    // The first arm is the 64x1024 raw one the RAM gate compares.
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
    let (shard_rows, shard_ram): (Vec<Row>, Vec<f64>) = shard_arms
        .iter()
        .map(|&(shards, upn, sharing)| {
            eprintln!("[bench_scale] sharded arm: {shards} shards x {upn} users ({sharing:?})");
            let (row, ram, _) = run_shard_arm(shards, upn, sharing, epochs);
            (row, ram)
        })
        .unzip();

    // Wire-traffic claim: bytes per node per epoch track the shard
    // count (a shard sends one aggregate message per neighbor), not the
    // user count — quadrupling users per shard must not move traffic by
    // more than encoding slack.
    let (_, _, wire_small) = run_shard_arm(32, 256, SharingMode::RawData, epochs);
    let (_, _, wire_large) = run_shard_arm(32, 1024, SharingMode::RawData, epochs);
    let wire_ratio = wire_large / wire_small;
    assert!(
        wire_ratio < 1.10,
        "wire traffic scaled with user count (ratio {wire_ratio:.3}), not shard count"
    );

    let json = Report::new("scale", mode)
        .fields(Row::new().int("host_cpus", host_cpus))
        .object(
            "scheduler",
            &Row::new()
                .int("nodes", nodes)
                .int("epochs", epochs)
                .int("workers", host_cpus)
                .num("sequential_secs", seq_secs, 3)
                .num("work_steal_secs", pool_secs, 3)
                .num("speedup", seq_secs / pool_secs, 3)
                .int("final_rmse_bits_equal", true)
                .str("final_rmse_bits", &rmse_bits(&seq)),
        )
        .rows("codec", &codec_rows)
        .object(
            "membership",
            &Row::new()
                .int("nodes", nodes)
                .int("epochs", wave_epochs)
                .int("joiners", joiners)
                .int("leaves", 1)
                .int("live_first", live_first)
                .int("live_last", live_last)
                .num("sequential_secs", wave_seq_secs, 3)
                .num("work_steal_secs", wave_pool_secs, 3)
                .int("final_rmse_bits_equal", true)
                .str("final_rmse_bits", &rmse_bits(&wave)),
        )
        .rows("sharding", &shard_rows)
        .object(
            "wire_scaling",
            &Row::new()
                .int("shards", 32)
                .str("sharing", "raw")
                .num("bytes_per_node_per_epoch_256u", wire_small, 1)
                .num("bytes_per_node_per_epoch_1024u", wire_large, 1)
                .num("ratio", wire_ratio, 4),
        )
        .object("setup", &setup_row)
        .rows("fleet_epoch", &fleet_rows)
        .rows("async_vs_lockstep", &async_rows)
        .render(
            &Row::new()
                .num("shard_ram_per_user_64x1024_raw", shard_ram[0], 1)
                .num("fleet_merge_share_quick", merge_shares[0], 4)
                .num("fleet_model_resident_mb_quick", resident_mbs[0], 1)
                .num("fleet_store_resident_mb_quick", store_mbs[0], 1)
                .num("async_speedup_straggler", async_speedup_straggler, 2)
                .num("generate_speedup", generate_speedup, 2),
        );
    harness::finish(
        &args,
        "BENCH_scale.json",
        &json,
        &[
            Gate::ceiling("shard_ram_per_user_64x1024_raw", shard_ram[0]),
            Gate::ceiling("fleet_merge_share_quick", merge_shares[0]),
            Gate::ceiling("fleet_model_resident_mb_quick", resident_mbs[0]),
            Gate::ceiling("fleet_store_resident_mb_quick", store_mbs[0]),
            Gate::floor("async_speedup_straggler", async_speedup_straggler),
            Gate::floor("generate_speedup", generate_speedup),
        ],
    );
}
