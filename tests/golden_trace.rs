//! Golden-trace conformance suite: pinned per-epoch RMSE/traffic
//! fixtures, compared bit-for-bit against **every driver × backend**
//! combination — the regression net under the scheduler and codec work.
//!
//! Five scenarios are pinned under `tests/fixtures/`:
//!
//! * `raw` — 8-node REX (raw-data sharing, D-PSGD) on a small world;
//! * `model` — the same fleet sharing full models;
//! * `chaos_headline` — the chaos suite's headline: 32 nodes, 10%
//!   uniform loss, two crash-stop nodes;
//! * `membership` — the dynamic-membership churn scenario: 6 founders,
//!   two online joins (epochs 2 and 4, with sponsor bootstraps) and one
//!   graceful leave (epoch 6);
//! * `raw_wide` — the `raw` fleet over 4 000 items instead of 160, with
//!   node 3 down for epochs 3–4. An epoch here writes ~3 % of a model's
//!   rows, so every commitment link after a chain's first takes the *row
//!   form* (hashing the rows the epoch wrote); the four scenarios above
//!   write over a quarter of their small models per epoch and commit in
//!   the full form throughout — the write log left their roots as they
//!   were. The crash window pins a chain that resumes with its
//!   executed-epoch index. Not replayed into the serve fixture.
//!
//! The same quarter decides each model's layout at build
//! (`rex_core::builder`'s one ownership rule): a node takes all its rows
//! in row order at build when it shares models (every node of `model`)
//! or its training ratings reach a quarter of its rows. In `raw`,
//! `chaos_headline` and `membership` two users' ratings over 160 items
//! reach that on most nodes (six of `raw`'s eight) and not on the rest,
//! so those fixtures run both layouts side by side; `raw_wide`'s nodes
//! (4 016 rows) all keep copy-on-write tables over the shared init. The
//! layout moves no value: every fixture holds as it was pinned before
//! the rule.
//!
//! Each fixture records, per epoch, the fleet-mean RMSE and byte counts
//! (as IEEE-754 bit patterns — *bit*-identical, not approximately equal),
//! liveness, the delivery counters, and the verifiable-epochs
//! `commitment_root` (the aggregate over every live node's signed model
//! commitment — pinning it here means a scheduler or codec change that
//! perturbs any model's wire bytes fails the fixture, not just the
//! audit suite), plus the final per-node traffic totals.
//! Wall/simulated timestamps are deliberately excluded: they are
//! the one thing allowed to differ across backends.
//!
//! A fifth fixture, `golden_serve.txt`, pins the **serve path**: after
//! each training run, a seeded query stream is replayed against every
//! node's final model through the pruned/blocked [`Scorer`], with the
//! node's own rated items excluded. Every backend × driver combination
//! must produce the same top-k items *and score bits* as the pinned
//! trace — the serving contract under the same regression net as the
//! learning trajectory.
//!
//! Every run — the mem fabric and TCP loopback, each under the fabric
//! loop on one worker (inline; mem/work-steal-1 is the generator) and on
//! several, and each split into one thread per node — must reproduce the
//! fixture exactly, native mode. A
//! mismatch means a scheduler or transport change altered the learning
//! trajectory or the byte accounting.
//!
//! # Regenerating
//! After an *intentional* trajectory change (new protocol semantics, new
//! dataset shape), refresh the pinned files with:
//!
//! ```sh
//! REX_REGEN_FIXTURES=1 cargo test --test golden_trace
//! ```
//!
//! The regeneration path rewrites the fixtures from the sequential mem
//! reference and then still checks every other driver against the fresh
//! files, so a regen run cannot silently pin a divergent suite. Review
//! the fixture diff like code: it *is* the experiment's contract.

use rex_repro::core::builder::Scenario;
use rex_repro::core::config::{ExecutionMode, SharingMode};
use rex_repro::core::engine::{
    aggregate_epoch, Driver, Engine, EngineConfig, EngineResult, TimeAxis,
};
use rex_repro::core::membership::{MembershipPlan, MembershipView};
use rex_repro::core::round::{Action, Effect, Input, NodeRound};
use rex_repro::core::serve::{QueryStream, Scorer, TopKQuery};
use rex_repro::core::setup::{overlay_of, prune_dead_nodes, prune_to_overlay};
use rex_repro::core::trace_out::TraceOut;
use rex_repro::core::Node;
use rex_repro::ml::MfModel;
use rex_repro::net::fault::{FaultPlan, FaultyEndpoint, LinkFaults};
use rex_repro::net::link::LinkModel;
use rex_repro::net::stats::DeliveryStats;
use rex_repro::net::transport::BarrierKind;
use rex_repro::net::{Fabric, MemNetwork, TcpTransport, Transport};
use rex_repro::node::{run_cluster_traced, ClusterConfig};
use rex_repro::sim::trace::ExperimentTrace;
use std::path::PathBuf;

/// One pinned scenario: a fleet of two users a node (see
/// [`Scenario::two_users_per_node`]) and how it runs.
struct Golden {
    name: &'static str,
    fleet: Scenario,
    epochs: usize,
    faults: Option<FaultPlan>,
    membership: Option<MembershipPlan>,
    /// Whether the final models' serve replay is pinned in
    /// `golden_serve.txt` (compared across combinations either way).
    pins_serve: bool,
}

fn scenarios() -> Vec<Golden> {
    let raw = Scenario::two_users_per_node(8);
    let mut model = raw.clone();
    model.protocol.sharing = SharingMode::Model;
    let mut wide = raw.clone();
    wide.dataset.num_items = 4_000;
    let pinned = |name, fleet, epochs| Golden {
        name,
        fleet,
        epochs,
        faults: None,
        membership: None,
        pins_serve: true,
    };
    vec![
        pinned("raw", raw.clone(), 8),
        pinned("model", model, 6),
        Golden {
            faults: Some(
                FaultPlan::uniform(0xC4A05, LinkFaults::drop_rate(0.10))
                    .with_crash(5, 3, None)
                    .with_crash(17, 5, None),
            ),
            ..pinned("chaos_headline", Scenario::two_users_per_node(32), 10)
        },
        Golden {
            membership: Some(
                MembershipPlan {
                    seed: 0x11,
                    bootstrap_points: 30,
                    ..MembershipPlan::default()
                }
                .with_join(6, 2, None)
                .with_join(7, 4, Some(1))
                .with_leave(2, 6),
            ),
            ..pinned("membership", raw, 8)
        },
        Golden {
            faults: Some(FaultPlan::default().with_crash(3, 3, Some(5))),
            pins_serve: false,
            ..pinned("raw_wide", wide, 8)
        },
    ]
}

fn engine_config(s: &Golden, time: TimeAxis, driver: Driver) -> EngineConfig {
    EngineConfig {
        epochs: s.epochs,
        execution: ExecutionMode::Native,
        time,
        driver,
        processes_per_platform: 1,
        seed: 0xE0,
        faults: s.faults.clone(),
        membership: s.membership.clone(),
        trace_out: None,
    }
}

/// A combination run's outputs: the trace plus the post-run fleet, so
/// the serve fixture can replay queries against the final models.
type ComboRun = (EngineResult, Vec<Node<MfModel>>);

/// Runs a scenario over one backend/driver combination (the engine
/// applies the scenario's fault plan itself).
fn run_combo<T: Transport>(s: &Golden, transport: T, time: TimeAxis, driver: Driver) -> ComboRun {
    let mut nodes = s.fleet.build_fleet();
    let result = Engine::<MfModel, T>::new(transport, engine_config(s, time, driver))
        .run(s.name, &mut nodes);
    (result, nodes)
}

/// Serializes the fixture-relevant slice of a result (time excluded).
fn render(result: &EngineResult) -> String {
    let mut out = String::from(
        "# golden trace fixture — regenerate with REX_REGEN_FIXTURES=1 (see tests/golden_trace.rs)\n\
         # epoch,rmse_bits,bytes_bits,live,delivered,dropped,late,duplicated,commitment_root\n",
    );
    for r in &result.trace.records {
        let root: String = r
            .commitment_root
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        out.push_str(&format!(
            "epoch,{},{:#018x},{:#018x},{},{},{},{},{},{root}\n",
            r.epoch,
            r.rmse.to_bits(),
            r.bytes_per_node.to_bits(),
            r.live_nodes,
            r.delivery.delivered,
            r.delivery.dropped,
            r.delivery.late,
            r.delivery.duplicated,
        ));
    }
    for (id, stats) in result.final_stats.iter().enumerate() {
        out.push_str(&format!(
            "stats,{id},{},{},{},{}\n",
            stats.bytes_out, stats.bytes_in, stats.msgs_out, stats.msgs_in,
        ));
    }
    out
}

/// Queries each node replays against its final model for the serve
/// fixture, and the requested list length (the paper's k = 10).
const SERVE_QUERIES: usize = 6;
const SERVE_K: usize = 10;
const SERVE_SEED: u64 = 0x5E37; // matches `ServeConfig::default().seed`

/// Replays the seeded query stream of the deployed serve path against
/// every node's final model: per node, [`SERVE_QUERIES`] queries drawn
/// from `QueryStream` (seeded the way `rex-node` seeds its per-node
/// serve thread), answered by the pruned/blocked [`Scorer`] with the
/// node's own rated items excluded. One line per query:
///
/// ```text
/// serve,<scenario>,<node>,<user>,<k>,<item>:<score_bits>;...
/// ```
///
/// Score bits are the unclamped f32 predictions — the fixture pins the
/// exact arithmetic, not just the ranking.
fn render_serve(s: &Golden, nodes: &[Node<MfModel>]) -> String {
    let num_users = s.fleet.dataset.num_users;
    let mut out = String::new();
    for node in nodes {
        let id = node.id();
        let mut stream = QueryStream::new(SERVE_SEED.wrapping_add(id as u64), num_users, SERVE_K);
        let mut scorer = Scorer::default();
        for _ in 0..SERVE_QUERIES {
            let q: TopKQuery = stream.next_query();
            let exclude = node.store().rated_items(q.user);
            let top = scorer.top_k(node.model(), &q, &exclude);
            let items: Vec<String> = top
                .iter()
                .map(|r| format!("{}:{:#010x}", r.item, r.score.to_bits()))
                .collect();
            out.push_str(&format!(
                "serve,{},{id},{},{},{}\n",
                s.name,
                q.user,
                q.k,
                items.join(";"),
            ));
        }
    }
    out
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("golden_{name}.txt"))
}

/// Loads the pinned fixture — or, under `REX_REGEN_FIXTURES=1`, rewrites
/// it from the rendered `reference` text first.
fn load_fixture(name: &str, reference: &str) -> String {
    let path = fixture_path(name);
    if std::env::var("REX_REGEN_FIXTURES").as_deref() == Ok("1") {
        std::fs::write(&path, reference).expect("write fixture");
        eprintln!("[golden_trace] regenerated {}", path.display());
    }
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with REX_REGEN_FIXTURES=1 to create it",
            path.display()
        )
    })
}

fn assert_matches_fixture(scenario: &str, combo: &str, fixture: &str, result: &EngineResult) {
    let got = render(result);
    if got != fixture {
        for (want_line, got_line) in fixture.lines().zip(got.lines()) {
            assert_eq!(
                want_line, got_line,
                "scenario {scenario}: {combo} diverged from the pinned trace"
            );
        }
        panic!(
            "scenario {scenario}: {combo} trace length differs from fixture \
             ({} vs {} lines)",
            fixture.lines().count(),
            got.lines().count()
        );
    }
}

#[test]
fn golden_traces_hold_on_every_driver_and_backend() {
    let serve_header = "# golden serve fixture — regenerate with REX_REGEN_FIXTURES=1 (see tests/golden_trace.rs)\n\
         # serve,scenario,node,user,k,item:score_bits;...\n";
    let mut serve_reference = String::from(serve_header);
    for s in scenarios() {
        let n = s.fleet.nodes;
        let sim_time = || TimeAxis::Simulated(Default::default());

        // Reference: mem fabric, one inline worker — the generator.
        let (reference, reference_nodes) = run_combo(
            &s,
            MemNetwork::new(n),
            sim_time(),
            Driver::WorkSteal { workers: 1 },
        );
        let fixture = load_fixture(s.name, &render(&reference));
        assert_matches_fixture(s.name, "mem/work-steal-1", &fixture, &reference);
        let serve_ref = render_serve(&s, &reference_nodes);
        if s.pins_serve {
            serve_reference.push_str(&serve_ref);
        }

        // The same scenario through every other driver × backend.
        let tcp = || TcpTransport::loopback(n).expect("loopback fabric");
        let combos: Vec<(&str, ComboRun)> = vec![
            (
                "mem/work-steal-4",
                run_combo(
                    &s,
                    MemNetwork::new(n),
                    sim_time(),
                    Driver::WorkSteal { workers: 4 },
                ),
            ),
            (
                "tcp/work-steal-1",
                run_combo(&s, tcp(), TimeAxis::Wall, Driver::WorkSteal { workers: 1 }),
            ),
            (
                "tcp/work-steal-2",
                run_combo(&s, tcp(), TimeAxis::Wall, Driver::WorkSteal { workers: 2 }),
            ),
            (
                "mem/thread-per-node",
                run_combo(
                    &s,
                    MemNetwork::new(n),
                    TimeAxis::Wall,
                    Driver::ThreadPerNode,
                ),
            ),
            (
                "tcp/thread-per-node",
                run_combo(&s, tcp(), TimeAxis::Wall, Driver::ThreadPerNode),
            ),
        ];
        for (combo, (result, nodes)) in &combos {
            assert_matches_fixture(s.name, combo, &fixture, result);
            // The serve replay — final models through the pruned scorer
            // — must also be bit-identical across every combination.
            assert_eq!(
                render_serve(&s, nodes),
                serve_ref,
                "scenario {}: {combo} serve replay diverged from mem/work-steal-1",
                s.name
            );
        }
    }

    // Pin the accumulated serve trace across *all* scenarios.
    let pinned = load_fixture("serve", &serve_reference);
    assert_eq!(
        serve_reference, pinned,
        "serve replay diverged from the pinned golden_serve.txt fixture"
    );
}

/// Which nodes own their rows at build, as the module doc says: an
/// owning model holds no share of the init.
#[test]
fn the_scenarios_own_their_rows_at_build_as_documented() {
    for s in scenarios() {
        let owning = s
            .fleet
            .build_fleet()
            .iter()
            .filter(|n| n.model().base_bytes() == 0)
            .count();
        match s.name {
            "model" => assert_eq!(owning, s.fleet.nodes),
            "raw" => assert_eq!(owning, 6),
            "raw_wide" => assert_eq!(owning, 0),
            name => assert!(0 < owning && owning < s.fleet.nodes, "{name}: {owning}"),
        }
    }
}

/// `--trace-out` records, but for their times, are the same whether the
/// golden `raw` scenario runs through the engine or through `rex_node`'s
/// in-process cluster (the deployed node loop, one thread per node over
/// loopback TCP): every node-epoch once, with the same link rows, new
/// points, byte counts, RMSE bits and commitment digest.
#[test]
fn trace_out_records_agree_between_the_engine_and_the_node_cluster() {
    let s = scenarios()
        .into_iter()
        .find(|s| s.name == "raw")
        .expect("the raw scenario");
    let dir = std::env::temp_dir().join(format!("rex-trace-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (engine_path, cluster_path) = (dir.join("engine.jsonl"), dir.join("cluster.jsonl"));

    let mut nodes = s.fleet.build_fleet();
    Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(s.fleet.nodes),
        EngineConfig {
            trace_out: Some(engine_path.clone()),
            ..engine_config(&s, TimeAxis::Wall, Driver::WorkSteal { workers: 2 })
        },
    )
    .run(s.name, &mut nodes);

    let f = &s.fleet;
    let cfg = ClusterConfig {
        nodes: (0..f.nodes)
            .map(|i| format!("127.0.0.1:{}", 7400 + i))
            .collect(),
        epochs: s.epochs,
        sharing: f.protocol.sharing,
        algorithm: f.protocol.algorithm,
        topology: f.topology,
        topology_seed: f.topology_seed,
        num_users: f.dataset.num_users,
        num_items: f.dataset.num_items,
        num_ratings: f.dataset.num_ratings,
        data_seed: f.dataset.seed,
        split_seed: f.split_seed,
        protocol_seed: f.protocol.seed,
        points_per_epoch: f.protocol.points_per_epoch,
        steps_per_epoch: f.protocol.steps_per_epoch,
        ..ClusterConfig::default()
    };
    let trace = TraceOut::create(&cluster_path).expect("cluster trace file");
    run_cluster_traced(&cfg, Some(&trace)).expect("in-process cluster");
    drop(trace);

    // (epoch, node, the line without its `_ns` fields).
    let seeded = |path: &PathBuf| -> Vec<(usize, usize, String)> {
        let text = std::fs::read_to_string(path).expect("trace file");
        text.lines()
            .map(|line| {
                let field = |key: &str| -> usize {
                    let at = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
                    line[at..]
                        .split([',', '}'])
                        .next()
                        .unwrap()
                        .parse()
                        .unwrap()
                };
                let kept: Vec<&str> = line.split(',').filter(|f| !f.contains("_ns\":")).collect();
                (field("epoch"), field("node"), kept.join(","))
            })
            .collect()
    };
    let engine = seeded(&engine_path);
    let mut cluster = seeded(&cluster_path);
    let _ = std::fs::remove_dir_all(&dir);
    // The engine writes an epoch's lines in node order as it folds it.
    let order: Vec<(usize, usize)> = engine.iter().map(|(e, n, _)| (*e, *n)).collect();
    let expected: Vec<(usize, usize)> = (0..s.epochs)
        .flat_map(|e| (0..s.fleet.nodes).map(move |n| (e, n)))
        .collect();
    assert_eq!(order, expected);
    cluster.sort();
    assert_eq!(cluster, engine);
}

/// `raw_wide` is there to pin the commitment's row form, so it must take
/// it: a chain's first link is full, and after it 100 SGD steps write at
/// most 200 of 4 016 rows — inside the quarter that travels as rows —
/// whatever the store has grown to.
#[test]
fn the_wide_scenario_commits_in_the_row_form() {
    let s = scenarios()
        .into_iter()
        .find(|s| s.name == "raw_wide")
        .expect("the wide scenario");
    let node = &mut s.fleet.build_fleet()[0];
    let rows: Vec<Option<usize>> = (0..3).map(|_| node.epoch(Vec::new()).1.link_rows).collect();
    assert_eq!(rows[0], None);
    assert!(
        rows[1..].iter().all(|r| r.is_some_and(|n| n <= 200)),
        "{rows:?}"
    );
}

/// The simulated axis is computed from the nodes' reports alone, so
/// both drivers keep it: the same setup charge, and per epoch the same
/// link-model charge on top of the slowest node's measured compute. The
/// compute is measured, so it differs run to run; a one-hour link
/// latency puts each epoch's charge far above it, and the hours read off
/// `time_ns` must match epoch for epoch.
#[test]
fn both_drivers_keep_the_simulated_axis() {
    const HOUR_NS: u64 = 3_600_000_000_000;
    let s = scenarios()
        .into_iter()
        .find(|s| s.name == "raw")
        .expect("the raw scenario");
    let link = LinkModel {
        latency_ns: HOUR_NS,
        bandwidth_bytes_per_sec: f64::INFINITY,
    };
    let run = |driver| {
        run_combo(
            &s,
            MemNetwork::new(s.fleet.nodes),
            TimeAxis::Simulated(link),
            driver,
        )
        .0
    };
    let pool = run(Driver::WorkSteal { workers: 2 });
    let threads = run(Driver::ThreadPerNode);
    assert_eq!(pool.setup_ns, threads.setup_ns);
    for result in [&pool, &threads] {
        let hours: Vec<u64> = result
            .trace
            .records
            .iter()
            .map(|r| (r.time_ns - result.setup_ns) / HOUR_NS)
            .collect();
        assert_eq!(hours, (1..=s.epochs as u64).collect::<Vec<_>>());
        let compute = result
            .trace
            .records
            .iter()
            .map(|r| (r.time_ns - result.setup_ns) % HOUR_NS);
        assert!(compute.clone().zip(compute.skip(1)).all(|(a, b)| a < b));
    }
}

#[test]
fn fixtures_are_committed_and_well_formed() {
    // Guard against a fixture file silently vanishing from the tree (the
    // conformance test above would then only fail with a regen hint) and
    // against format drift.
    for s in scenarios() {
        let path = fixture_path(s.name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
        let epoch_lines = text.lines().filter(|l| l.starts_with("epoch,")).count();
        let stats_lines = text.lines().filter(|l| l.starts_with("stats,")).count();
        assert_eq!(epoch_lines, s.epochs, "{}: epoch line count", s.name);
        assert_eq!(stats_lines, s.fleet.nodes, "{}: stats line count", s.name);
        for line in text.lines().filter(|l| l.starts_with("epoch,")) {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 10, "{}: malformed line {line}", s.name);
            assert!(fields[2].starts_with("0x") && fields[3].starts_with("0x"));
            // The commitment root is 32 bytes of lowercase hex, and the
            // verifiable-epochs machinery means it is never all-zero on
            // a run with live nodes.
            let root = fields[9];
            assert_eq!(root.len(), 64, "{}: bad root width in {line}", s.name);
            assert!(root.chars().all(|c| c.is_ascii_hexdigit()));
            assert_ne!(root, "0".repeat(64), "{}: zero commitment root", s.name);
        }
    }

    // The serve fixture: one line per (scenario, node, query), k results
    // ordered score-descending with id tie-breaks — checked structurally
    // here, bit-exactly by the conformance test above.
    let serve_path = fixture_path("serve");
    let serve_text = std::fs::read_to_string(&serve_path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", serve_path.display()));
    let expected: usize = scenarios()
        .iter()
        .filter(|s| s.pins_serve)
        .map(|s| s.fleet.nodes * SERVE_QUERIES)
        .sum();
    let serve_lines: Vec<&str> = serve_text
        .lines()
        .filter(|l| l.starts_with("serve,"))
        .collect();
    assert_eq!(serve_lines.len(), expected, "serve line count");
    for line in serve_lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 6, "malformed serve line {line}");
        let results: Vec<&str> = fields[5].split(';').collect();
        assert_eq!(results.len(), SERVE_K, "short result list in {line}");
        for r in results {
            let (item, bits) = r.split_once(':').expect("item:bits pair");
            item.parse::<u32>().expect("item id");
            assert!(bits.starts_with("0x") && bits.len() == 10, "bad bits {r}");
        }
    }
}

/// What a machine's next step of the interleaving scheduler answers, or
/// why it cannot step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Next {
    Open(usize),
    Synced,
    Recv,
    Released(BarrierKind),
    Commitments,
    /// Waiting on a barrier it arrived at in the given generation.
    Blocked(BarrierKind, u64),
    Left,
    Finished,
}

fn barrier_slot(kind: BarrierKind) -> usize {
    match kind {
        BarrierKind::Drain => 0,
        BarrierKind::Round => 1,
    }
}

/// The next draw of a splitmix64 stream: the schedule's only randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A test-only scheduler of the round: the scenario's machines over
/// `transport`'s single-owner view, one step at a time, the next machine
/// chosen by `seed` among those that can step. Sends land at once; a
/// barrier is released only when every machine still in the run has
/// arrived at it, and a round barrier's release is the fabric's `flush`
/// (the fault wrapper's release point). The fabric's epoch opens — its
/// `epoch_begin` and view change — when the previous epoch's round
/// barrier completes. Panics if the schedule deadlocks.
fn interleaved_run<T: Transport>(s: &Golden, mut transport: T, seed: u64) -> EngineResult {
    let n = s.fleet.nodes;
    let mut nodes = s.fleet.build_fleet();
    if let Some(plan) = &s.faults {
        prune_dead_nodes(&mut nodes, plan);
    }
    let mut view = s.membership.clone().map(|plan| {
        let excluded = s
            .faults
            .as_ref()
            .map(|p| p.dead_at_setup(n))
            .unwrap_or_default();
        let view = MembershipView::new(plan, &overlay_of(&nodes), &excluded);
        prune_to_overlay(&mut nodes, view.overlay());
        view
    });
    let points = view.as_ref().map_or(0, |v| v.plan().bootstrap_points);
    let mut rounds: Vec<NodeRound<'_, MfModel>> = nodes
        .iter_mut()
        .map(|node| NodeRound::new(node, s.faults.as_ref(), None, None, points))
        .collect();

    let mut next = vec![Next::Open(0); n];
    let mut arrived = [0usize; 2];
    let mut completed = [0u64; 2];
    let mut joined_at = vec![0u64; n];
    let mut reports = vec![vec![None; n]; s.epochs];
    let mut deliveries = vec![DeliveryStats::default(); s.epochs];
    let mut epoch = 0;
    transport.epoch_begin(0);
    let mut transition = view.as_mut().and_then(|v| v.advance(0));
    if let Some(t) = &transition {
        transport.view_sync(0, &t.joined, &t.left);
    }
    let mut view_barrier = transition.is_some();
    let mut rng = seed;
    loop {
        let runnable: Vec<usize> = (0..n)
            .filter(|&i| !matches!(next[i], Next::Blocked(..) | Next::Left | Next::Finished))
            .collect();
        if runnable.is_empty() {
            break;
        }
        let i = runnable[(splitmix(&mut rng) % runnable.len() as u64) as usize];
        let input = match next[i] {
            Next::Open(e) => Input::Open {
                epoch: e,
                transition: transition.as_ref(),
                member: view.as_ref().is_none_or(|v| v.is_member(i)),
            },
            Next::Synced => Input::Synced(Vec::new()),
            Next::Recv => Input::Inbox(transport.recv(i)),
            Next::Released(kind) => Input::Released(kind),
            Next::Commitments => Input::Commitments(Vec::new()),
            stuck => unreachable!("{stuck:?} is not runnable"),
        };
        let sink = |effect: Effect<'_, MfModel>| match effect {
            Effect::Send(to, bytes) => transport.send(i, to, bytes),
            Effect::Arrive(kind) => {
                joined_at[i] = completed[barrier_slot(kind)];
                arrived[barrier_slot(kind)] += 1;
            }
            Effect::SendCommitment { .. } | Effect::Publish { .. } => {}
        };
        next[i] = match rounds[i]
            .step(input, sink)
            .expect("a machine stepped in order")
        {
            Action::ViewSync(_) => Next::Synced,
            Action::Recv => Next::Recv,
            Action::Wait(kind) => Next::Blocked(kind, joined_at[i]),
            Action::TakeCommitments => Next::Commitments,
            Action::Report { epoch, report } => {
                reports[epoch][i] = report;
                if epoch + 1 < s.epochs {
                    Next::Open(epoch + 1)
                } else {
                    Next::Finished
                }
            }
            Action::Leave => Next::Left,
        };
        let members = next.iter().filter(|m| **m != Next::Left).count();
        for kind in [BarrierKind::Drain, BarrierKind::Round] {
            let slot = barrier_slot(kind);
            if arrived[slot] == 0 || arrived[slot] < members {
                continue;
            }
            arrived[slot] = 0;
            completed[slot] += 1;
            if kind == BarrierKind::Round {
                transport.flush();
                deliveries[epoch].absorb(&transport.take_delivery());
                if view_barrier {
                    view_barrier = false;
                } else {
                    epoch += 1;
                    if epoch < s.epochs {
                        transport.epoch_begin(epoch);
                        transition = view.as_mut().and_then(|v| v.advance(epoch));
                        if let Some(t) = &transition {
                            transport.view_sync(epoch, &t.joined, &t.left);
                        }
                        view_barrier = transition.is_some();
                    }
                }
            }
        }
        for m in &mut next {
            if let Next::Blocked(kind, generation) = *m {
                if completed[barrier_slot(kind)] > generation {
                    *m = Next::Released(kind);
                }
            }
        }
    }
    assert!(
        next.iter()
            .all(|m| matches!(m, Next::Left | Next::Finished)),
        "scenario {} seed {seed:#x}: the schedule deadlocked at {next:?}",
        s.name
    );
    let mut trace = ExperimentTrace::new(s.name);
    for (e, reports) in reports.iter().enumerate() {
        trace.push(aggregate_epoch(e, 0, reports, deliveries[e]));
    }
    EngineResult {
        trace,
        setup_ns: 0,
        final_stats: transport.all_stats(),
    }
}

/// Deterministic simulation testing of the round: the golden scenarios'
/// machines stepped in seed-chosen orders — arrives, waits, sends and
/// recvs of different nodes interleaved every way the barriers allow —
/// reproduce the pinned fixtures byte for byte, and every schedule
/// terminates. The fault scenarios run over the fault wrapper, whose
/// release point the scheduler drives at each round barrier.
#[test]
fn seeded_interleavings_of_the_round_reproduce_the_fixtures() {
    const SEEDS: u64 = 300;
    for s in scenarios().iter().filter(|s| s.name != "raw_wide") {
        let fixture = std::fs::read_to_string(fixture_path(s.name)).expect("pinned fixture");
        for seed in 0..SEEDS {
            let mem = MemNetwork::new(s.fleet.nodes);
            let result = match &s.faults {
                Some(plan) => {
                    let wrap = |e| FaultyEndpoint::new(e, plan.clone());
                    let endpoints = mem.into_endpoints().into_iter().map(wrap).collect();
                    interleaved_run(s, Fabric::from_endpoints(endpoints), seed)
                }
                None => interleaved_run(s, mem, seed),
            };
            assert_matches_fixture(
                s.name,
                &format!("interleaving seed {seed}"),
                &fixture,
                &result,
            );
        }
    }
}
