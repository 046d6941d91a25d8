//! The pinned API surface: the only file of the benchmark that names
//! `rex_*` symbols. Everything else works on the plain types declared
//! here, so a refactor of the workspace can read this one file to see
//! which signatures the benchmark holds still. Configs enter as TOML text
//! through [`ClusterConfig::parse`].

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rex_core::commitment::CommitmentChain;
use rex_core::config::SharingMode;
use rex_core::engine::{Driver, Engine, EngineConfig, TimeAxis};
use rex_core::serve::{
    naive_top_k, snapshot_digest, ModelSnapshot, QueryStream, Scorer, SnapshotQueue,
};
use rex_core::setup::establish_tee_with_directory;
use rex_core::store::RawDataStore;
use rex_core::Node;
use rex_crypto::{ChaCha20Poly1305, Sha256};
use rex_data::{Dataset, Partition, Rating, SyntheticConfig, TrainTestSplit};
use rex_ml::metrics::rmse;
use rex_ml::{MfModel, Model};
use rex_net::codec::{decode_payload, decode_plain, encode_payload, encode_plain};
use rex_net::frame::{encode_frame_into, Frame, FrameAssembler};
use rex_net::mem::{Envelope, MemNetwork};
use rex_net::message::{Payload, Plain};
use rex_net::tcp::{reserve_loopback_addrs, TcpEndpoint, TcpTransport, DEFAULT_CONNECT_TIMEOUT};
use rex_net::transport::{Endpoint, Transport};
use rex_node::{build_fleet, build_fleet_and_view, run_node_loop, ClusterConfig};
use rex_sim::stage::STAGES;
use rex_tee::measurement::REX_ENCLAVE_V1;
use rex_tee::{Measurement, SecureSession, SgxCostModel};
use rex_topology::metropolis_hastings_weight;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub type Config = ClusterConfig;
pub type Snapshots = SnapshotQueue<MfModel>;

/// A node after a run: trained model, grown store, installed sessions.
pub struct TrainedNode(Node<MfModel>);

/// `n` free loopback addresses for a config's `nodes = [...]` line.
pub fn loopback_addrs(n: usize) -> Result<Vec<String>, String> {
    reserve_loopback_addrs(n)
        .map(|addrs| addrs.iter().map(ToString::to_string).collect())
        .map_err(|e| format!("reserving loopback ports: {e}"))
}

/// Parses cluster TOML text; the benchmark builds every config this way.
pub fn parse_config(toml: &str) -> Result<Config, String> {
    ClusterConfig::parse(toml)
}

// ---------------------------------------------------------------------
// End-to-end runs
// ---------------------------------------------------------------------

/// One node of a deployed run, after its last epoch.
pub struct NodeRun {
    /// Completion time of each epoch, seconds since epoch 0 could start.
    pub epoch_done_s: Vec<f64>,
    /// Local test RMSE after each epoch.
    pub rmse: Vec<f64>,
    pub payload_bytes_out: u64,
    pub msgs_out: u64,
    pub msgs_in: u64,
    pub wire_bytes_out: u64,
    pub write_syscalls: u64,
    pub node: TrainedNode,
}

/// A deployed run: the set-up bill and every node's record.
pub struct DeployedRun {
    /// Everything before epoch 0 may start, seconds.
    pub setup_s: f64,
    pub nodes: Vec<NodeRun>,
}

/// Runs the cluster `cfg` describes inside this process the way the
/// `rex-node` binary runs it across processes: the fleet is rebuilt from
/// the config, attestation is replayed in memory, every node bootstraps
/// its own [`TcpEndpoint`] against the others on its own thread, and each
/// thread drives the deployed [`run_node_loop`]. Node 0 publishes into
/// `snapshots` when given; `on_epoch` sees node 0's progress.
///
/// `rex_node::run_node` does the same in one call but keeps the endpoint
/// and the node to itself, and the benchmark needs both: the endpoint for
/// its syscall and wire counters, the node for serving and the replay.
pub fn run_deployed(
    cfg: &Config,
    snapshots: Option<&Snapshots>,
    on_epoch: impl Fn(usize) + Sync,
) -> Result<DeployedRun, String> {
    let t_start = Instant::now();
    let n = cfg.num_nodes();
    let addrs = cfg.addrs()?;
    let (mut fleet, _) = build_fleet_and_view(cfg);
    let dir = cfg.sgx.then(|| {
        let mut mem = MemNetwork::new(n);
        establish_tee_with_directory(
            &mut fleet,
            &mut mem,
            SgxCostModel::default(),
            cfg.processes_per_platform,
            cfg.infra_seed,
        )
        .1
    });

    let all: Vec<usize> = (0..n).collect();
    let ready = Barrier::new(n);
    let epochs = cfg.epochs;
    let on_epoch = &on_epoch;
    let results: Vec<Result<(NodeRun, f64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .into_iter()
            .enumerate()
            .map(|(id, mut node)| {
                let (addrs, all, ready, dir) = (&addrs, &all, &ready, dir.as_ref());
                scope.spawn(move || {
                    let connected =
                        TcpEndpoint::connect_among(id, addrs, all, DEFAULT_CONNECT_TIMEOUT)
                            .map_err(|e| format!("node {id}: bootstrap failed: {e}"));
                    // Every thread reaches the gate, failed or not, so a
                    // bootstrap error cannot strand the others on it.
                    ready.wait();
                    let mut endpoint = connected?;
                    let setup_s = t_start.elapsed().as_secs_f64();
                    let t0 = Instant::now();
                    let mut epoch_done_s = Vec::with_capacity(epochs);
                    let mut rmse = Vec::with_capacity(epochs);
                    run_node_loop(
                        &mut node,
                        &mut endpoint,
                        epochs,
                        0,
                        None,
                        None,
                        dir,
                        None,
                        if id == 0 { snapshots } else { None },
                        |epoch, r| {
                            epoch_done_s.push(t0.elapsed().as_secs_f64());
                            rmse.push(r.unwrap_or(f64::NAN));
                            if id == 0 {
                                on_epoch(epoch);
                            }
                        },
                    )?;
                    let stats = Endpoint::stats(&endpoint);
                    let run = NodeRun {
                        epoch_done_s,
                        rmse,
                        payload_bytes_out: stats.bytes_out,
                        msgs_out: stats.msgs_out,
                        msgs_in: stats.msgs_in,
                        wire_bytes_out: endpoint.wire_traffic().0,
                        write_syscalls: endpoint.write_syscalls(),
                        node: TrainedNode(node),
                    };
                    Ok((run, setup_s))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("node thread panicked".into()))
            })
            .collect()
    });
    let mut run = DeployedRun {
        setup_s: 0.0,
        nodes: Vec::with_capacity(n),
    };
    for r in results {
        let (node, setup_s) = r?;
        run.setup_s = run.setup_s.max(setup_s);
        run.nodes.push(node);
    }
    Ok(run)
}

/// The in-process fleet run (`sim-fleet`).
pub struct FleetRun {
    pub setup_s: f64,
    /// Completion time of each epoch on the engine's wall axis, seconds.
    pub epoch_done_s: Vec<f64>,
    /// Fleet-mean test RMSE after each epoch.
    pub rmse: Vec<f64>,
    /// Mean payload bytes out per node over the whole run.
    pub payload_bytes_out_per_node: f64,
    pub msgs_out: u64,
    pub msgs_in: u64,
    pub node_epochs: u64,
    pub nodes: Vec<TrainedNode>,
}

/// Builds the fleet `cfg` describes and runs it on the in-memory fabric
/// with the work-stealing driver on `workers` threads, wall-clock axis.
pub fn run_fleet(cfg: &Config, workers: usize) -> FleetRun {
    let t_start = Instant::now();
    let mut fleet = build_fleet(cfg);
    let n = fleet.len();
    let engine = Engine::<MfModel, MemNetwork>::new(
        MemNetwork::new(n),
        EngineConfig {
            epochs: cfg.epochs,
            time: TimeAxis::Wall,
            driver: Driver::WorkSteal { workers },
            seed: cfg.infra_seed,
            ..EngineConfig::default()
        },
    );
    let setup_s = t_start.elapsed().as_secs_f64();
    let result = engine.run("sim-fleet", &mut fleet);
    let records = &result.trace.records;
    let stats = &result.final_stats;
    FleetRun {
        setup_s,
        epoch_done_s: records.iter().map(|r| r.time_ns as f64 / 1e9).collect(),
        rmse: records.iter().map(|r| r.rmse).collect(),
        payload_bytes_out_per_node: stats.iter().map(|s| s.bytes_out).sum::<u64>() as f64
            / n as f64,
        msgs_out: stats.iter().map(|s| s.msgs_out).sum(),
        msgs_in: stats.iter().map(|s| s.msgs_in).sum(),
        node_epochs: records.iter().map(|r| r.live_nodes as u64).sum(),
        nodes: fleet.into_iter().map(TrainedNode).collect(),
    }
}

// ---------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------

pub fn new_snapshots() -> Snapshots {
    SnapshotQueue::new()
}

/// What the closed-loop client saw.
#[derive(Default)]
pub struct ServeStats {
    /// Per-query latency, µs, in issue order.
    pub latency_us: Vec<f64>,
    /// Answers missing, short, or different from the brute-force oracle.
    pub wrong: u64,
    /// Answers re-checked against the oracle (1 in [`ORACLE_STRIDE`]).
    pub checked: u64,
    pub backlog_max: usize,
    pub age_epochs_max: usize,
}

/// One answer in this many is re-checked against `naive_top_k`, outside
/// the timed section.
pub const ORACLE_STRIDE: u64 = 64;

/// One closed-loop client: the next query is issued when the previous
/// answer is back. Each query first adopts the newest published snapshot
/// (draining any backlog), then runs `Scorer::top_k`; both are inside the
/// timed section, the oracle re-check is not. Runs until `done` is raised.
pub fn serve_closed_loop(
    queue: &Snapshots,
    seed: u64,
    num_users: u32,
    k: usize,
    done: &AtomicBool,
    trainer_epoch: &AtomicUsize,
) -> Result<ServeStats, String> {
    let mut current = queue
        .pop_wait(Duration::from_secs(120))?
        .ok_or("serve: queue closed before the first snapshot")?;
    let mut stats = ServeStats::default();
    let mut stream = QueryStream::new(seed, num_users, k);
    let mut scorer = Scorer::default();
    let mut answered: u64 = 0;
    while !done.load(Ordering::Acquire) {
        let query = stream.next_query();
        let t = Instant::now();
        let backlog = queue.backlog();
        for _ in 0..backlog {
            if let Ok(Some(snap)) = queue.pop_wait(Duration::ZERO) {
                current = snap;
            }
        }
        let answer = scorer.top_k(current.model.as_ref(), &query, &[]);
        let us = t.elapsed().as_secs_f64() * 1e6;
        stats.latency_us.push(us);
        stats.backlog_max = stats.backlog_max.max(backlog);
        stats.age_epochs_max = stats.age_epochs_max.max(
            trainer_epoch
                .load(Ordering::Relaxed)
                .saturating_sub(current.epoch),
        );
        if answer.len() != k {
            stats.wrong += 1;
        }
        if answered.is_multiple_of(ORACLE_STRIDE) {
            stats.checked += 1;
            if answer != naive_top_k(current.model.as_ref(), query.user, k, &[]) {
                stats.wrong += 1;
            }
        }
        answered += 1;
    }
    Ok(stats)
}

// ---------------------------------------------------------------------
// Layer probes: one public call each, timed by `layers.rs`
// ---------------------------------------------------------------------

/// How long whole `Node::epoch` calls take and where the node's own
/// stopwatch says the time went.
pub struct NodeEpochTimes {
    /// Mean wall time of one `Node::epoch` call, µs.
    pub call_us: f64,
    /// Each stage's share of the node's own ledger (merge, train, share,
    /// test; modelled SGX charges included, as the node books them).
    pub stage_share: [f64; 4],
    /// Share of the call's wall time that no stage's stopwatch covers.
    pub unattributed_share: f64,
}

/// Drives `rounds` lockstep rounds over `nodes` on this thread, routing
/// each round's outgoing messages into the next round's inboxes, and
/// times every `Node::epoch` call. Messages to nodes outside the slice
/// are dropped (a sample of a larger fleet).
pub fn time_node_epochs(nodes: &mut [TrainedNode], rounds: usize) -> NodeEpochTimes {
    let index: HashMap<usize, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.0.id(), i))
        .collect();
    let mut inboxes: Vec<Vec<Envelope>> = nodes.iter().map(|_| Vec::new()).collect();
    let (mut call_ns, mut calls, mut charged_ns) = (0u64, 0u64, 0u64);
    let mut stage_ns = [0u64; 4];
    // Round 0 only fills the inboxes: its calls merge nothing.
    for round in 0..=rounds {
        let mut next: Vec<Vec<Envelope>> = nodes.iter().map(|_| Vec::new()).collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            let inbox = std::mem::take(&mut inboxes[i]);
            let t = Instant::now();
            let (outgoing, report) = node.0.epoch(inbox);
            let ns = t.elapsed().as_nanos() as u64;
            if round > 0 {
                call_ns += ns;
                calls += 1;
                charged_ns += report.sgx_overhead_ns;
                for (slot, stage) in stage_ns.iter_mut().zip(STAGES) {
                    *slot += report.stage_times.get(stage);
                }
            }
            let from = node.0.id();
            for (dest, bytes) in outgoing {
                if let Some(&slot) = index.get(&dest) {
                    next[slot].push(Envelope { from, bytes });
                }
            }
        }
        inboxes = next;
    }
    let ledger: u64 = stage_ns.iter().sum();
    // Modelled SGX charges sit in the ledger but are not wall time.
    let staged_wall = ledger.saturating_sub(charged_ns) as f64;
    NodeEpochTimes {
        call_us: call_ns as f64 / calls.max(1) as f64 / 1e3,
        stage_share: stage_ns.map(|ns| ns as f64 / ledger.max(1) as f64),
        unattributed_share: 1.0 - staged_wall / call_ns.max(1) as f64,
    }
}

/// The dataset `cfg` describes, generated the way `build_fleet` does.
fn dataset_of(cfg: &Config) -> Dataset {
    SyntheticConfig {
        num_users: cfg.num_users,
        num_items: cfg.num_items,
        num_ratings: cfg.num_ratings,
        seed: cfg.data_seed,
        ..SyntheticConfig::default()
    }
    .generate()
}

/// Set-up layers, timed one public call at a time on the workload's shape.
pub struct SetupTimes {
    pub generate_ms: f64,
    pub partition_ms: f64,
    pub topology_ms: f64,
    pub build_fleet_ms: f64,
}

pub fn time_setup_layers(cfg: &Config) -> SetupTimes {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let n = cfg.num_nodes();
    let t = Instant::now();
    let dataset = dataset_of(cfg);
    let generate_ms = ms(t);
    let t = Instant::now();
    let split = TrainTestSplit::standard(&dataset, cfg.split_seed);
    std::hint::black_box(Partition::multi_user(&split, n));
    let partition_ms = ms(t);
    let t = Instant::now();
    std::hint::black_box(cfg.topology.build(n, cfg.topology_seed));
    let topology_ms = ms(t);
    let t = Instant::now();
    std::hint::black_box(build_fleet(cfg));
    SetupTimes {
        generate_ms,
        partition_ms,
        topology_ms,
        build_fleet_ms: ms(t),
    }
}

/// Provisions and attests the (small) cluster `cfg` describes in memory;
/// returns the time per attested edge, µs.
pub fn time_attest_edge_us(cfg: &Config) -> f64 {
    let mut fleet = build_fleet(cfg);
    let mut mem = MemNetwork::new(fleet.len());
    let (report, _) = establish_tee_with_directory(
        &mut fleet,
        &mut mem,
        SgxCostModel::default(),
        cfg.processes_per_platform,
        cfg.infra_seed,
    );
    report.measured_ns as f64 / report.edges.max(1) as f64 / 1e3
}

/// Bootstraps a 2-endpoint mesh the deployed way (bind, dial, accept,
/// hello) on two threads; returns the slower side's time, ms.
pub fn time_connect_ms() -> Result<f64, String> {
    let addrs = reserve_loopback_addrs(2).map_err(|e| e.to_string())?;
    let both = [0usize, 1];
    let connect = |id: usize| {
        let t = Instant::now();
        TcpEndpoint::connect_among(id, &addrs, &both, DEFAULT_CONNECT_TIMEOUT)
            .map(|ep| (ep, t.elapsed().as_secs_f64() * 1e3))
            .map_err(|e| format!("connect probe, node {id}: {e}"))
    };
    std::thread::scope(|scope| {
        let other = scope.spawn(|| connect(1));
        let mine = connect(0);
        let other = other.join().map_err(|_| "connect probe panicked")?;
        let ((_a, ms_a), (_b, ms_b)) = (mine?, other?);
        Ok(ms_a.max(ms_b))
    })
}

fn aad(from: usize, to: usize) -> [u8; 8] {
    let mut aad = [0u8; 8];
    aad[..4].copy_from_slice(&(from as u32).to_le_bytes());
    aad[4..].copy_from_slice(&(to as u32).to_le_bytes());
    aad
}

/// The two ends of one attested link, keyed from the link's ids.
fn session_pair(a: usize, b: usize) -> (SecureSession, SecureSession) {
    let m = Measurement::of_code(REX_ENCLAVE_V1);
    let (mut k1, mut k2) = ([0x11u8; 32], [0x22u8; 32]);
    k1[..8].copy_from_slice(&(a as u64).to_le_bytes());
    k2[..8].copy_from_slice(&(b as u64).to_le_bytes());
    (
        SecureSession::new(k1, k2, true, m),
        SecureSession::new(k2, k1, false, m),
    )
}

/// Inputs harvested from a trained node and its peer, plus the objects
/// the per-layer probes act on. Every method is one public call (or the
/// smallest pair that leaves the state reusable).
pub struct Kit {
    model: MfModel,
    peer_model: MfModel,
    store: RawDataStore,
    peer_store: RawDataStore,
    test: Vec<Rating>,
    rng: StdRng,
    points: usize,
    raw_plain: Plain,
    model_plain: Plain,
    raw_inner: Vec<u8>,
    model_inner: Vec<u8>,
    model_bytes: Vec<u8>,
    model_frame: Vec<u8>,
    frame_buf: Vec<u8>,
    assembler: FrameAssembler,
    tx: SecureSession,
    rx: SecureSession,
    cipher: ChaCha20Poly1305,
    chain: CommitmentChain,
    commit_epoch: usize,
    scorer: Scorer,
    queries: QueryStream,
    adopt_models: [MfModel; 2],
    adopt_flip: usize,
    tcp: TcpTransport,
    mem: MemNetwork,
    queue: Snapshots,
}

impl Kit {
    /// Harvests from `node` (and `peer`, which may be the same node for a
    /// one-node cluster). `points` is the workload's raw share size.
    pub fn new(
        node: &TrainedNode,
        peer: &TrainedNode,
        points: usize,
        seed: u64,
    ) -> Result<Kit, String> {
        let model = node.0.model().clone();
        let peer_model = peer.0.model().clone();
        let store = RawDataStore::with_initial(node.0.store().ratings().to_vec());
        let peer_store = RawDataStore::with_initial(peer.0.store().ratings().to_vec());
        let mut rng = StdRng::seed_from_u64(seed);
        let raw_plain = Plain::RawData {
            ratings: peer_store.sample(points, &mut rng),
            degree: 1,
        };
        let model_bytes = peer_model.to_bytes();
        let model_plain = Plain::Model {
            bytes: model_bytes.clone(),
            degree: 1,
        };
        let model_inner = encode_plain(&model_plain);
        let mut model_frame = Vec::new();
        encode_frame_into(
            &Frame::Data {
                from: 1,
                payload: model_inner.clone(),
            },
            &mut model_frame,
        );
        let (tx, rx) = session_pair(0, 1);
        let mut warm = model.clone();
        warm.train_steps(store.ratings(), 1, &mut rng);
        Ok(Kit {
            raw_inner: encode_plain(&raw_plain),
            raw_plain,
            model_plain,
            model_inner,
            model_bytes,
            model_frame,
            frame_buf: Vec::new(),
            assembler: FrameAssembler::new(),
            tx,
            rx,
            cipher: ChaCha20Poly1305::new(&[7u8; 32]),
            chain: CommitmentChain::new(seed, 0),
            commit_epoch: 0,
            scorer: Scorer::default(),
            queries: QueryStream::new(seed, model.num_users(), 10),
            adopt_models: [model.clone(), warm],
            adopt_flip: 0,
            tcp: TcpTransport::loopback(2).map_err(|e| format!("loopback fabric: {e}"))?,
            mem: MemNetwork::new(2),
            queue: SnapshotQueue::new(),
            test: node.0.test_data().to_vec(),
            points,
            rng,
            model,
            peer_model,
            store,
            peer_store,
        })
    }

    pub fn model_len(&self) -> usize {
        self.model_bytes.len()
    }

    // rex-ml
    pub fn sgd_steps(&mut self, steps: usize) {
        self.model
            .train_steps(self.store.ratings(), steps, &mut self.rng);
    }
    pub fn rmse_eval(&self) {
        std::hint::black_box(rmse(&self.model, &self.test));
    }
    pub fn merge(&mut self) {
        self.model.merge(&[(0.5, &self.peer_model)], 0.5);
    }
    pub fn to_bytes(&self) {
        std::hint::black_box(self.model.to_bytes());
    }
    pub fn model_from_bytes(&self) {
        std::hint::black_box(MfModel::from_bytes(&self.model_bytes).is_ok());
    }
    pub fn dots(&self, n: usize) {
        let k = self.model.hyper_params().k;
        let items = self.model.item_factors();
        let user = self.model.user_factors(0);
        let rows = items.len() / k;
        let mut acc = 0.0f32;
        for i in 0..n {
            let row = i % rows;
            acc += rex_ml::kernel::dot(user, &items[row * k..(row + 1) * k]);
        }
        std::hint::black_box(acc);
    }
    pub fn model_clone(&self) {
        std::hint::black_box(self.model.clone());
    }

    // rex-core
    pub fn commitment(&mut self) {
        let bytes = self.model.to_bytes();
        std::hint::black_box(self.chain.advance(self.commit_epoch, &bytes));
        self.commit_epoch += 1;
    }
    pub fn store_append(&mut self) {
        let batch = self.peer_store.sample(self.points, &mut self.rng);
        std::hint::black_box(self.store.append_batch(&batch));
    }
    /// The sampling half of [`Kit::store_append`], to subtract.
    pub fn store_append_baseline(&mut self) {
        std::hint::black_box(self.peer_store.sample(self.points, &mut self.rng));
    }
    pub fn store_sample(&mut self) {
        std::hint::black_box(self.store.sample(self.points, &mut self.rng));
    }
    pub fn serve_topk_warm(&mut self) {
        let q = self.queries.next_query();
        std::hint::black_box(self.scorer.top_k(&self.adopt_models[0], &q, &[]));
    }
    /// A query on a model the scorer has not cached: pays the norm-cache
    /// rebuild, like the first query after adopting a snapshot.
    pub fn serve_topk_adopt(&mut self) {
        self.adopt_flip ^= 1;
        let q = self.queries.next_query();
        std::hint::black_box(
            self.scorer
                .top_k(&self.adopt_models[self.adopt_flip], &q, &[]),
        );
    }
    /// Clone + digest + publish, as the deployed loop does per epoch, and
    /// the pop that keeps the queue from growing.
    pub fn snapshot_publish(&mut self) {
        let model = Arc::new(self.model.clone());
        let digest = snapshot_digest(model.as_ref());
        self.queue.publish(ModelSnapshot {
            epoch: 0,
            model,
            digest,
        });
        let _ = self.queue.pop_wait(Duration::ZERO);
    }

    // rex-net
    pub fn tcp_barrier(&mut self) {
        self.tcp.flush();
    }
    pub fn tcp_roundtrip(&mut self, len: usize) {
        Transport::send(&mut self.tcp, 0, 1, vec![0xA5; len]);
        self.tcp.flush();
        std::hint::black_box(Transport::recv(&mut self.tcp, 1));
        Transport::send(&mut self.tcp, 1, 0, vec![0x5A; len]);
        self.tcp.flush();
        std::hint::black_box(Transport::recv(&mut self.tcp, 0));
    }
    pub fn tcp_bulk(&mut self, len: usize) {
        Transport::send(&mut self.tcp, 0, 1, vec![0xA5; len]);
        self.tcp.flush();
        std::hint::black_box(Transport::recv(&mut self.tcp, 1));
    }
    pub fn mem_roundtrip(&mut self) {
        Transport::send(&mut self.mem, 0, 1, vec![0xA5; 256]);
        std::hint::black_box(Transport::recv(&mut self.mem, 1));
        Transport::send(&mut self.mem, 1, 0, vec![0x5A; 256]);
        std::hint::black_box(Transport::recv(&mut self.mem, 0));
    }
    pub fn frame_encode_model(&mut self) {
        self.frame_buf.clear();
        let frame = Frame::Data {
            from: 1,
            payload: std::mem::take(&mut self.model_inner),
        };
        encode_frame_into(&frame, &mut self.frame_buf);
        if let Frame::Data { payload, .. } = frame {
            self.model_inner = payload;
        }
    }
    pub fn frame_assemble_model(&mut self) {
        self.assembler.extend(&self.model_frame);
        std::hint::black_box(self.assembler.next_frame().is_ok());
    }
    pub fn encode_plain_model(&self) {
        std::hint::black_box(encode_plain(&self.model_plain));
    }
    pub fn decode_plain_model(&self) {
        std::hint::black_box(decode_plain(&self.model_inner).is_ok());
    }
    pub fn encode_plain_raw(&self) {
        std::hint::black_box(encode_plain(&self.raw_plain));
    }
    pub fn decode_plain_raw(&self) {
        std::hint::black_box(decode_plain(&self.raw_inner).is_ok());
    }

    // rex-crypto / rex-tee
    pub fn aead_seal_1m(&self) {
        std::hint::black_box(self.cipher.seal(&[0u8; 12], b"", &self.model_bytes));
    }
    /// Seal then open, so both nonce counters advance together. Returns
    /// `(seal_ns, open_ns)`.
    pub fn seal_open(&mut self, model_sized: bool) -> (u64, u64) {
        let inner = if model_sized {
            &self.model_inner
        } else {
            &self.raw_inner
        };
        let t = Instant::now();
        let sealed = self.tx.seal(&aad(0, 1), inner);
        let seal_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let opened = self.rx.open(&aad(0, 1), &sealed);
        let open_ns = t.elapsed().as_nanos() as u64;
        assert!(opened.is_ok(), "probe session failed to open its own frame");
        (seal_ns, open_ns)
    }
    pub fn sha256_model(&self) {
        std::hint::black_box(Sha256::digest(&self.model_bytes));
    }
}

// ---------------------------------------------------------------------
// Layer replay
// ---------------------------------------------------------------------

/// A benchmark-owned stand-in for one node, assembled from public
/// constructors out of a trained node's state, so every call the epoch
/// makes can carry its own span.
struct Replica {
    id: usize,
    neighbors: Vec<usize>,
    model: MfModel,
    store: RawDataStore,
    test: Vec<Rating>,
    rng: StdRng,
    sessions: HashMap<usize, SecureSession>,
    chain: CommitmentChain,
}

/// What a replay covers beyond the training epoch.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ReplayFabric {
    /// Loopback TCP fabric (the deployed workloads).
    Tcp,
    /// In-memory fabric (`sim-fleet`).
    Mem,
}

/// What a replay leaves behind besides its spans.
pub struct Replayed {
    /// Mean fleet RMSE after the last epoch: equal between a traced and
    /// an untraced replay of the same plan, or the replay is broken.
    pub rmse: f64,
    /// Wall time inside the epochs (what the `epoch` spans cover), read
    /// from one clock pair per epoch whether or not spans are recorded.
    pub epochs_s: f64,
}

pub struct ReplayPlan {
    pub fabric: ReplayFabric,
    pub epochs: usize,
    /// Seal and open every share, as `sgx = true` does.
    pub sealed: bool,
    /// Clone, digest and publish a snapshot per epoch and answer
    /// `queries_per_epoch` queries against it (`serve-live`).
    pub queries_per_epoch: usize,
}

/// Re-drives `epochs` epochs of the cluster `cfg` describes on this
/// thread, from the state `nodes` were left in, through the same public
/// calls `Node::epoch` and the deployed loop make, one span per call.
/// Neighbour lists are taken from `nodes` restricted to the slice.
pub fn replay(
    cfg: &Config,
    nodes: &[TrainedNode],
    plan: &ReplayPlan,
    tracer: &mut Tracer,
) -> Result<Replayed, String> {
    let ids: Vec<usize> = nodes.iter().map(|n| n.0.id()).collect();
    let slot_of: HashMap<usize, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut replicas: Vec<Replica> = nodes
        .iter()
        .enumerate()
        .map(|(slot, n)| Replica {
            id: slot,
            neighbors: n
                .0
                .neighbors()
                .iter()
                .filter_map(|peer| slot_of.get(peer).copied())
                .collect(),
            model: n.0.model().clone(),
            store: RawDataStore::with_initial(n.0.store().ratings().to_vec()),
            test: n.0.test_data().to_vec(),
            rng: StdRng::seed_from_u64(cfg.protocol_seed.wrapping_add(slot as u64)),
            sessions: HashMap::new(),
            chain: CommitmentChain::new(cfg.protocol_seed, slot),
        })
        .collect();
    if plan.sealed {
        for a in 0..replicas.len() {
            for b in replicas[a].neighbors.clone() {
                if a < b {
                    let (sa, sb) = session_pair(a, b);
                    replicas[a].sessions.insert(b, sa);
                    replicas[b].sessions.insert(a, sb);
                }
            }
        }
    }
    let n = replicas.len();
    match plan.fabric {
        ReplayFabric::Tcp => {
            let mut fabric =
                TcpTransport::loopback(n).map_err(|e| format!("loopback fabric: {e}"))?;
            replay_on(cfg, &mut replicas, &mut fabric, plan, tracer)
        }
        ReplayFabric::Mem => replay_on(cfg, &mut replicas, &mut MemNetwork::new(n), plan, tracer),
    }
}

fn replay_on<T: Transport>(
    cfg: &Config,
    replicas: &mut [Replica],
    fabric: &mut T,
    plan: &ReplayPlan,
    tracer: &mut Tracer,
) -> Result<Replayed, String> {
    let queue: Snapshots = SnapshotQueue::new();
    let mut epochs_s = 0.0;
    let mut scorer = Scorer::default();
    let mut stream = QueryStream::new(cfg.protocol_seed, cfg.num_users, 10);
    let mut last_rmse = vec![f64::NAN; replicas.len()];
    for epoch in 0..plan.epochs {
        let e = epoch as u32;
        let epoch_start = tracer.now();
        let epoch_clock = Instant::now();
        let mut inboxes = Vec::with_capacity(replicas.len());
        for r in replicas.iter() {
            inboxes.push(tracer.span("net.recv", e, r.id, || fabric.recv(r.id)));
        }
        tracer.span("net.barrier_drain", e, 0, || fabric.flush());
        for (r, inbox) in replicas.iter_mut().zip(inboxes) {
            let id = r.id;
            let mut aliens: Vec<(u32, MfModel)> = Vec::new();
            for env in &inbox {
                let payload = tracer
                    .span("net.decode_payload", e, id, || decode_payload(&env.bytes))
                    .map_err(|err| format!("replay: undecodable payload: {err}"))?;
                let inner = match payload {
                    Payload::Sealed(frame) => {
                        let session = r.sessions.get_mut(&env.from).ok_or("replay: no session")?;
                        tracer
                            .span("tee.open", e, id, || {
                                session.open(&aad(env.from, id), &frame)
                            })
                            .map_err(|err| format!("replay: open failed: {err}"))?
                    }
                    Payload::Clear(frame) => frame,
                    Payload::Attestation(_) => continue,
                };
                let plain = tracer
                    .span("net.decode_plain", e, id, || decode_plain(&inner))
                    .map_err(|err| format!("replay: undecodable plain: {err}"))?;
                match plain {
                    Plain::RawData { ratings, .. } | Plain::RawPacked { ratings, .. } => {
                        tracer.span("core.store_append", e, id, || {
                            r.store.append_batch(&ratings)
                        });
                    }
                    Plain::Model { bytes, degree } => {
                        let m = tracer
                            .span("ml.from_bytes", e, id, || MfModel::from_bytes(&bytes))
                            .map_err(|err| format!("replay: bad model bytes: {err}"))?;
                        aliens.push((degree, m));
                    }
                    Plain::ModelDelta { .. } | Plain::Empty { .. } => {}
                }
            }
            if !aliens.is_empty() {
                let own = r.neighbors.len();
                let contributions: Vec<(f64, &MfModel)> = aliens
                    .iter()
                    .map(|(deg, m)| (metropolis_hastings_weight(own, *deg as usize), m))
                    .collect();
                let self_weight = 1.0 - contributions.iter().map(|(w, _)| *w).sum::<f64>();
                tracer.span("ml.merge", e, id, || {
                    r.model.merge(&contributions, self_weight)
                });
            }
            drop(aliens);
            tracer.span("ml.train_steps", e, id, || {
                r.model
                    .train_steps(r.store.ratings(), cfg.steps_per_epoch, &mut r.rng);
            });
            let degree = r.neighbors.len() as u32;
            let plain = match cfg.sharing {
                SharingMode::RawData => {
                    tracer.span("core.store_sample", e, id, || Plain::RawData {
                        ratings: r.store.sample(cfg.points_per_epoch, &mut r.rng),
                        degree,
                    })
                }
                SharingMode::Model => tracer.span("ml.to_bytes", e, id, || Plain::Model {
                    bytes: r.model.to_bytes(),
                    degree,
                }),
            };
            let inner = tracer.span("net.encode_plain", e, id, || encode_plain(&plain));
            let mut outgoing = Vec::with_capacity(r.neighbors.len());
            for &dest in &r.neighbors {
                let payload = match r.sessions.get_mut(&dest) {
                    Some(session) => Payload::Sealed(
                        tracer.span("tee.seal", e, id, || session.seal(&aad(id, dest), &inner)),
                    ),
                    None => Payload::Clear(inner.clone()),
                };
                let bytes = tracer.span("net.encode_payload", e, id, || encode_payload(&payload));
                outgoing.push((dest, bytes));
            }
            last_rmse[id] = tracer
                .span("ml.rmse", e, id, || rmse(&r.model, &r.test))
                .unwrap_or(f64::NAN);
            let bytes = tracer.span("core.commit.to_bytes", e, id, || r.model.to_bytes());
            tracer.span("core.commit.advance", e, id, || {
                r.chain.advance(epoch, &bytes)
            });
            for (dest, bytes) in outgoing {
                tracer.span("net.send", e, id, || fabric.send(id, dest, bytes));
            }
        }
        tracer.span("net.barrier_sync", e, 0, || fabric.flush());
        if plan.queries_per_epoch > 0 {
            let r = &replicas[0];
            let model = tracer.span("ml.model_clone", e, 0, || Arc::new(r.model.clone()));
            let digest = tracer.span("core.snapshot_digest", e, 0, || {
                snapshot_digest(model.as_ref())
            });
            tracer.span("core.snapshot_publish", e, 0, || {
                queue.publish(ModelSnapshot {
                    epoch,
                    model,
                    digest,
                });
            });
        }
        tracer.record("epoch", "", e, 0, epoch_start);
        epochs_s += epoch_clock.elapsed().as_secs_f64();
        if plan.queries_per_epoch > 0 {
            let snap = queue
                .pop_wait(Duration::ZERO)?
                .ok_or("replay: snapshot queue closed")?;
            for i in 0..plan.queries_per_epoch {
                let query = stream.next_query();
                let name = if i == 0 {
                    "core.serve_adopt"
                } else {
                    "core.serve_topk"
                };
                let start = tracer.now();
                std::hint::black_box(scorer.top_k(snap.model.as_ref(), &query, &[]));
                tracer.record(name, "query", e, 0, start);
            }
        }
    }
    let seen: Vec<f64> = last_rmse.into_iter().filter(|r| r.is_finite()).collect();
    if seen.is_empty() {
        return Err("replay: no replica reported an RMSE".into());
    }
    Ok(Replayed {
        rmse: seen.iter().sum::<f64>() / seen.len() as f64,
        epochs_s,
    })
}
