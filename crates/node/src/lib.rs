//! Deployable REX node: one engine node per OS process, over real TCP.
//!
//! The paper evaluates REX on a real 8-node SGX testbed — separate
//! processes on separate machines, ZeroMQ in between. This crate is our
//! equivalent: the `rex-node` binary reads a [`ClusterConfig`], rebuilds
//! the fleet deterministically (same seeds → same dataset partition,
//! topology, and initial models in every process), keeps the node whose
//! id it was given, bootstraps a [`TcpEndpoint`] against its peers, and
//! runs the node's round ([`rex_core::round`]) over it — the same
//! endpoint driver the engine's thread-per-node driver runs over
//! channels.
//!
//! Determinism carries across process boundaries: a multi-process cluster
//! produces bit-identical per-node learning trajectories, byte counts and
//! stores as the in-process backends (`tests/tcp_cluster.rs` holds it to
//! that), because inboxes are drained in canonical order either way.
//!
//! In SGX mode, provisioning and pairwise attestation are replayed
//! in-memory by every process from the shared infrastructure seed — each
//! process derives the *same* platforms, enclaves and session keys, so no
//! coordinator has to distribute them. The handshake's traffic is
//! accounted from that replay and added to the wire stats, keeping
//! reported totals comparable with in-process SGX runs.

pub mod challenge;
pub mod config;
pub mod launcher;

pub use challenge::{challenge_node, ChallengeVerdict};
pub use config::{ClusterConfig, NodeDriver, ServeConfig, ShardingConfig};

pub use rex_core::round::{EpochOutcome, WireAudit, ASYNC_EPOCH_TIMEOUT};

use rex_core::commitment::EpochCommitment;
use rex_core::membership::MembershipView;
use rex_core::round::{self, EpochEvent, RoundContext};
use rex_core::serve::{
    fold_topk, snapshot_digest, QueryStream, Scorer, SnapshotQueue, SERVE_DIGEST_SEED,
};
use rex_core::setup::{establish_tee_with_directory, founding_view, TeeDirectory};
use rex_core::trace_out::TraceOut;
use rex_core::Node;
use rex_ml::MfModel;
use rex_net::fault::{FaultPlan, FaultyEndpoint};
use rex_net::mem::MemNetwork;
use rex_net::stats::TrafficStats;
use rex_net::tcp::{TcpEndpoint, TcpTransport, DEFAULT_CONNECT_TIMEOUT};
use rex_net::transport::{Endpoint, Transport};
use rex_tee::SgxCostModel;
use std::sync::Arc;
use std::time::Duration;

/// How long a scheduled joiner waits for the running cluster to reach
/// its join epoch (the cluster may be several epochs away when the
/// joiner process starts). This bounds the join window: the cluster
/// must arrive at the join epoch within this budget — and, mirrored on
/// the member side, admission waits at most the barrier timeout for the
/// joiner's dial-in — so start the joiner within ~2 minutes of the
/// cluster reaching its epoch (the launcher starts everything together,
/// well inside the window).
pub const JOIN_TIMEOUT: Duration = Duration::from_secs(120);

/// Builds the full fleet a config describes — identically in every
/// process that parses the same file — plus the epoch-0
/// [`MembershipView`] when the config schedules churn. When the config
/// carries a `[faults]` plan, nodes that are dead for the whole run are
/// pruned from every neighbour list here (the same crash-aware
/// pre-setup step the engine performs); when it carries a
/// `[membership]` plan, edges touching future joiners are likewise
/// stripped to their latent state, so attestation replay and per-node
/// degrees agree across all processes.
#[must_use]
pub fn build_fleet_and_view(cfg: &ClusterConfig) -> (Vec<Node<MfModel>>, Option<MembershipView>) {
    let mut fleet = build_fleet(cfg);
    let view = cfg
        .membership
        .clone()
        .map(|plan| founding_view(&mut fleet, plan, cfg.faults.as_ref()));
    (fleet, view)
}

/// [`build_fleet_and_view`] **without** the membership pruning: the
/// full (fault-pruned) fleet over the complete topology, built by
/// [`ClusterConfig::scenario`]'s recipe ([`rex_core::builder`] lists its
/// steps and seeds). This is what
/// engine-level callers want — [`rex_core::engine::Engine::run`]
/// derives its own [`MembershipView`] from
/// [`rex_core::engine::EngineConfig::membership`] and must see the
/// latent edges to strip them itself.
#[must_use]
pub fn build_fleet(cfg: &ClusterConfig) -> Vec<Node<MfModel>> {
    let mut fleet = cfg.scenario().build_fleet();
    if let Some(plan) = &cfg.faults {
        plan.validate(cfg.num_nodes());
        // The same crash-aware pre-setup step the engine runs — shared
        // so cluster-vs-engine bit-identity cannot drift.
        rex_core::setup::prune_dead_nodes(&mut fleet, plan);
    }
    fleet
}

/// What one deployed node reports when its run completes. Serializes to a
/// `key = value` text block so the launcher (a different process) can
/// collect and compare results bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSummary {
    /// The node's id.
    pub id: usize,
    /// Epochs run.
    pub epochs: usize,
    /// Final local RMSE, as IEEE-754 bits (`None` when the node holds no
    /// test ratings).
    pub final_rmse_bits: Option<u64>,
    /// Per-epoch local RMSE bits.
    pub rmse_trace_bits: Vec<Option<u64>>,
    /// Protocol + handshake traffic counters.
    pub stats: TrafficStats,
    /// Raw-data store size after the run.
    pub store_len: usize,
    /// Per-epoch signed model-digest commitments (`None` for epochs the
    /// node sat out: before a join, after a leave, crash windows). The
    /// recorded trace `rex-node --challenge` replays against.
    pub commitments: Vec<Option<EpochCommitment>>,
    /// The serve thread's tally (`None` when the config has no `[serve]`
    /// section). The digest pins the full served answer stream, so it is
    /// part of the cross-shape bit-identity contract.
    pub serve: Option<ServeSummary>,
}

/// What a node's serve thread reports when the run completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Top-k queries answered across the run.
    pub queries: u64,
    /// Running FNV-1a fold over every `(epoch, query, top-k answer)`
    /// served ([`rex_core::serve::fold_topk`]): a pure function of the
    /// cluster seeds, bit-identical across backends and deployment
    /// shapes.
    pub digest: u64,
}

impl NodeSummary {
    /// Serializes for the `--out` file.
    #[must_use]
    pub fn to_text(&self) -> String {
        let fmt_rmse = |bits: &Option<u64>| match bits {
            Some(b) => format!("{b:#x}"),
            None => "none".to_string(),
        };
        let trace: Vec<String> = self.rmse_trace_bits.iter().map(fmt_rmse).collect();
        let commitments: Vec<String> = self
            .commitments
            .iter()
            .map(|c| match c {
                Some(c) => c.to_hex(),
                None => "none".to_string(),
            })
            .collect();
        let serve = self
            .serve
            .map(|s| {
                format!(
                    "serve_queries = {}\nserve_digest = {:#x}\n",
                    s.queries, s.digest
                )
            })
            .unwrap_or_default();
        format!(
            "id = {}\nepochs = {}\nfinal_rmse = {}\nrmse_trace = {}\nbytes_out = {}\nbytes_in = {}\nmsgs_out = {}\nmsgs_in = {}\nstore_len = {}\ncommitments = {}\n{serve}",
            self.id,
            self.epochs,
            fmt_rmse(&self.final_rmse_bits),
            trace.join(","),
            self.stats.bytes_out,
            self.stats.bytes_in,
            self.stats.msgs_out,
            self.stats.msgs_in,
            self.store_len,
            commitments.join(","),
        )
    }

    /// Parses a summary file's contents.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut fields = std::collections::HashMap::new();
        for line in text.lines() {
            if let Some((k, v)) = line.split_once('=') {
                fields.insert(k.trim().to_string(), v.trim().to_string());
            }
        }
        let get = |key: &str| {
            fields
                .get(key)
                .cloned()
                .ok_or_else(|| format!("summary missing {key}"))
        };
        let int = |key: &str| -> Result<u64, String> {
            get(key)?.parse().map_err(|e| format!("summary {key}: {e}"))
        };
        let rmse = |raw: &str| -> Result<Option<u64>, String> {
            if raw == "none" {
                return Ok(None);
            }
            let hex = raw
                .strip_prefix("0x")
                .ok_or_else(|| format!("bad rmse bits: {raw}"))?;
            u64::from_str_radix(hex, 16)
                .map(Some)
                .map_err(|e| format!("bad rmse bits {raw}: {e}"))
        };
        let trace_raw = get("rmse_trace")?;
        let rmse_trace_bits = if trace_raw.is_empty() {
            Vec::new()
        } else {
            trace_raw
                .split(',')
                .map(rmse)
                .collect::<Result<Vec<_>, _>>()?
        };
        // Absent in summaries recorded before verifiable epochs existed:
        // parse those as "no commitment log" rather than failing.
        let commitments = match fields.get("commitments").filter(|raw| !raw.is_empty()) {
            None => Vec::new(),
            Some(raw) => raw
                .split(',')
                .map(|piece| match piece {
                    "none" => Ok(None),
                    hex => EpochCommitment::from_hex(hex).map(Some),
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        // Absent in summaries recorded by training-only configs (or
        // before serving existed): parse those as "no serve thread".
        let serve = match (fields.get("serve_queries"), fields.get("serve_digest")) {
            (None, None) => None,
            (Some(queries), Some(digest)) => {
                let hex = digest
                    .strip_prefix("0x")
                    .ok_or_else(|| format!("bad serve digest: {digest}"))?;
                Some(ServeSummary {
                    queries: queries
                        .parse()
                        .map_err(|e| format!("summary serve_queries: {e}"))?,
                    digest: u64::from_str_radix(hex, 16)
                        .map_err(|e| format!("bad serve digest {digest}: {e}"))?,
                })
            }
            _ => return Err("summary has serve_queries xor serve_digest".to_string()),
        };
        Ok(NodeSummary {
            id: int("id")? as usize,
            epochs: int("epochs")? as usize,
            final_rmse_bits: rmse(&get("final_rmse")?)?,
            rmse_trace_bits,
            stats: TrafficStats {
                bytes_out: int("bytes_out")?,
                bytes_in: int("bytes_in")?,
                msgs_out: int("msgs_out")?,
                msgs_in: int("msgs_in")?,
            },
            store_len: int("store_len")? as usize,
            commitments,
            serve,
        })
    }
}

fn add_stats(a: TrafficStats, b: TrafficStats) -> TrafficStats {
    TrafficStats {
        bytes_out: a.bytes_out + b.bytes_out,
        bytes_in: a.bytes_in + b.bytes_in,
        msgs_out: a.msgs_out + b.msgs_out,
        msgs_in: a.msgs_in + b.msgs_in,
    }
}

/// In SGX mode, replays TEE provisioning + attestation for the whole
/// fleet in memory. Every process runs this with the same seed, deriving
/// identical session keys — the distributed equivalent of the engine's
/// fabric-level setup. Returns per-node handshake traffic so deployed
/// stats stay comparable (zeros in native mode), plus the
/// [`TeeDirectory`] late joins attest against.
fn replay_setup(
    cfg: &ClusterConfig,
    fleet: &mut [Node<MfModel>],
) -> (Vec<TrafficStats>, Option<TeeDirectory>) {
    if !cfg.sgx {
        return (vec![TrafficStats::default(); fleet.len()], None);
    }
    let mut mem = MemNetwork::new(fleet.len());
    let (_, dir) = establish_tee_with_directory(
        fleet,
        &mut mem,
        SgxCostModel::default(),
        cfg.processes_per_platform,
        cfg.infra_seed,
    );
    (mem.all_stats(), Some(dir))
}

/// The audit a config asks for (`None` when it has no `[audit]`
/// section).
fn wire_audit(cfg: &ClusterConfig) -> Option<WireAudit> {
    cfg.audit.then_some(WireAudit {
        seed: cfg.protocol_seed,
    })
}

/// How long a serve thread waits for the next model snapshot before
/// declaring the trainer wedged. Generous for the same reason the
/// barrier timeout is: slow CI machines, not protocol latency, set the
/// ceiling.
pub const SERVE_POP_TIMEOUT: Duration = Duration::from_secs(120);

/// One node's serve session: the snapshot queue its training loop
/// publishes into, plus the thread answering the seeded query stream
/// against every published snapshot.
struct ServeSession {
    queue: Arc<SnapshotQueue<MfModel>>,
    handle: std::thread::JoinHandle<Result<ServeSummary, String>>,
}

impl ServeSession {
    /// Starts the serve thread for `node`. Must be called **before** the
    /// epoch loop runs: the exclusion lists are frozen from the node's
    /// *initial* local store — the store grows with gossiped raw data
    /// during the run, which would make exclusions depend on delivery
    /// order and break the cross-shape digest contract.
    fn start(cfg: &ServeConfig, node: &Node<MfModel>, num_users: u32) -> ServeSession {
        let queue = Arc::new(if cfg.verify_snapshots {
            SnapshotQueue::verified()
        } else {
            SnapshotQueue::new()
        });
        let exclusions: Vec<Vec<u32>> = (0..num_users)
            .map(|u| node.store().rated_items(u))
            .collect();
        let handle = std::thread::spawn({
            let queue = Arc::clone(&queue);
            let cfg = *cfg;
            let id = node.id();
            move || serve_loop(&cfg, id, num_users, &exclusions, &queue)
        });
        ServeSession { queue, handle }
    }

    /// Ends the session: closes the queue (the thread drains what is
    /// buffered, then sees end-of-stream) and joins.
    fn finish(self) -> Result<ServeSummary, String> {
        self.queue.close();
        self.handle
            .join()
            .map_err(|_| "serve thread panicked".to_string())?
    }
}

/// The serve thread body: for every snapshot the trainer publishes,
/// answer `queries_per_epoch` queries from the node's seeded stream and
/// fold each answer into the running serve digest.
fn serve_loop(
    cfg: &ServeConfig,
    id: usize,
    num_users: u32,
    exclusions: &[Vec<u32>],
    queue: &SnapshotQueue<MfModel>,
) -> Result<ServeSummary, String> {
    let mut stream = QueryStream::new(cfg.seed.wrapping_add(id as u64), num_users, cfg.top_k);
    let mut scorer = Scorer::default();
    let mut digest = SERVE_DIGEST_SEED;
    let mut queries: u64 = 0;
    while let Some(snap) = queue
        .pop_wait(SERVE_POP_TIMEOUT)
        .map_err(|e| format!("node {id}: {e}"))?
    {
        if queue.verifies() {
            let recomputed = snapshot_digest(snap.model.as_ref());
            if recomputed != snap.digest {
                return Err(format!(
                    "node {id}: snapshot digest mismatch at epoch {} — torn model read \
                     ({recomputed:#018x} != {:#018x})",
                    snap.epoch, snap.digest
                ));
            }
        }
        for _ in 0..cfg.queries_per_epoch {
            let query = stream.next_query();
            let exclude = exclusions
                .get(query.user as usize)
                .map_or(&[][..], Vec::as_slice);
            let results = scorer.top_k(snap.model.as_ref(), &query, exclude);
            digest = fold_topk(digest, snap.epoch, &query, &results);
            queries += 1;
        }
    }
    Ok(ServeSummary { queries, digest })
}

/// The endpoint driver of the round ([`rex_core::round::run_node_loop`]) under
/// the positional signature deployed callers hold: runs epochs
/// `start_epoch..epochs` and returns the per-epoch [`EpochOutcome`] trace
/// over exactly that range, ending early at a graceful leave (default
/// entries for down / non-member epochs). Calls `progress` after each
/// epoch with `(epoch, rmse)`.
///
/// # Errors
/// When the transport surfaces a peer failure, SGX admission fails, or a
/// peer's commitment fails HMAC verification — the deployed binary exits
/// cleanly instead of panicking.
#[allow(clippy::too_many_arguments)]
pub fn run_node_loop<E: Endpoint>(
    node: &mut Node<MfModel>,
    endpoint: &mut E,
    epochs: usize,
    start_epoch: usize,
    faults: Option<&FaultPlan>,
    view: Option<&mut MembershipView>,
    tee: Option<&TeeDirectory>,
    audit: Option<WireAudit>,
    serve: Option<&SnapshotQueue<MfModel>>,
    mut progress: impl FnMut(usize, Option<f64>),
) -> Result<Vec<EpochOutcome>, String> {
    let mut trace = Vec::with_capacity(epochs.saturating_sub(start_epoch));
    let ctx = RoundContext {
        faults,
        view,
        tee,
        audit,
        serve,
    };
    round::run_node_loop(node, endpoint, start_epoch..epochs, ctx, |event| {
        trace.push(event.outcome());
        progress(event.epoch, event.report.and_then(|r| r.rmse));
    })?;
    Ok(trace)
}

/// Runs one deployed node end to end: rebuild the fleet (and the
/// membership view, when scheduled), keep node `id`, bootstrap TCP
/// against the peers — a **founding member** meshes with the other
/// founders at startup; a **scheduled joiner** dials the running
/// cluster with a `Join` control frame (carrying its late-attestation
/// evidence in SGX mode) and blocks until the shared schedule admits it
/// — then run the epoch loop and summarize. The returned summary's RMSE
/// trace spans all `epochs`: `None` before a join, after a leave, and
/// during crash windows. With `trace`, every epoch the node executes is
/// written to it as one JSON line ([`rex_core::trace_out`]).
pub fn run_node(
    cfg: &ClusterConfig,
    id: usize,
    trace: Option<&TraceOut>,
    progress: impl FnMut(usize, Option<f64>),
) -> Result<NodeSummary, String> {
    let n = cfg.num_nodes();
    if id >= n {
        return Err(format!("node id {id} outside cluster of {n}"));
    }
    let addrs = cfg.addrs()?;
    let (mut fleet, mut view) = build_fleet_and_view(cfg);
    let (setup_stats, dir) = replay_setup(cfg, &mut fleet);
    let tee = dir.as_ref();
    let mut node = fleet
        .into_iter()
        .nth(id)
        .ok_or_else(|| format!("node {id}: the built fleet of {n} does not cover this id"))?;

    let (endpoint, start_epoch) = match join_epoch_of(cfg, id) {
        None => {
            // Founders mesh among every non-joiner id (nodes excluded as
            // crash-dead still serve barriers, exactly like a static
            // fault deployment).
            let founders: Vec<usize> = (0..n)
                .filter(|&v| join_epoch_of(cfg, v).is_none())
                .collect();
            let endpoint =
                TcpEndpoint::connect_among(id, &addrs, &founders, DEFAULT_CONNECT_TIMEOUT)
                    .map_err(|e| format!("node {id}: bootstrap failed: {e}"))?;
            (endpoint, 0)
        }
        Some(k) => {
            // join_epoch_of only returns Some when the section exists,
            // but a panic here would take down a deployed process —
            // surface a config error instead.
            let Some(plan) = cfg.membership.as_ref() else {
                return Err(format!(
                    "node {id}: scheduled as a joiner but the config has no \
                     [membership] section"
                ));
            };
            if k >= cfg.epochs {
                return Err(format!(
                    "node {id} joins at epoch {k}, but the run has only {} epochs",
                    cfg.epochs
                ));
            }
            // Dial every node alive in the view at the join epoch —
            // founders that have not left, earlier joiners — plus
            // same-epoch joiners with a higher id; accept from
            // same-epoch joiners with a lower id (they dial us).
            let joins_now = plan.joins_at(k);
            let dial: Vec<usize> = (0..n)
                .filter(|&v| v != id)
                .filter(|&v| plan.leave_epoch(v).is_none_or(|l| l > k))
                .filter(|&v| match plan.join_epoch(v) {
                    None => true,
                    Some(jk) => jk < k || (jk == k && v > id),
                })
                .collect();
            let accept_from: Vec<usize> = joins_now.iter().copied().filter(|&v| v < id).collect();
            let evidence = match tee {
                Some(dir) => round::encode_evidence(dir, &mut node, k)?,
                None => Vec::new(),
            };
            let endpoint = TcpEndpoint::connect_as_joiner(
                id,
                &addrs,
                k,
                &dial,
                &accept_from,
                evidence,
                JOIN_TIMEOUT,
            )
            .map_err(|e| format!("node {id}: join bootstrap failed: {e}"))?;
            // Catch the local view up to the epochs the running cluster
            // already executed without us.
            if let Some(v) = view.as_mut() {
                for epoch in 0..k {
                    let _ = v.advance(epoch);
                }
            }
            (endpoint, k)
        }
    };

    let mut summary = drive_node(
        cfg,
        node,
        endpoint,
        start_epoch,
        view.as_mut(),
        tee,
        trace,
        progress,
    )?;
    summary.stats = add_stats(summary.stats, setup_stats[id]);
    Ok(summary)
}

/// The join epoch of `id` under the config's schedule (`None` for
/// founders — including nodes with no schedule at all).
fn join_epoch_of(cfg: &ClusterConfig, id: usize) -> Option<usize> {
    cfg.membership.as_ref().and_then(|p| p.join_epoch(id))
}

/// Everything a node does once it holds a connected endpoint — shared by
/// the deployed process and every thread of the in-process cluster: wrap
/// the endpoint under the config's fault plan, run the serve session
/// around the round loop the config's driver names, and summarize over
/// the run's full span (`None` entries before `start_epoch` and after a
/// graceful leave), writing each executed epoch to `trace` when given.
/// The summary's traffic is the endpoint's own; callers add the replayed
/// handshake's.
#[allow(clippy::too_many_arguments)]
fn drive_node(
    cfg: &ClusterConfig,
    mut node: Node<MfModel>,
    endpoint: TcpEndpoint,
    start_epoch: usize,
    view: Option<&mut MembershipView>,
    tee: Option<&TeeDirectory>,
    trace: Option<&TraceOut>,
    mut progress: impl FnMut(usize, Option<f64>),
) -> Result<NodeSummary, String> {
    // The serve thread starts before the loop (exclusions freeze from
    // the initial store) and is finished after it either way: a loop
    // error must still close the queue and join rather than leak a
    // thread blocked on the next snapshot.
    let session = cfg
        .serve
        .as_ref()
        .map(|s| ServeSession::start(s, &node, cfg.num_users));
    let ctx = RoundContext {
        faults: cfg.faults.as_ref(),
        view,
        tee,
        audit: wire_audit(cfg),
        serve: session.as_ref().map(|s| &*s.queue),
    };
    let mut outcomes = vec![EpochOutcome::default(); start_epoch];
    let id = node.id();
    let mut trace_err = None;
    let on_epoch = |event: EpochEvent| {
        outcomes.push(event.outcome());
        if let (Some(out), Some(report)) = (trace, &event.report) {
            if trace_err.is_none() {
                trace_err = out.write(id, event.epoch, report).err();
            }
        }
        progress(event.epoch, event.report.and_then(|r| r.rmse));
    };
    // Under a fault plan the endpoint is wrapped exactly like the
    // in-process backends: every process makes the same per-link hash
    // decisions from the shared plan, so the cluster replays the same
    // schedule bit-for-bit.
    let looped = match cfg.faults.clone() {
        Some(plan) => {
            let endpoint = FaultyEndpoint::new(endpoint, plan);
            run_loop(cfg, &mut node, endpoint, start_epoch, ctx, on_epoch)
        }
        None => run_loop(cfg, &mut node, endpoint, start_epoch, ctx, on_epoch),
    };
    let serve = match session.map(ServeSession::finish).transpose() {
        Ok(serve) => serve,
        // A loop error is the root cause; the serve error (usually a pop
        // timeout behind it) only surfaces when the loop was fine.
        Err(e) if looped.is_ok() => return Err(e),
        Err(_) => None,
    };
    let stats = looped?;
    if let Some(e) = trace_err.or(trace.and_then(|out| out.flush().err())) {
        return Err(format!("node {id}: writing the trace: {e}"));
    }

    outcomes.resize(cfg.epochs, EpochOutcome::default());
    Ok(NodeSummary {
        id,
        epochs: cfg.epochs,
        final_rmse_bits: node.local_rmse().map(f64::to_bits),
        rmse_trace_bits: outcomes.iter().map(|o| o.rmse_bits).collect(),
        stats,
        store_len: node.store().len(),
        commitments: outcomes.iter().map(|o| o.commitment).collect(),
        serve,
    })
}

/// Runs the round loop the config's driver names over `endpoint` and
/// returns the endpoint's traffic counters.
fn run_loop<E: Endpoint>(
    cfg: &ClusterConfig,
    node: &mut Node<MfModel>,
    mut endpoint: E,
    start_epoch: usize,
    ctx: RoundContext<'_, MfModel>,
    on_epoch: impl FnMut(EpochEvent),
) -> Result<TrafficStats, String> {
    match cfg.driver {
        NodeDriver::Lockstep => {
            round::run_node_loop(node, &mut endpoint, start_epoch..cfg.epochs, ctx, on_epoch)
        }
        // Config validation pins bounded-async to fault-free, churn-free
        // D-PSGD: `start_epoch` is 0 and only audit and serve apply.
        NodeDriver::BoundedAsync { k } => round::run_node_loop_async(
            node,
            &mut endpoint,
            cfg.epochs,
            k,
            ctx.audit,
            ctx.serve,
            on_epoch,
        ),
    }?;
    Ok(endpoint.stats())
}

/// Runs the whole cluster in this process — one thread per node over a
/// loopback TCP fabric, each thread executing exactly what a deployed
/// process does once connected (`drive_node`). The reference the
/// multi-process launcher is compared against. Under a membership
/// schedule the fabric is pre-connected, so a scheduled joiner's thread
/// serves the infrastructure barriers until its epoch
/// (protocol-identical to the multi-process cluster, where the joiner's
/// process dials in late).
pub fn run_cluster_in_process(cfg: &ClusterConfig) -> Result<Vec<NodeSummary>, String> {
    run_cluster_traced(cfg, None)
}

/// [`run_cluster_in_process`], every node writing each epoch it executes
/// to `trace` (one shared file: lines of one epoch land in the order the
/// threads finish it).
///
/// # Errors
/// As [`run_cluster_in_process`], and when writing the trace fails.
pub fn run_cluster_traced(
    cfg: &ClusterConfig,
    trace: Option<&TraceOut>,
) -> Result<Vec<NodeSummary>, String> {
    let n = cfg.num_nodes();
    let (mut fleet, view) = build_fleet_and_view(cfg);
    let (setup_stats, dir) = replay_setup(cfg, &mut fleet);
    let fabric = TcpTransport::loopback(n).map_err(|e| format!("loopback fabric: {e}"))?;
    let endpoints = fabric.into_endpoints();

    let dir = dir.as_ref();
    std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .into_iter()
            .zip(endpoints)
            .map(|(node, endpoint)| {
                let mut view = view.clone();
                scope.spawn(move || {
                    drive_node(cfg, node, endpoint, 0, view.as_mut(), dir, trace, |_, _| {})
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(id, handle)| {
                let mut summary = handle
                    .join()
                    .map_err(|_| format!("node {id} thread panicked"))??;
                summary.stats = add_stats(summary.stats, setup_stats[id]);
                Ok(summary)
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_ml::MfHyperParams;
    use rex_net::tcp::reserve_loopback_addrs;

    fn tiny_cfg(n: usize) -> ClusterConfig {
        ClusterConfig {
            nodes: (0..n).map(|i| format!("127.0.0.1:{}", 7100 + i)).collect(),
            epochs: 4,
            num_users: 16,
            num_items: 80,
            num_ratings: 1_000,
            points_per_epoch: 20,
            steps_per_epoch: 60,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn serve_loop_rejects_a_tampered_snapshot_on_a_verifying_queue() {
        use rex_core::serve::ModelSnapshot;
        let cfg = ServeConfig {
            queries_per_epoch: 2,
            ..ServeConfig::default()
        };
        let model = Arc::new(MfModel::new(4, 16, MfHyperParams::default(), 3.5, 1));
        let tampered = |queue: &SnapshotQueue<MfModel>| {
            queue.publish_model(0, Arc::clone(&model));
            queue.publish(ModelSnapshot {
                epoch: 1,
                model: Arc::clone(&model),
                digest: snapshot_digest(model.as_ref()) ^ 1,
            });
            queue.close();
        };
        let verified = SnapshotQueue::verified();
        tampered(&verified);
        let err = serve_loop(&cfg, 0, 4, &[], &verified).unwrap_err();
        assert!(err.contains("digest mismatch at epoch 1"), "{err}");
        // A queue nobody verifies carries the digest unread.
        let plain = SnapshotQueue::new();
        tampered(&plain);
        assert_eq!(serve_loop(&cfg, 0, 4, &[], &plain).unwrap().queries, 4);
    }

    #[test]
    fn summary_text_roundtrip() {
        let mut chain = rex_core::CommitmentChain::new(17, 3);
        let summary = NodeSummary {
            id: 3,
            epochs: 2,
            final_rmse_bits: Some(0x3FF0_0000_0000_0001),
            rmse_trace_bits: vec![None, Some(42)],
            stats: TrafficStats {
                bytes_out: 10,
                bytes_in: 20,
                msgs_out: 1,
                msgs_in: 2,
            },
            store_len: 7,
            commitments: vec![None, Some(chain.advance(0, b"model"))],
            serve: Some(ServeSummary {
                queries: 64,
                digest: 0xDEAD_BEEF_0123_4567,
            }),
        };
        assert_eq!(NodeSummary::parse(&summary.to_text()).unwrap(), summary);
        assert!(NodeSummary::parse("id = 1").is_err());
        // Training-only summaries (no [serve] section) omit the lines.
        let unserved = NodeSummary {
            serve: None,
            ..summary.clone()
        };
        let text = unserved.to_text();
        assert!(!text.contains("serve_"), "{text}");
        assert_eq!(NodeSummary::parse(&text).unwrap(), unserved);
        // One serve line without the other is corruption, not legacy.
        let torn = summary
            .to_text()
            .lines()
            .filter(|l| !l.starts_with("serve_digest"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(NodeSummary::parse(&torn).is_err());
        // Summaries recorded before verifiable epochs parse with an
        // empty commitment log.
        let legacy = NodeSummary {
            commitments: Vec::new(),
            ..summary.clone()
        };
        let text = legacy
            .to_text()
            .lines()
            .filter(|l| !l.starts_with("commitments"))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(NodeSummary::parse(&text).unwrap(), legacy);
        // A corrupted commitment line is an error, not a silent skip.
        let bad = summary.to_text().replace(':', ";");
        assert!(NodeSummary::parse(&bad).is_err());
    }

    #[test]
    fn sharded_fleet_hosts_contiguous_blocks() {
        let cfg = ClusterConfig {
            sharding: Some(ShardingConfig {
                users_per_node: 4, // 4 nodes x 4 users = 16 = num_users
            }),
            ..tiny_cfg(4)
        };
        let fleet = build_fleet(&cfg);
        assert_eq!(fleet.len(), 4);
        for (id, node) in fleet.iter().enumerate() {
            let block = node.shard_block().expect("width-4 shard");
            assert_eq!(block.start, 4 * id as u32);
            assert_eq!(block.end, 4 * (id as u32 + 1));
            assert_eq!(node.users_hosted(), 4);
        }
    }

    #[test]
    fn width_one_sharded_fleet_is_bit_identical_to_legacy() {
        // The determinism contract end-to-end through the config layer:
        // users_per_node = 1 (16 nodes hosting 16 users) must build the
        // exact fleet the unsharded config builds.
        let sharded = build_fleet(&ClusterConfig {
            sharding: Some(ShardingConfig { users_per_node: 1 }),
            ..tiny_cfg(16)
        });
        let legacy = build_fleet(&tiny_cfg(16));
        assert_eq!(sharded.len(), legacy.len());
        for (s, l) in sharded.iter().zip(&legacy) {
            assert_eq!(s.shard_block(), None, "width-1 shard must normalize away");
            assert_eq!(s.store().ratings(), l.store().ratings());
            assert_eq!(s.store().memory_bytes(), l.store().memory_bytes());
        }
    }

    #[test]
    fn fleet_building_is_deterministic() {
        let cfg = tiny_cfg(4);
        let a = build_fleet(&cfg);
        let b = build_fleet(&cfg);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id(), y.id());
            assert_eq!(x.neighbors(), y.neighbors());
            assert_eq!(
                x.local_rmse().map(f64::to_bits),
                y.local_rmse().map(f64::to_bits)
            );
        }
    }

    #[test]
    fn in_process_cluster_learns_and_balances_traffic() {
        let cfg = tiny_cfg(4);
        let summaries = run_cluster_in_process(&cfg).unwrap();
        assert_eq!(summaries.len(), 4);
        for s in &summaries {
            assert_eq!(s.rmse_trace_bits.len(), cfg.epochs);
            // Fully connected, D-PSGD: every node shares with all three
            // peers every epoch.
            assert_eq!(s.stats.msgs_out, 3 * cfg.epochs as u64);
            assert_eq!(s.stats.msgs_out, s.stats.msgs_in);
        }
    }

    #[test]
    fn bounded_async_cluster_trains_every_epoch_without_barriers() {
        let mut cfg = tiny_cfg(4);
        cfg.driver = NodeDriver::BoundedAsync { k: 2 };
        let summaries = run_cluster_in_process(&cfg).unwrap();
        assert_eq!(summaries.len(), 4);
        for s in &summaries {
            assert_eq!(s.rmse_trace_bits.len(), cfg.epochs);
            assert!(
                s.rmse_trace_bits.iter().all(Option::is_some),
                "node {}: every epoch trains — staleness defers shares, not rounds",
                s.id
            );
            // Fully connected D-PSGD: each node still stages a share to
            // all 3 peers every epoch; the driver changes when shares
            // merge, never whether they are sent.
            assert_eq!(s.stats.msgs_out, 3 * cfg.epochs as u64);
        }
    }

    #[test]
    fn bounded_async_node_threads_complete_over_real_sockets() {
        // The deployed path (run_node over connect() bootstrap): no
        // bit-exactness claim here — arrival timing is real — just that
        // every process finishes all epochs with full traffic out and a
        // learning model.
        let mut cfg = tiny_cfg(3);
        cfg.epochs = 3;
        cfg.driver = NodeDriver::BoundedAsync { k: 1 };
        let addrs = reserve_loopback_addrs(3).unwrap();
        cfg.nodes = addrs.iter().map(ToString::to_string).collect();
        let handles: Vec<_> = (0..3)
            .map(|id| {
                let cfg = cfg.clone();
                std::thread::spawn(move || run_node(&cfg, id, None, |_, _| {}).unwrap())
            })
            .collect();
        for handle in handles {
            let summary = handle.join().unwrap();
            assert_eq!(summary.epochs, 3);
            assert!(summary.rmse_trace_bits.iter().all(Option::is_some));
            assert_eq!(summary.stats.msgs_out, 2 * 3);
            assert!(summary.final_rmse_bits.is_some());
        }
    }

    #[test]
    fn audited_cluster_commits_every_epoch_and_verifies_on_the_wire() {
        use rex_core::commitment::verify_tag;
        let mut cfg = tiny_cfg(4);
        cfg.audit = true;
        let summaries = run_cluster_in_process(&cfg).unwrap();
        for s in &summaries {
            assert_eq!(s.commitments.len(), cfg.epochs);
            for (epoch, c) in s.commitments.iter().enumerate() {
                let c = c.expect("every epoch of a static fleet commits");
                assert!(
                    verify_tag(cfg.protocol_seed, s.id, epoch, &c),
                    "node {} epoch {epoch}: tag does not verify",
                    s.id
                );
            }
            // Commitments ride the control plane: protocol payload
            // traffic is identical to an unaudited run.
            assert_eq!(s.stats.msgs_out, 3 * cfg.epochs as u64);
        }
        // The audit does not perturb determinism — and an unaudited run
        // reaches the exact same models (same commitment chain, derived
        // locally either way, just never shipped).
        let again = run_cluster_in_process(&cfg).unwrap();
        assert_eq!(summaries, again, "audited runs replay bit-for-bit");
        let mut silent = cfg.clone();
        silent.audit = false;
        let unaudited = run_cluster_in_process(&silent).unwrap();
        for (a, b) in summaries.iter().zip(&unaudited) {
            assert_eq!(a.rmse_trace_bits, b.rmse_trace_bits);
            assert_eq!(a.commitments, b.commitments);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn serving_cluster_replays_and_leaves_training_untouched() {
        let mut cfg = tiny_cfg(4);
        cfg.serve = Some(ServeConfig {
            queries_per_epoch: 8,
            top_k: 5,
            verify_snapshots: true,
            ..ServeConfig::default()
        });
        let a = run_cluster_in_process(&cfg).unwrap();
        let b = run_cluster_in_process(&cfg).unwrap();
        assert_eq!(a, b, "served runs replay bit-for-bit");
        for s in &a {
            let serve = s.serve.expect("[serve] section → serve summary");
            assert_eq!(serve.queries, (cfg.epochs * 8) as u64);
        }
        // Per-node query streams diverge (seed + id), so digests do too.
        assert_ne!(a[0].serve, a[1].serve);
        // Serving is read-only: the training side of the summaries is
        // bit-identical to a training-only run.
        let mut silent = cfg.clone();
        silent.serve = None;
        let unserved = run_cluster_in_process(&silent).unwrap();
        for (served, plain) in a.iter().zip(&unserved) {
            assert_eq!(served.rmse_trace_bits, plain.rmse_trace_bits);
            assert_eq!(served.stats, plain.stats);
            assert_eq!(served.store_len, plain.store_len);
            assert_eq!(plain.serve, None);
        }
    }

    #[test]
    fn serving_node_threads_match_in_process_cluster() {
        // The deployed path: serve digests must agree bit-for-bit with
        // the loopback-fabric reference, including through the summary
        // text roundtrip the launcher uses.
        let mut cfg = tiny_cfg(3);
        cfg.epochs = 3;
        cfg.serve = Some(ServeConfig {
            queries_per_epoch: 6,
            top_k: 4,
            verify_snapshots: true,
            ..ServeConfig::default()
        });
        let reference = run_cluster_in_process(&cfg).unwrap();

        let addrs = reserve_loopback_addrs(3).unwrap();
        cfg.nodes = addrs.iter().map(ToString::to_string).collect();
        let handles: Vec<_> = (0..3)
            .map(|id| {
                let cfg = cfg.clone();
                std::thread::spawn(move || run_node(&cfg, id, None, |_, _| {}).unwrap())
            })
            .collect();
        for handle in handles {
            let summary = handle.join().unwrap();
            assert_eq!(summary, reference[summary.id]);
            assert_eq!(
                NodeSummary::parse(&summary.to_text()).unwrap(),
                summary,
                "serve fields must survive the launcher's text roundtrip"
            );
        }
    }

    #[test]
    fn serving_joiner_digests_match_across_deployment_shapes() {
        // The publish rule under churn: an in-process joiner thread
        // (barrier-serving from epoch 0) must publish exactly the member
        // epochs a late-dialing joiner process does — same snapshot set,
        // same serve digest. The leaver stops publishing at its leave.
        let mut cfg = churn_cfg(4);
        cfg.serve = Some(ServeConfig {
            queries_per_epoch: 4,
            top_k: 3,
            verify_snapshots: true,
            ..ServeConfig::default()
        });
        let reference = run_cluster_in_process(&cfg).unwrap();
        let joiner = reference[3].serve.unwrap();
        assert_eq!(joiner.queries, 4 * 4, "joined at 2 of 6 epochs → 4 served");
        let leaver = reference[1].serve.unwrap();
        assert_eq!(leaver.queries, 5 * 4, "left at 5 → epochs 0–4 served");

        let addrs = reserve_loopback_addrs(4).unwrap();
        cfg.nodes = addrs.iter().map(ToString::to_string).collect();
        let handles: Vec<_> = (0..4)
            .map(|id| {
                let cfg = cfg.clone();
                std::thread::spawn(move || run_node(&cfg, id, None, |_, _| {}).unwrap())
            })
            .collect();
        for handle in handles {
            let summary = handle.join().unwrap();
            assert_eq!(summary, reference[summary.id]);
        }
    }

    #[test]
    fn faulty_cluster_is_deterministic_and_respects_crashes() {
        use rex_net::fault::LinkFaults;
        let mut cfg = tiny_cfg(4);
        cfg.faults =
            Some(FaultPlan::uniform(3, LinkFaults::drop_rate(0.25)).with_crash(2, 1, Some(3)));
        let a = run_cluster_in_process(&cfg).unwrap();
        let b = run_cluster_in_process(&cfg).unwrap();
        assert_eq!(a, b, "same plan must replay bit-for-bit");
        // Node 2 sat out epochs 1 and 2.
        assert!(a[2].rmse_trace_bits[0].is_some());
        assert!(a[2].rmse_trace_bits[1].is_none());
        assert!(a[2].rmse_trace_bits[2].is_none());
        assert!(a[2].rmse_trace_bits[3].is_some());
        // Drops actually happened: someone received fewer messages than
        // the reliable run would deliver (3 peers x 4 epochs, minus the
        // crash window).
        let reliable: u64 = 3 * cfg.epochs as u64;
        assert!(
            a.iter().any(|s| s.stats.msgs_in < reliable),
            "no message was ever lost under a 25% drop plan"
        );
    }

    fn churn_cfg(n: usize) -> ClusterConfig {
        use rex_core::membership::MembershipPlan;
        let mut cfg = tiny_cfg(n);
        cfg.epochs = 6;
        cfg.membership = Some(
            MembershipPlan {
                seed: 0x77,
                bootstrap_points: 25,
                ..MembershipPlan::default()
            }
            .with_join(n - 1, 2, None)
            .with_leave(1, 5),
        );
        cfg
    }

    #[test]
    fn membership_cluster_replays_and_tracks_the_view() {
        let cfg = churn_cfg(5);
        let a = run_cluster_in_process(&cfg).unwrap();
        let b = run_cluster_in_process(&cfg).unwrap();
        assert_eq!(a, b, "same schedule must replay bit-for-bit");

        // The joiner sat out epochs 0–1, then ran 2–5.
        let joiner = &a[4];
        assert!(joiner.rmse_trace_bits[0].is_none());
        assert!(joiner.rmse_trace_bits[1].is_none());
        assert!(joiner.rmse_trace_bits[2].is_some());
        assert!(joiner.rmse_trace_bits[5].is_some());
        assert!(joiner.stats.msgs_in > 0, "joiner received gossip");

        // The leaver ran epochs 0–4 and departed at 5.
        let leaver = &a[1];
        assert!(leaver.rmse_trace_bits[4].is_some());
        assert!(leaver.rmse_trace_bits[5].is_none());
    }

    #[test]
    fn membership_threads_match_in_process_cluster() {
        // The real joiner path — connect_as_joiner dialing a running
        // mesh — must agree bit-for-bit with the pre-connected loopback
        // cluster.
        let mut cfg = churn_cfg(4);
        let reference = run_cluster_in_process(&cfg).unwrap();

        let addrs = reserve_loopback_addrs(4).unwrap();
        cfg.nodes = addrs.iter().map(ToString::to_string).collect();
        let handles: Vec<_> = (0..4)
            .map(|id| {
                let cfg = cfg.clone();
                std::thread::spawn(move || run_node(&cfg, id, None, |_, _| {}).unwrap())
            })
            .collect();
        for handle in handles {
            let summary = handle.join().unwrap();
            assert_eq!(summary, reference[summary.id]);
        }
    }

    #[test]
    fn delayed_faults_with_leave_match_engine_and_replay() {
        // Delay faults hold messages across the leave boundary: a held
        // message to (or from) the leaver must be purged identically in
        // the deployed per-endpoint wrappers and the engine's central
        // one — previously the post-retirement release panicked the
        // deployed process on the torn-down connection.
        use rex_core::config::ExecutionMode;
        use rex_core::engine::{Driver, Engine, EngineConfig, TimeAxis};
        use rex_core::membership::MembershipPlan;
        use rex_net::fault::LinkFaults;
        let mut cfg = tiny_cfg(4);
        cfg.epochs = 5;
        cfg.faults = Some(FaultPlan::uniform(
            0xDE1A,
            LinkFaults {
                delay: 0.9,
                ..LinkFaults::default()
            },
        ));
        cfg.membership = Some(
            MembershipPlan {
                seed: 0x6C,
                bootstrap_points: 15,
                ..MembershipPlan::default()
            }
            .with_join(3, 1, None)
            .with_leave(1, 3),
        );
        let a = run_cluster_in_process(&cfg).unwrap();
        let b = run_cluster_in_process(&cfg).unwrap();
        assert_eq!(a, b, "delayed churn must replay bit-for-bit");

        let mut nodes = build_fleet(&cfg);
        let result = Engine::<MfModel, _>::new(
            rex_net::mem::MemNetwork::new(4),
            EngineConfig {
                epochs: cfg.epochs,
                execution: ExecutionMode::Native,
                time: TimeAxis::Wall,
                driver: Driver::WorkSteal { workers: 1 },
                processes_per_platform: cfg.processes_per_platform,
                seed: cfg.infra_seed,
                faults: cfg.faults.clone(),
                membership: cfg.membership.clone(),
                trace_out: None,
            },
        )
        .run("delayed-churn", &mut nodes);
        assert!(
            result.trace.total_delivery().late > 0,
            "the plan actually delayed messages"
        );
        for (summary, node) in a.iter().zip(&nodes) {
            assert_eq!(
                summary.final_rmse_bits,
                node.local_rmse().map(f64::to_bits),
                "node {}: deployed loop diverged from the engine under delay + leave",
                summary.id
            );
            assert_eq!(summary.store_len, node.store().len());
            assert_eq!(summary.stats, result.final_stats[summary.id]);
        }
    }

    #[test]
    fn staggered_multi_joiner_threads_match_in_process_cluster() {
        // Three joiners across two epochs, all processes started
        // together: joiner 3 must accept same-epoch joiner 2 while
        // joiner 4 (epoch 4) may dial either of them early — those
        // connections park until their own admission. Every arrival
        // interleaving must converge to the same bit-exact run.
        use rex_core::membership::MembershipPlan;
        let mut cfg = tiny_cfg(5);
        cfg.epochs = 6;
        cfg.membership = Some(
            MembershipPlan {
                seed: 0x3B,
                bootstrap_points: 20,
                ..MembershipPlan::default()
            }
            .with_join(2, 2, None)
            .with_join(3, 2, None)
            .with_join(4, 4, None),
        );
        let reference = run_cluster_in_process(&cfg).unwrap();

        let addrs = reserve_loopback_addrs(5).unwrap();
        cfg.nodes = addrs.iter().map(ToString::to_string).collect();
        let handles: Vec<_> = (0..5)
            .map(|id| {
                let cfg = cfg.clone();
                std::thread::spawn(move || run_node(&cfg, id, None, |_, _| {}).unwrap())
            })
            .collect();
        for handle in handles {
            let summary = handle.join().unwrap();
            assert_eq!(summary, reference[summary.id]);
        }
    }

    #[test]
    fn distributed_node_threads_match_in_process_cluster() {
        // Same config, real connect() bootstrap on reserved ports: the
        // deployed path must agree with the loopback-fabric path.
        let mut cfg = tiny_cfg(3);
        cfg.epochs = 3;
        let reference = run_cluster_in_process(&cfg).unwrap();

        let addrs = reserve_loopback_addrs(3).unwrap();
        cfg.nodes = addrs.iter().map(ToString::to_string).collect();
        let handles: Vec<_> = (0..3)
            .map(|id| {
                let cfg = cfg.clone();
                std::thread::spawn(move || run_node(&cfg, id, None, |_, _| {}).unwrap())
            })
            .collect();
        for handle in handles {
            let summary = handle.join().unwrap();
            assert_eq!(summary, reference[summary.id]);
        }
    }

    /// The deployed loop over real sockets in the shape the repo
    /// benchmark's `rex-raw` workload runs (2 nodes, dense raw shares,
    /// SGX): every node-epoch costs exactly two write syscalls — the
    /// drain barrier's token, then the shares with the round token
    /// behind them — and the per-epoch outcomes are the engine's.
    #[test]
    fn two_node_tcp_loop_writes_twice_per_epoch_and_matches_the_engine() {
        use rex_core::commitment::aggregate_root;
        use rex_core::config::ExecutionMode;
        use rex_core::engine::{Driver, Engine, EngineConfig, TimeAxis};
        let cfg = ClusterConfig {
            sgx: true,
            epochs: 12,
            ..tiny_cfg(2)
        };
        let mut fleet = build_fleet(&cfg);
        let (_, dir) = replay_setup(&cfg, &mut fleet);
        let endpoints = TcpTransport::loopback(2).unwrap().into_endpoints();
        let runs: Vec<(Vec<EpochOutcome>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = fleet
                .into_iter()
                .zip(endpoints)
                .map(|(mut node, mut endpoint)| {
                    let (cfg, dir) = (&cfg, dir.as_ref());
                    scope.spawn(move || {
                        let trace = run_node_loop(
                            &mut node,
                            &mut endpoint,
                            cfg.epochs,
                            0,
                            None,
                            None,
                            dir,
                            None,
                            None,
                            |_, _| {},
                        )
                        .unwrap();
                        (trace, endpoint.write_syscalls())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (id, (_, writes)) in runs.iter().enumerate() {
            assert_eq!(*writes, 2 * cfg.epochs as u64, "node {id}");
        }

        let mut nodes = build_fleet(&cfg);
        let result = Engine::<MfModel, MemNetwork>::new(
            MemNetwork::new(2),
            EngineConfig {
                epochs: cfg.epochs,
                execution: ExecutionMode::Sgx(SgxCostModel::default()),
                time: TimeAxis::Wall,
                driver: Driver::WorkSteal { workers: 1 },
                processes_per_platform: cfg.processes_per_platform,
                seed: cfg.infra_seed,
                faults: None,
                membership: None,
                trace_out: None,
            },
        )
        .run("tcp-loop-reference", &mut nodes);
        assert_eq!(result.trace.records.len(), cfg.epochs);
        for (epoch, record) in result.trace.records.iter().enumerate() {
            let outcomes: Vec<EpochOutcome> = runs.iter().map(|(t, _)| t[epoch]).collect();
            // The engine's fold: node order, live nodes only.
            let rmses: Vec<f64> = outcomes
                .iter()
                .filter_map(|o| o.rmse_bits.map(f64::from_bits))
                .collect();
            let mean = rmses.iter().sum::<f64>() / rmses.len() as f64;
            assert_eq!(mean.to_bits(), record.rmse.to_bits(), "epoch {epoch}");
            let commitments: Vec<(usize, EpochCommitment)> = outcomes
                .iter()
                .enumerate()
                .map(|(id, o)| (id, o.commitment.expect("every epoch executes")))
                .collect();
            assert_eq!(
                aggregate_root(&commitments),
                record.commitment_root,
                "epoch {epoch}"
            );
        }
    }
}
