//! The generic REX protocol engine.
//!
//! One engine owns the pipeline the paper runs in every deployment
//! (Algorithm 2): TEE provisioning + pairwise attestation over the
//! topology edges, the per-epoch merge→train→share→test loop, and
//! [`ExperimentTrace`] aggregation. It is generic over
//! [`Transport`], so the same code drives:
//!
//! * the **discrete-event simulator** — [`MemNetwork`](rex_net::MemNetwork)
//!   fabric, [`Driver::WorkSteal`], [`TimeAxis::Simulated`];
//! * the **real-thread deployment** — the same `MemNetwork`, split
//!   into its in-memory endpoints, one per node thread, by
//!   [`Driver::ThreadPerNode`], [`TimeAxis::Wall`];
//! * the **real-socket deployment** —
//!   [`TcpTransport`](rex_net::TcpTransport), any driver: frames cross
//!   the kernel's TCP stack, and the `rex-node` binary runs the same node
//!   loop one process per node;
//! * the **centralized baseline** — a one-node fabric with no neighbours
//!   (see [`crate::centralized`]).
//!
//! [`Engine::new`] over a transport plus an [`EngineConfig`] is the one
//! entry point: the transport picks the deployment, the config its
//! epochs, time axis and driver ([`EngineConfig::default`] is the
//! simulator's). A further backend only implements [`Endpoint`]: its
//! fabric is a [`Fabric`](rex_net::Fabric) of them.
//!
//! # One round, one driver, two schedulers
//! A node's epoch is sequenced in one place, the
//! [`NodeRound`](crate::round::NodeRound) state
//! machine of [`crate::round`], and carried out on the node's
//! [`Endpoint`] by one driver, `round::Drive`. [`Engine::run`] splits its
//! fabric into endpoints after TEE setup and gives every node a drive
//! with its own copy of the membership view, as a `rex-node` process
//! has; the [`Driver`] only picks who schedules the steps.
//! [`Driver::ThreadPerNode`] spawns one thread per node, which answers
//! each barrier wait at once. [`Driver::WorkSteal`] runs them on the
//! worker pool of [`crate::pool`], in phases that end at the epoch's
//! barriers. Both fold the nodes' reports in one place: each is
//! timestamped at its event, the simulated axis is computed from the
//! reports alone, and an epoch is folded as soon as every node still
//! running has reported it.
//!
//! # Determinism
//! Inboxes are handed to nodes in canonical order (ascending sender id,
//! per-sender FIFO — see [`rex_net::transport::canonicalize`]), no node
//! sends before every node has drained its epoch's inbox (the drain
//! barrier), and epoch results are folded in node order, so a fixed seed
//! yields bit-identical learning trajectories and byte counts across
//! *all* drivers, worker counts and backends. `tests/cross_backend.rs`
//! and `tests/golden_trace.rs` in the workspace root hold this.
//!
//! # Dynamic membership
//! [`EngineConfig::membership`] attaches a seeded
//! [`MembershipPlan`]: every node's drive advances its copy of the
//! [`MembershipView`](crate::membership::MembershipView) at every round
//! boundary and applies its transitions — joins with late attestation
//! and sponsored raw-share bootstraps, graceful leaves with live
//! topology rewiring — before any inbox of the epoch is drained.
//! Non-members sit rounds out exactly like crash-stopped nodes;
//! `tests/membership.rs` and the `golden_membership` fixture hold the
//! transitions bit-identical across every driver × backend combination.
//!
//! # Resilience
//! [`EngineConfig::faults`] attaches a seeded [`FaultPlan`], given once.
//! The engine owns the plan's *crash-stop* semantics: a down node runs
//! no epoch, sends nothing, and discards its mailbox; nodes dead for the
//! whole run are pruned from every neighbour list before TEE setup
//! (crash-aware attestation, renormalized Metropolis–Hastings degrees).
//! After setup it wraps every node's endpoint in a [`FaultyEndpoint`]
//! under the same plan, as a `rex-node` process does, which applies the
//! *link* faults. Per-epoch records carry liveness
//! ([`EpochRecord::live_nodes`]) and the fabric's
//! delivered/dropped/late/duplicated counts ([`EpochRecord::delivery`]).
//! Both drivers replay a plan bit-for-bit; `tests/chaos.rs` holds them
//! to it.

use crate::config::ExecutionMode;
use crate::membership::MembershipPlan;
use crate::node::{EpochReport, Node};
use crate::pool::{self, panic_message};
use crate::round::{Drive, EpochEvent, RoundContext};
use crate::setup::{establish_tee_with_directory, founding_view, SetupReport};
use crate::trace_out::TraceOut;
use rex_ml::Model;
use rex_net::fault::{FaultPlan, FaultyEndpoint};
use rex_net::link::LinkModel;
use rex_net::stats::{DeliveryStats, TrafficStats};
use rex_net::transport::{Endpoint, Transport};
use rex_sim::stage::StageTimes;
use rex_sim::trace::{EpochRecord, ExperimentTrace};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Which time axis the experiment trace records.
#[derive(Debug, Clone)]
pub enum TimeAxis {
    /// Simulated elapsed time: measured compute + modelled SGX charges +
    /// link-model transfer time, advanced by the slowest node per epoch
    /// (synchronized rounds). The x-axis of Figs 1–4.
    Simulated(LinkModel),
    /// Real wall-clock time plus the modelled per-epoch SGX charges (which
    /// capture hardware effects the host CPU does not exhibit). The x-axis
    /// of Figs 6–7.
    Wall,
}

/// How node epochs are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One OS thread per node, each running its endpoint driver to the
    /// end against the fabric's own round barriers — the paper's
    /// deployment shape. Works with any [`Transport`] and either time
    /// axis: every fabric splits.
    ThreadPerNode,
    /// The same endpoint drivers stepped by a **fixed work-stealing
    /// worker pool** ([`crate::pool`]): workers stay alive across epochs
    /// and steal nodes from each other's deques, so skewed per-node costs
    /// (growing stores, crashed nodes) do not stall a whole chunk. Scales
    /// to 1000+ nodes in-process; every worker count is bit-identical to
    /// one worker, which spawns nothing and steps every node on the
    /// driver thread in node order. Works with any [`Transport`] and
    /// either time axis.
    WorkSteal {
        /// Worker threads; `0` means one per available CPU core, `1` runs
        /// inline on the driver thread.
        workers: usize,
    },
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of epochs to run (epoch 0 trains on initial local data).
    pub epochs: usize,
    /// Native or SGX execution.
    pub execution: ExecutionMode,
    /// Time axis recorded in the trace.
    pub time: TimeAxis,
    /// Epoch scheduling strategy.
    pub driver: Driver,
    /// REX processes sharing one SGX platform (the paper's testbed packs
    /// 2 per server; the simulator provisions 1 per node).
    pub processes_per_platform: usize,
    /// Seed for infrastructure randomness (attestation keys).
    pub seed: u64,
    /// Fault schedule for resilience experiments. The engine enforces the
    /// plan's *crash-stop* semantics itself (a down node runs no epoch,
    /// sends nothing, and discards whatever landed in its mailbox; nodes
    /// dead for the whole run are pruned from every neighbour list before
    /// TEE setup, so attestation is crash-aware and Metropolis–Hastings
    /// weights renormalize over surviving degrees). After setup every
    /// endpoint is wrapped in a [`FaultyEndpoint`] under the plan, which
    /// applies its *link* faults (drop/delay/duplicate/reorder,
    /// partitions); the transport is passed in plain.
    pub faults: Option<FaultPlan>,
    /// Dynamic-membership schedule (joins with attested state bootstrap,
    /// graceful leaves with live topology rewiring). Every node advances
    /// its own copy of the
    /// [`MembershipView`](crate::membership::MembershipView) at every
    /// round boundary, under either driver, like each `rex-node` process,
    /// and applies its transitions over its own endpoint before any inbox
    /// of the epoch is drained, so a sponsor's bootstrap lands in the
    /// joiner's first inbox.
    pub membership: Option<MembershipPlan>,
    /// Where to write one JSON line per executed node-epoch
    /// ([`crate::trace_out`]): an epoch's lines, in node order, when the
    /// fold closes that epoch. `None` writes nothing.
    pub trace_out: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            epochs: 100,
            execution: ExecutionMode::Native,
            time: TimeAxis::Simulated(LinkModel::default()),
            driver: Driver::WorkSteal { workers: 0 },
            processes_per_platform: 1,
            seed: 0x1234,
            faults: None,
            membership: None,
            trace_out: None,
        }
    }
}

/// Output of an engine run — the shape every deployment reports.
pub struct EngineResult {
    /// Per-epoch aggregated trace.
    pub trace: ExperimentTrace,
    /// Time spent on TEE provisioning + attestation before epoch 0, on the
    /// configured axis, ns (0 in native mode).
    pub setup_ns: u64,
    /// Final per-node traffic counters (attestation + protocol traffic).
    pub final_stats: Vec<TrafficStats>,
}

/// The transport-generic protocol engine. See the module docs.
pub struct Engine<M: Model, T: Transport> {
    transport: T,
    cfg: EngineConfig,
    _model: PhantomData<fn() -> M>,
}

impl<M: Model, T: Transport> Engine<M, T> {
    /// Builds an engine over `transport`.
    #[must_use]
    pub fn new(transport: T, cfg: EngineConfig) -> Self {
        Engine {
            transport,
            cfg,
            _model: PhantomData,
        }
    }

    /// Runs the full experiment; `name` becomes the trace label.
    ///
    /// Nodes are mutated in place (trained models, grown stores, installed
    /// enclaves/sessions remain inspectable afterwards, whichever driver
    /// ran them).
    ///
    /// # Panics
    /// If `nodes` is empty, its length disagrees with the transport, a
    /// membership plan fails validation, a node fails mid-run — its
    /// epoch panics or its endpoint loses a peer — in which case the
    /// failure is re-raised naming the node, or the
    /// [`EngineConfig::trace_out`] file cannot be created or written.
    pub fn run(mut self, name: &str, nodes: &mut [Node<M>]) -> EngineResult {
        assert!(!nodes.is_empty(), "engine needs at least one node");
        let n = nodes.len();
        assert_eq!(
            self.transport.num_nodes(),
            n,
            "transport size disagrees with fleet size"
        );

        // Crash-aware setup: see `setup::prune_dead_nodes` — whole-run
        // dead nodes leave the overlay before TEE provisioning, so
        // attestation skips their edges and surviving Metropolis–
        // Hastings degrees renormalize.
        let faults = self.cfg.faults.as_ref();
        if let Some(plan) = faults {
            plan.validate(n);
            crate::setup::prune_dead_nodes(nodes, plan);
        }
        let view = self
            .cfg
            .membership
            .clone()
            .map(|plan| founding_view(nodes, plan, faults));

        let (setup, tee) = match self.cfg.execution {
            ExecutionMode::Native => (SetupReport::default(), None),
            ExecutionMode::Sgx(cost) => {
                let (setup, dir) = establish_tee_with_directory(
                    nodes,
                    &mut self.transport,
                    cost,
                    self.cfg.processes_per_platform,
                    self.cfg.seed,
                );
                (setup, Some(dir))
            }
        };
        let setup_ns = match &self.cfg.time {
            TimeAxis::Simulated(link) => setup.simulated_ns(n, link),
            TimeAxis::Wall => setup.wall_ns(),
        };

        // Every node runs the endpoint driver over its own endpoint with
        // its own copy of the view, as a `rex-node` process does; the
        // driver only picks who schedules the steps.
        let endpoints = self.transport.into_endpoints();
        assert_eq!(endpoints.len(), n, "endpoint count disagrees with fleet");
        let epochs = self.cfg.epochs;
        let mut views = vec![view; n];
        let drives = nodes
            .iter_mut()
            .zip(&mut views)
            .map(|(node, view)| {
                let ctx = RoundContext {
                    faults,
                    view: view.as_mut(),
                    tee: tee.as_ref(),
                    audit: None,
                    serve: None,
                };
                Drive::new(node, 0..epochs, ctx, None)
            })
            .collect();
        let trace_out = self.cfg.trace_out.as_deref().map(|path| {
            TraceOut::create(path).unwrap_or_else(|e| panic!("trace-out {}: {e}", path.display()))
        });
        let fold = Fold::new(name, self.cfg.time.clone(), setup_ns, n, epochs, trace_out);
        // The plan's link faults act on each endpoint from here on, as in
        // a `rex-node` process: set-up traffic never reaches a fault.
        let driver = self.cfg.driver;
        let final_stats = match faults {
            Some(plan) => {
                let wrap = |endpoint| FaultyEndpoint::new(endpoint, plan.clone());
                schedule(driver, drives, endpoints.into_iter().map(wrap), &fold)
            }
            None => schedule(driver, drives, endpoints, &fold),
        };
        EngineResult {
            trace: fold.finish(),
            setup_ns,
            final_stats,
        }
    }
}

/// Pairs each drive with its endpoint and runs them under `driver`.
/// Returns every endpoint's counters, in node order.
fn schedule<M: Model, E: Endpoint>(
    driver: Driver,
    drives: Vec<Drive<'_, M>>,
    endpoints: impl IntoIterator<Item = E>,
    fold: &Fold,
) -> Vec<TrafficStats> {
    let n = drives.len();
    let drives = drives.into_iter().zip(endpoints).collect();
    match driver {
        Driver::ThreadPerNode => run_threads(drives, fold),
        Driver::WorkSteal { workers } => {
            // `0` is one worker per available core.
            let workers = match workers {
                0 => std::thread::available_parallelism().map_or(4, NonZeroUsize::get),
                w => w,
            };
            pool::run(drives, workers.min(n), fold)
        }
    }
}

/// One OS thread per node, each running its drive to the end: the
/// paper's deployment shape. Returns every endpoint's counters, in node
/// order.
///
/// # Panics
/// When a node fails, naming it: a node that died took its endpoint with
/// it, which fails every peer's barrier, so a panic (the cause) goes
/// ahead of the errors it caused.
fn run_threads<M: Model, E: Endpoint>(
    drives: Vec<(Drive<'_, M>, E)>,
    fold: &Fold,
) -> Vec<TrafficStats> {
    let outcomes: Vec<std::thread::Result<Result<TrafficStats, String>>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = drives
                .into_iter()
                .map(|(drive, mut endpoint)| {
                    scope.spawn(move || {
                        let id = endpoint.id();
                        drive.run(&mut endpoint, |event| fold.report(id, event))?;
                        fold.done(id);
                        Ok(endpoint.stats())
                    })
                })
                .collect();
            // Threads were spawned in node order; join preserves it.
            handles.into_iter().map(|h| h.join()).collect()
        });
    let mut stats = Vec::with_capacity(outcomes.len());
    let mut failures = Vec::new();
    for (id, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(Ok(s)) => stats.push(s),
            Ok(Err(e)) => failures.push(e),
            Err(panic) => {
                let msg = panic_message(panic.as_ref());
                failures.insert(0, format!("node {id} epoch panicked: {msg}"));
            }
        }
    }
    if let Some(first) = failures.first() {
        panic!("{first}");
    }
    stats
}

/// The one fold of the nodes' epoch reports into the trace, whichever
/// scheduler ran them. Each report is timestamped at its event, from
/// whichever thread it comes; an epoch is folded as soon as every node
/// still running has reported it, so nothing is held per node beyond the
/// epochs still open (at most two under a barrier).
pub(crate) struct Fold(Mutex<Folding>);

struct Folding {
    trace: ExperimentTrace,
    time: TimeAxis,
    setup_ns: u64,
    epochs: usize,
    start: Instant,
    /// What the time model has charged so far: the whole simulated time,
    /// or on the wall axis the modelled SGX charges stacked on it.
    charged_ns: u64,
    /// Per node, the next epoch it reports; `None` once it is done.
    next: Vec<Option<usize>>,
    /// The epochs from `trace.records.len()` on that some node reported.
    open: VecDeque<OpenEpoch>,
    /// Where each folded epoch's reports are written, and the first
    /// error writing them (after which nothing more is written).
    trace_out: Option<TraceOut>,
    trace_err: Option<std::io::Error>,
}

/// One epoch's reports while some node has yet to report it.
struct OpenEpoch {
    reports: Vec<Option<EpochReport>>,
    /// Nodes still running that have not reported it.
    waiting: usize,
    /// The latest report's timestamp, ns since the run started.
    end_ns: u64,
    delivery: DeliveryStats,
}

impl OpenEpoch {
    fn new(nodes: usize, waiting: usize) -> Self {
        OpenEpoch {
            reports: vec![None; nodes],
            waiting,
            end_ns: 0,
            delivery: DeliveryStats::default(),
        }
    }
}

impl Fold {
    pub(crate) fn new(
        name: &str,
        time: TimeAxis,
        setup_ns: u64,
        nodes: usize,
        epochs: usize,
        trace_out: Option<TraceOut>,
    ) -> Self {
        Fold(Mutex::new(Folding {
            trace: ExperimentTrace::new(name),
            time,
            setup_ns,
            epochs,
            start: Instant::now(),
            charged_ns: 0,
            next: vec![Some(0); nodes],
            open: VecDeque::new(),
            trace_out,
            trace_err: None,
        }))
    }

    fn lock(&self) -> MutexGuard<'_, Folding> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes node `id`'s report of an epoch.
    pub(crate) fn report(&self, id: usize, event: EpochEvent) {
        let mut f = self.lock();
        let end_ns = f.start.elapsed().as_nanos() as u64;
        let at = event.epoch - f.trace.records.len();
        while f.open.len() <= at {
            let open = OpenEpoch::new(f.next.len(), f.next.iter().flatten().count());
            f.open.push_back(open);
        }
        f.next[id] = Some(event.epoch + 1);
        let open = &mut f.open[at];
        open.reports[id] = event.report;
        open.waiting -= 1;
        open.end_ns = open.end_ns.max(end_ns);
        open.delivery.absorb(&event.delivery);
        f.close_ready();
    }

    /// Node `id` reports no further epoch (it left, or ran its last).
    pub(crate) fn done(&self, id: usize) {
        let mut f = self.lock();
        let first = f.trace.records.len();
        if let Some(next) = f.next[id].take() {
            for open in f.open.iter_mut().skip(next.saturating_sub(first)) {
                open.waiting -= 1;
            }
        }
        f.close_ready();
    }

    /// The trace, every epoch folded (an epoch nobody reported folds
    /// empty).
    ///
    /// # Panics
    /// When writing the epoch records failed.
    pub(crate) fn finish(self) -> ExperimentTrace {
        let mut f = self.0.into_inner().unwrap_or_else(PoisonError::into_inner);
        while f.trace.records.len() < f.epochs {
            f.fold(OpenEpoch::new(f.next.len(), 0));
        }
        if let Some(out) = f.trace_out.take() {
            f.trace_err = f.trace_err.take().or(out.flush().err());
        }
        if let Some(e) = f.trace_err {
            panic!("trace-out: {e}");
        }
        f.trace
    }
}

impl Folding {
    fn close_ready(&mut self) {
        while let Some(open) = self.open.pop_front_if(|open| open.waiting == 0) {
            self.fold(open);
        }
    }

    /// Pushes the next epoch's record. The simulated axis comes from the
    /// reports alone; the wall axis is the last report's timestamp plus
    /// the modelled charges.
    fn fold(&mut self, open: OpenEpoch) {
        self.charged_ns += epoch_charge(&self.time, &open.reports);
        let elapsed_ns = match self.time {
            TimeAxis::Simulated(_) => 0,
            TimeAxis::Wall => open.end_ns,
        };
        let time_ns = self.setup_ns + elapsed_ns + self.charged_ns;
        let epoch = self.trace.records.len();
        if let Some(out) = &self.trace_out {
            let written = open
                .reports
                .iter()
                .enumerate()
                .filter_map(|(id, report)| report.as_ref().map(|r| (id, r)))
                .try_for_each(|(id, report)| out.write(id, epoch, report));
            if let Err(e) = written {
                self.trace_err = Some(e);
                self.trace_out = None;
            }
        }
        let record = aggregate_epoch(epoch, time_ns, &open.reports, open.delivery);
        self.trace.push(record);
    }
}

/// What the time model charges for one epoch: on a simulated axis, the
/// slowest live node's compute plus its link-model transfer time
/// (full-duplex: the max of its up/down volumes); on the wall axis, only
/// the modelled hardware charge of the slowest node (real time elapses on
/// its own; the charges stack on top).
fn epoch_charge(time: &TimeAxis, reports: &[Option<EpochReport>]) -> u64 {
    let live = reports.iter().flatten();
    match time {
        TimeAxis::Simulated(link) => live
            .map(|report| {
                let volume = report.bytes_out.max(report.bytes_in);
                let net_ns = if volume > 0 {
                    link.transfer_ns(volume)
                } else {
                    0
                };
                report.stage_times.total() + net_ns
            })
            .max()
            .unwrap_or(0),
        TimeAxis::Wall => live.map(|r| r.sgx_overhead_ns).max().unwrap_or(0),
    }
}

/// Folds one epoch's per-node reports into the trace record: fleet means
/// over the **live** nodes, in node order — the folds are order-stable so
/// runs are reproducible. Crash-stopped nodes (`None`) contribute nothing
/// but are counted out of `live_nodes`.
#[must_use]
pub fn aggregate_epoch(
    epoch: usize,
    time_ns: u64,
    reports: &[Option<EpochReport>],
    delivery: DeliveryStats,
) -> EpochRecord {
    let live: Vec<&EpochReport> = reports.iter().flatten().collect();
    let n = live.len().max(1);
    let rmses: Vec<f64> = live.iter().filter_map(|r| r.rmse).collect();
    let mean_rmse = if rmses.is_empty() {
        f64::NAN
    } else {
        rmses.iter().sum::<f64>() / rmses.len() as f64
    };
    let mean_bytes = live
        .iter()
        .map(|r| (r.bytes_in + r.bytes_out) as f64)
        .sum::<f64>()
        / n as f64;
    let mean_ram = live.iter().map(|r| r.ram_bytes as f64).sum::<f64>() / n as f64;
    let mean_stages = live
        .iter()
        .fold(StageTimes::new(), |acc, r| acc.plus(&r.stage_times))
        .mean_over(n as u64);
    let mean_sgx = live.iter().map(|r| r.sgx_overhead_ns).sum::<u64>() / n as u64;
    // The verifiable-epochs audit root: every live node's signed model
    // commitment, folded in node order (the reports vector is indexed by
    // node id, so the iteration order is canonical on every backend).
    let commitments: Vec<(usize, crate::commitment::EpochCommitment)> = reports
        .iter()
        .enumerate()
        .filter_map(|(id, r)| r.as_ref().map(|rep| (id, rep.commitment)))
        .collect();
    let commitment_root = if commitments.is_empty() {
        [0; 32]
    } else {
        crate::commitment::aggregate_root(&commitments)
    };

    EpochRecord {
        epoch,
        time_ns,
        rmse: mean_rmse,
        bytes_per_node: mean_bytes,
        stage_times: mean_stages,
        ram_bytes: mean_ram,
        sgx_overhead_ns: mean_sgx,
        live_nodes: live.len(),
        delivery,
        commitment_root,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Scenario;
    use crate::config::{GossipAlgorithm, SharingMode};
    use rex_data::SyntheticConfig;
    use rex_ml::{MfHyperParams, MfModel};
    use rex_net::fault::LinkFaults;
    use rex_net::mem::MemNetwork;
    use rex_tee::SgxCostModel;
    use rex_topology::TopologySpec;

    fn fleet(sharing: SharingMode, algorithm: GossipAlgorithm) -> Vec<Node<MfModel>> {
        fleet_on(TopologySpec::Ring, sharing, algorithm)
    }

    /// The paper's §IV-C shape: 8 fully connected nodes, one thread each.
    fn threaded_fleet(sharing: SharingMode) -> Vec<Node<MfModel>> {
        fleet_on(
            TopologySpec::FullyConnected,
            sharing,
            GossipAlgorithm::DPsgd,
        )
    }

    fn fleet_on(
        topology: TopologySpec,
        sharing: SharingMode,
        algorithm: GossipAlgorithm,
    ) -> Vec<Node<MfModel>> {
        let mut s = Scenario {
            dataset: SyntheticConfig {
                num_users: 24,
                num_items: 120,
                num_ratings: 1_600,
                seed: 5,
                ..SyntheticConfig::default()
            },
            split_seed: 2,
            topology,
            topology_seed: 3,
            ..Scenario::default()
        };
        (s.protocol.sharing, s.protocol.algorithm) = (sharing, algorithm);
        s.protocol.steps_per_epoch = 150;
        s.protocol.seed = 11;
        s.build_fleet()
    }

    fn quick_sim(epochs: usize, execution: ExecutionMode) -> EngineConfig {
        EngineConfig {
            epochs,
            execution,
            ..EngineConfig::default()
        }
    }

    /// The paper's §IV-C deployment shape: real threads, wall-clock time,
    /// two processes per SGX platform.
    fn threaded(epochs: usize, execution: ExecutionMode) -> EngineConfig {
        EngineConfig {
            epochs,
            execution,
            time: TimeAxis::Wall,
            driver: Driver::ThreadPerNode,
            processes_per_platform: 2,
            seed: 99,
            ..EngineConfig::default()
        }
    }

    /// Runs `nodes` on the in-memory fabric under `cfg`'s driver.
    fn run(cfg: EngineConfig, name: &str, nodes: &mut [Node<MfModel>]) -> EngineResult {
        Engine::new(MemNetwork::new(nodes.len()), cfg).run(name, nodes)
    }

    #[test]
    fn rex_converges_on_ring() {
        let mut nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let result = run(quick_sim(25, ExecutionMode::Native), "REX", &mut nodes);
        let first = result.trace.records.first().unwrap().rmse;
        let last = result.trace.final_rmse().unwrap();
        assert!(last < first - 0.02, "no convergence: {first} -> {last}");
        assert_eq!(result.trace.records.len(), 25);
        assert_eq!(result.setup_ns, 0);
    }

    #[test]
    fn ms_converges_too() {
        let mut nodes = fleet(SharingMode::Model, GossipAlgorithm::DPsgd);
        let result = run(quick_sim(25, ExecutionMode::Native), "MS", &mut nodes);
        let first = result.trace.records.first().unwrap().rmse;
        let last = result.trace.final_rmse().unwrap();
        assert!(last < first - 0.02, "no convergence: {first} -> {last}");
    }

    #[test]
    fn rex_moves_far_fewer_bytes_than_ms() {
        let mut rex_nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let mut ms_nodes = fleet(SharingMode::Model, GossipAlgorithm::DPsgd);
        let rex = run(quick_sim(10, ExecutionMode::Native), "REX", &mut rex_nodes);
        let ms = run(quick_sim(10, ExecutionMode::Native), "MS", &mut ms_nodes);
        let rex_bytes = rex.trace.total_bytes_per_node();
        let ms_bytes = ms.trace.total_bytes_per_node();
        // At this miniature scale (24 users x 120 items) the model is only
        // ~6.5 KiB, so the gap is ~13x; at paper scale it is ~100x
        // (asserted by the integration tests on the full shape).
        assert!(
            ms_bytes > 10.0 * rex_bytes,
            "expected order-of-magnitude gap: MS={ms_bytes} REX={rex_bytes}"
        );
    }

    #[test]
    fn sgx_mode_attests_and_charges() {
        let mut nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let result = run(
            quick_sim(5, ExecutionMode::Sgx(SgxCostModel::default())),
            "REX/SGX",
            &mut nodes,
        );
        assert!(result.setup_ns > 0, "attestation setup must cost time");
        // Every epoch charges transitions.
        for r in &result.trace.records {
            assert!(r.sgx_overhead_ns > 0, "epoch {} charged nothing", r.epoch);
        }
        // And still converges.
        let first = result.trace.records.first().unwrap().rmse;
        let last = result.trace.final_rmse().unwrap();
        assert!(last < first);
    }

    #[test]
    fn sgx_and_native_reach_same_quality() {
        // SGX must not change learning semantics, only time.
        let mut native_nodes = fleet(SharingMode::RawData, GossipAlgorithm::Rmw);
        let mut sgx_nodes = fleet(SharingMode::RawData, GossipAlgorithm::Rmw);
        let native = run(quick_sim(12, ExecutionMode::Native), "n", &mut native_nodes);
        let sgx = run(
            quick_sim(12, ExecutionMode::Sgx(SgxCostModel::default())),
            "s",
            &mut sgx_nodes,
        );
        let n_rmse = native.trace.final_rmse().unwrap();
        let s_rmse = sgx.trace.final_rmse().unwrap();
        assert!(
            (n_rmse - s_rmse).abs() < 1e-9,
            "semantics changed: native {n_rmse} vs sgx {s_rmse}"
        );
        // But SGX epochs are charged the modelled enclave costs, native
        // ones nothing (wall clock would say the same only on a quiet host).
        assert!(sgx.trace.records.iter().all(|r| r.sgx_overhead_ns > 0));
        assert!(native.trace.records.iter().all(|r| r.sgx_overhead_ns == 0));
    }

    #[test]
    fn rmw_uses_less_bandwidth_than_dpsgd() {
        let mut rmw = fleet(SharingMode::Model, GossipAlgorithm::Rmw);
        let mut dpsgd = fleet(SharingMode::Model, GossipAlgorithm::DPsgd);
        let r = run(quick_sim(6, ExecutionMode::Native), "rmw", &mut rmw);
        let d = run(quick_sim(6, ExecutionMode::Native), "dpsgd", &mut dpsgd);
        assert!(d.trace.total_bytes_per_node() > r.trace.total_bytes_per_node());
    }

    #[test]
    fn eight_node_native_run() {
        let mut nodes = threaded_fleet(SharingMode::RawData);
        let result = run(threaded(10, ExecutionMode::Native), "native", &mut nodes);
        assert_eq!(result.trace.records.len(), 10);
        let first = result.trace.records.first().unwrap().rmse;
        let last = result.trace.final_rmse().unwrap();
        assert!(last < first, "{first} -> {last}");
        // Fully connected 8 nodes: everyone talked to everyone.
        for s in &result.final_stats {
            assert!(s.msgs_out >= 7 * 9); // 7 peers x >=9 sharing epochs
        }
        assert_eq!(result.setup_ns, 0);
    }

    #[test]
    fn eight_node_sgx_run_attests_and_charges() {
        let mut nodes = threaded_fleet(SharingMode::RawData);
        let result = run(
            threaded(6, ExecutionMode::Sgx(SgxCostModel::default())),
            "sgx",
            &mut nodes,
        );
        assert!(result.setup_ns > 0);
        for r in &result.trace.records {
            assert!(r.sgx_overhead_ns > 0);
        }
        // Time axis is monotone.
        for w in result.trace.records.windows(2) {
            assert!(w[1].time_ns >= w[0].time_ns);
        }
    }

    #[test]
    fn ms_heavier_than_rex_on_wire() {
        let mut rex_nodes = threaded_fleet(SharingMode::RawData);
        let mut ms_nodes = threaded_fleet(SharingMode::Model);
        let quick = threaded(5, ExecutionMode::Native);
        let rex = run(quick.clone(), "rex", &mut rex_nodes);
        let ms = run(quick, "ms", &mut ms_nodes);
        assert!(ms.trace.total_bytes_per_node() > 10.0 * rex.trace.total_bytes_per_node());
    }

    /// The plan in the config is the whole plan: over a plain fabric it
    /// drops messages, not only crashes nodes.
    #[test]
    fn a_fault_plan_in_the_engine_config_alone_drops_messages() {
        let mut nodes = fleet(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let cfg = EngineConfig {
            faults: Some(FaultPlan::uniform(7, LinkFaults::drop_rate(0.5))),
            ..quick_sim(4, ExecutionMode::Native)
        };
        let result = run(cfg, "lossy", &mut nodes);
        let delivery = result.trace.total_delivery();
        assert!(delivery.dropped > 0, "nothing dropped: {delivery:?}");
        assert!(delivery.delivered > 0, "everything dropped: {delivery:?}");
    }

    /// A node whose epoch panics mid-run must fail a thread-per-node run,
    /// naming the node — not strand its peers on the round barrier. Node
    /// 2's epoch 0 panics (planted: its store refuses the rating outside
    /// its model's shape that once made training panic); it is isolated,
    /// so nobody ever addresses it.
    #[test]
    #[should_panic(expected = "node 2 epoch panicked")]
    fn dead_node_fails_a_thread_per_node_run_instead_of_hanging_it() {
        let mut nodes = threaded_fleet(SharingMode::Model);
        let model = MfModel::new(3, 3, MfHyperParams::default(), 3.0, 1);
        nodes[2] = Node::builder(2, model).panic_at(0).build();
        run(threaded(4, ExecutionMode::Native), "dies", &mut nodes);
    }
}
