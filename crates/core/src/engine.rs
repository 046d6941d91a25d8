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
//! # One round, its drivers
//! A node's epoch is sequenced in one place, the [`NodeRound`] state
//! machine of [`crate::round`]; the engine only schedules it.
//! `Engine::run_rounds` is the **fabric scheduler**: one owner over the
//! whole [`Transport`] steps every node's machine, with the node compute
//! in one phase of [`crate::pool`] per epoch. [`Driver::ThreadPerNode`]
//! instead spawns the **endpoint driver**
//! ([`crate::round::run_node_loop`], one thread over one [`Endpoint`])
//! once per node and folds what it reports.
//!
//! # Determinism
//! Inboxes are handed to nodes in canonical order (ascending sender id,
//! per-sender FIFO — see [`rex_net::transport::canonicalize`]) and epoch
//! results are folded in node order, so a fixed seed yields bit-identical
//! learning trajectories and byte counts across *all* drivers and
//! backends. `tests/cross_backend.rs` in the workspace root holds this as
//! the refactor's correctness oracle.
//!
//! # Dynamic membership
//! [`EngineConfig::membership`] attaches a seeded
//! [`MembershipPlan`]: the engine advances a [`MembershipView`] at
//! every round boundary and applies its transitions — joins with late
//! attestation and sponsored raw-share bootstraps, graceful leaves with
//! live topology rewiring — before any inbox of the epoch is drained.
//! Non-members sit rounds out exactly like crash-stopped nodes;
//! `tests/membership.rs` and the `golden_membership` fixture hold the
//! transitions bit-identical across every driver × backend combination.
//!
//! # Resilience
//! [`EngineConfig::faults`] attaches a seeded [`FaultPlan`]. The engine
//! owns the plan's
//! *crash-stop* semantics: a down node runs no epoch, sends nothing, and
//! discards its mailbox; nodes dead for the whole run are pruned from
//! every neighbour list before TEE setup (crash-aware attestation,
//! renormalized Metropolis–Hastings degrees). Per-epoch records carry
//! liveness ([`EpochRecord::live_nodes`]) and the fabric's
//! delivered/dropped/late/duplicated counts
//! ([`EpochRecord::delivery`], filled in when the transport is wrapped
//! in [`rex_net::fault::FaultyTransport`] with the same plan). Both
//! drivers replay a plan bit-for-bit; `tests/chaos.rs` holds them to it.

use crate::config::ExecutionMode;
use crate::membership::{MembershipPlan, MembershipView, ViewTransition};
use crate::node::{EpochReport, Node};
use crate::pool::{panic_message, step, Parked, WorkStealPool};
use crate::round::{self, EpochEvent, Input, NodeRound, RoundContext};
use crate::setup::TeeDirectory;
use crate::setup::{establish_tee_with_directory, overlay_of, prune_to_overlay, SetupReport};
use rex_ml::Model;
use rex_net::fault::FaultPlan;
use rex_net::link::LinkModel;
use rex_net::stats::{DeliveryStats, TrafficStats};
use rex_net::transport::{BarrierKind, Clock, Endpoint, Transport, WallClock};
use rex_sim::clock::VirtualClock;
use rex_sim::stage::StageTimes;
use rex_sim::trace::{EpochRecord, ExperimentTrace};
use std::marker::PhantomData;
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
    /// One OS thread per node over split endpoints, each running the
    /// endpoint driver ([`crate::round::run_node_loop`]) against the
    /// fabric's own round barrier — the paper's deployment shape. Works
    /// with any [`Transport`]: every fabric splits.
    ThreadPerNode,
    /// The fabric scheduler executed by a **fixed work-stealing worker
    /// pool** ([`crate::pool`]): workers stay alive across epochs and
    /// steal node machines from each other's deques, so skewed per-node
    /// costs (growing stores, crashed nodes) do not stall a whole chunk.
    /// Scales the fabric view to 1000+ nodes in-process; every worker
    /// count is bit-identical to one worker, which spawns nothing and
    /// steps every machine on the driver thread in node order (outputs
    /// are keyed by node id and sends are applied in canonical node order
    /// after each phase). Works with any [`Transport`] and either time
    /// axis.
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
    /// weights renormalize over surviving degrees). *Link* faults
    /// (drop/delay/duplicate/reorder, partitions) only take effect when
    /// the transport is wrapped in
    /// [`rex_net::fault::FaultyTransport`] carrying the same plan.
    pub faults: Option<FaultPlan>,
    /// Dynamic-membership schedule (joins with attested state bootstrap,
    /// graceful leaves with live topology rewiring). The engine advances
    /// a [`MembershipView`] at every round boundary and applies its
    /// transitions before any inbox of the epoch is drained, so a
    /// sponsor's bootstrap lands in the joiner's first inbox. Every
    /// driver applies it: the fabric scheduler over the whole fabric,
    /// and each thread of [`Driver::ThreadPerNode`] (like each
    /// `rex-node` process) over its own endpoint with its own copy of
    /// the view.
    pub membership: Option<MembershipPlan>,
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

/// What one node's thread hands back to the engine: every epoch it
/// served with the wall timestamp of its completion, and its traffic
/// counters.
type NodeRun = (Vec<(u64, EpochEvent)>, TrafficStats);

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
    /// If `nodes` is empty, its length disagrees with the transport,
    /// [`Driver::ThreadPerNode`] is combined with
    /// [`TimeAxis::Simulated`] (thread-per-node epochs are timestamped
    /// with real elapsed time, so a simulated axis cannot be honoured),
    /// a membership plan fails validation, or a node fails mid-run — its
    /// epoch panics or its endpoint loses a peer — in which case the
    /// failure is re-raised naming the node.
    pub fn run(mut self, name: &str, nodes: &mut [Node<M>]) -> EngineResult {
        assert!(!nodes.is_empty(), "engine needs at least one node");
        assert_eq!(
            self.transport.num_nodes(),
            nodes.len(),
            "transport size disagrees with fleet size"
        );
        assert!(
            !matches!(
                (&self.cfg.driver, &self.cfg.time),
                (Driver::ThreadPerNode, TimeAxis::Simulated(_))
            ),
            "Driver::ThreadPerNode records wall-clock time; use TimeAxis::Wall"
        );

        // Crash-aware setup: see `setup::prune_dead_nodes` — whole-run
        // dead nodes leave the overlay before TEE provisioning, so
        // attestation skips their edges and surviving Metropolis–
        // Hastings degrees renormalize.
        if let Some(plan) = &self.cfg.faults {
            plan.validate(nodes.len());
            crate::setup::prune_dead_nodes(nodes, plan);
        }

        // Membership-aware setup: the epoch-0 view is built over the
        // (fault-pruned) full topology; edges touching future joiners
        // stay latent, so TEE setup attests exactly the founding
        // overlay. Fault-dead-at-setup nodes are excluded from
        // membership outright — repair never bridges to them.
        let view = self.cfg.membership.clone().map(|plan| {
            let excluded = self
                .cfg
                .faults
                .as_ref()
                .map(|p| p.dead_at_setup(nodes.len()))
                .unwrap_or_default();
            let view = MembershipView::new(plan, &overlay_of(nodes), &excluded);
            prune_to_overlay(nodes, view.overlay());
            view
        });

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
            TimeAxis::Simulated(link) => setup.simulated_ns(nodes.len(), link),
            TimeAxis::Wall => setup.wall_ns(),
        };

        // The fabric scheduler's worker count: `0` is one per available
        // core.
        let workers = match self.cfg.driver {
            Driver::ThreadPerNode => {
                return self.run_thread_per_node(name, nodes, setup_ns, view, tee.as_ref())
            }
            Driver::WorkSteal { workers: 0 } => {
                std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
            }
            Driver::WorkSteal { workers } => workers,
        }
        .min(nodes.len());

        let faults = self.cfg.faults.as_ref();
        let points = view.as_ref().map_or(0, |v| v.plan().bootstrap_points);
        let rounds = nodes
            .iter_mut()
            .map(|node| NodeRound::new(node, faults, tee.as_ref(), None, points))
            .collect();
        let trace = WorkStealPool::run(rounds, workers, |pool| {
            Self::run_rounds(
                &self.cfg,
                &mut self.transport,
                name,
                setup_ns,
                pool,
                view,
                tee.as_ref(),
            )
        });
        EngineResult {
            trace,
            setup_ns,
            final_stats: self.transport.all_stats(),
        }
    }

    /// The fabric scheduler: steps every node's [`NodeRound`] over the
    /// whole transport, one epoch at a time. Per epoch — `epoch_begin`;
    /// under a **membership view change**, the fabric-level view sync and
    /// the SGX evidence routing; every machine opened and stepped on this
    /// thread up to its recv (a view change first takes each through its
    /// bootstraps to the view barrier, which a `flush` releases, so they
    /// land before any inbox is drained); every mailbox drained into the
    /// pool; one pool phase, stepping each machine through the front, its
    /// buffered sends and the back to its round wait; the sends applied in
    /// node order; `flush`, which releases the round barrier; then the
    /// machines' reports advance the clock and fill the trace. The pool
    /// only decides on which thread a machine is stepped — inputs are
    /// staged before the phase and outputs read back by node id after it —
    /// which is what makes every worker count bit-identical *by
    /// construction*.
    fn run_rounds(
        cfg: &EngineConfig,
        transport: &mut T,
        name: &str,
        setup_ns: u64,
        pool: &WorkStealPool<'_, M>,
        mut view: Option<MembershipView>,
        tee: Option<&TeeDirectory>,
    ) -> ExperimentTrace {
        let n = pool.len();
        let mut clock: Box<dyn Clock> = match &cfg.time {
            TimeAxis::Simulated(_) => Box::new(VirtualClock::new()),
            TimeAxis::Wall => Box::new(WallClock::start()),
        };
        clock.advance(setup_ns);
        let mut trace = ExperimentTrace::new(name);
        // The machines stepped: every node until its own leave.
        let mut live: Vec<usize> = (0..n).collect();

        for epoch in 0..cfg.epochs {
            transport.epoch_begin(epoch);
            let transition = view.as_mut().and_then(|v| v.advance(epoch));
            let mut evidence = Vec::new();
            if let Some(t) = &transition {
                // Fabric-level view sync first: layers with in-flight
                // state react to the change (the fault wrapper purges a
                // leaver's held messages before any release point could
                // target it).
                transport.view_sync(epoch, &t.joined, &t.left);
                if let Some(dir) = tee {
                    evidence = route_evidence(t, pool, dir);
                }
            }
            live.retain(|&id| {
                let open = Input::Open {
                    epoch,
                    transition: transition.as_ref(),
                    member: view.as_ref().is_none_or(|v| v.is_member(id)),
                };
                let presented = evidence.get_mut(id).map(std::mem::take);
                let send = |to, bytes| transport.send(id, to, bytes);
                let parked = pool.with_round(id, |r| step(r, open, presented, send));
                !matches!(parked, Parked::Left)
            });
            if transition.is_some() {
                // The view barrier: bootstraps are delivered before any
                // inbox of this epoch is drained.
                transport.flush();
                for &id in &live {
                    let released = Input::Released(BarrierKind::Round);
                    let send = |to, bytes| transport.send(id, to, bytes);
                    pool.with_round(id, |r| step(r, released, None, send));
                }
            }
            // Every inbox is drained before the phase; a machine sitting
            // the epoch out discards its own.
            for &id in &live {
                pool.load(id, transport.recv(id));
            }

            pool.run_phase(&live);

            // Apply sends in deterministic node order, then make them
            // visible for the next round.
            for &id in &live {
                for (dest, bytes) in pool.take_outbox(id) {
                    transport.send(id, dest, bytes);
                }
            }
            transport.flush();
            let delivery = transport.take_delivery();

            let mut reports = vec![None; n];
            for &id in &live {
                let released = Input::Released(BarrierKind::Round);
                let send = |to, bytes| transport.send(id, to, bytes);
                if let Parked::Report(report) =
                    pool.with_round(id, |r| step(r, released, None, send))
                {
                    reports[id] = report;
                }
            }
            advance_epoch_clock(&cfg.time, clock.as_mut(), &reports);
            trace.push(aggregate_epoch(epoch, clock.now_ns(), &reports, delivery));
        }
        trace
    }

    /// One OS thread per node over split endpoints, each running the
    /// endpoint driver with its own copy of the membership view, as a
    /// `rex-node` process does; the engine only folds what the drivers
    /// report.
    fn run_thread_per_node(
        self,
        name: &str,
        nodes: &mut [Node<M>],
        setup_ns: u64,
        view: Option<MembershipView>,
        tee: Option<&TeeDirectory>,
    ) -> EngineResult {
        let epochs = self.cfg.epochs;
        let endpoints = self.transport.into_endpoints();
        assert_eq!(
            endpoints.len(),
            nodes.len(),
            "endpoint count disagrees with fleet"
        );

        let faults = self.cfg.faults.as_ref();
        let start = Instant::now();
        let outcomes: Vec<std::thread::Result<Result<NodeRun, String>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = nodes
                    .iter_mut()
                    .zip(endpoints)
                    .map(|(node, mut endpoint)| {
                        let mut view = view.clone();
                        scope.spawn(move || {
                            let mut served = Vec::with_capacity(epochs);
                            let ctx = RoundContext {
                                faults,
                                view: view.as_mut(),
                                tee,
                                audit: None,
                                serve: None,
                            };
                            round::run_node_loop(node, &mut endpoint, 0..epochs, ctx, |ev| {
                                served.push((start.elapsed().as_nanos() as u64, ev));
                            })?;
                            Ok((served, endpoint.stats()))
                        })
                    })
                    .collect();
                // Threads were spawned in node order; join preserves it.
                handles.into_iter().map(|h| h.join()).collect()
            });

        // A node that died took its endpoint with it, which fails every
        // peer's barrier: the panic, the cause, goes ahead of the errors
        // it caused.
        let mut joined: Vec<NodeRun> = Vec::with_capacity(outcomes.len());
        let mut failures = Vec::new();
        for (id, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(Ok(run)) => joined.push(run),
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
        let final_stats: Vec<TrafficStats> = joined.iter().map(|(_, s)| *s).collect();

        // Real elapsed time plus the modelled charges, which stack up
        // epoch by epoch exactly as on the fabric scheduler's wall axis.
        let mut trace = ExperimentTrace::new(name);
        let mut charges = VirtualClock::new();
        for epoch in 0..epochs {
            let mut end_ns = 0u64;
            let mut delivery = DeliveryStats::default();
            let reports: Vec<Option<EpochReport>> = joined
                .iter()
                .map(|(served, _)| {
                    // A leaver serves no epoch from its leave on.
                    let &(t, event) = served.get(epoch)?;
                    end_ns = end_ns.max(t);
                    delivery.absorb(&event.delivery);
                    event.report
                })
                .collect();
            advance_epoch_clock(&TimeAxis::Wall, &mut charges, &reports);
            let time_ns = setup_ns + end_ns + charges.now_ns();
            trace.push(aggregate_epoch(epoch, time_ns, &reports, delivery));
        }

        EngineResult {
            trace,
            setup_ns,
            final_stats,
        }
    }
}

/// The SGX evidence of a view change, per checking node: each joiner
/// produces the quote its `Join` frame would carry, and the member that
/// checks it is its first new neighbour (or, for a momentarily isolated
/// joiner, the joiner's own enclave — same measurement).
///
/// # Panics
/// When a joiner cannot produce its evidence.
fn route_evidence<M: Model>(
    t: &ViewTransition,
    pool: &WorkStealPool<'_, M>,
    dir: &TeeDirectory,
) -> Vec<Vec<(usize, Vec<u8>)>> {
    let mut evidence = vec![Vec::new(); pool.len()];
    for &j in &t.joined {
        let bytes = pool
            .with_round(j, |r| round::encode_evidence(dir, r.node_mut(), t.epoch))
            .unwrap_or_else(|e| panic!("view transition at epoch {}: {e}", t.epoch));
        let checker = t
            .added_edges
            .iter()
            .find_map(|&(a, b)| match (a == j, b == j) {
                (true, _) => Some(b),
                (_, true) => Some(a),
                _ => None,
            })
            .unwrap_or(j);
        evidence[checker].push((j, bytes));
    }
    evidence
}

/// Advances the epoch clock by the configured time model: on a simulated
/// axis, the slowest live node's compute plus its link-model transfer
/// time (full-duplex: the max of its up/down volumes); on the wall axis,
/// only the modelled hardware charge of the slowest node (real time
/// elapses on its own — `WallClock` stacks the charges on top).
fn advance_epoch_clock(time: &TimeAxis, clock: &mut dyn Clock, reports: &[Option<EpochReport>]) {
    match time {
        TimeAxis::Simulated(link) => {
            let mut epoch_ns = 0u64;
            for report in reports.iter().flatten() {
                let volume = report.bytes_out.max(report.bytes_in);
                let net_ns = if volume > 0 {
                    link.transfer_ns(volume)
                } else {
                    0
                };
                epoch_ns = epoch_ns.max(report.stage_times.total() + net_ns);
            }
            clock.advance(epoch_ns);
        }
        TimeAxis::Wall => {
            let max_sgx = reports
                .iter()
                .flatten()
                .map(|r| r.sgx_overhead_ns)
                .max()
                .unwrap_or(0);
            clock.advance(max_sgx);
        }
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
    use crate::builder::{build_mf_nodes, NodeSeeds};
    use crate::config::{GossipAlgorithm, ProtocolConfig, SharingMode};
    use rex_data::{Partition, SyntheticConfig, TrainTestSplit};
    use rex_ml::{MfHyperParams, MfModel};
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
        let ds = SyntheticConfig {
            num_users: 24,
            num_items: 120,
            num_ratings: 1_600,
            seed: 5,
            ..SyntheticConfig::default()
        }
        .generate();
        let split = TrainTestSplit::standard(&ds, 2);
        let part = Partition::multi_user(&split, 8);
        let graph = topology.build(8, 3);
        build_mf_nodes(
            &part,
            &graph,
            ds.num_users,
            ds.num_items,
            MfHyperParams::default(),
            ProtocolConfig {
                sharing,
                algorithm,
                points_per_epoch: 40,
                steps_per_epoch: 150,
                seed: 11,
                ..ProtocolConfig::default()
            },
            NodeSeeds::default(),
        )
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

    /// A node whose epoch panics mid-run must fail a thread-per-node run,
    /// naming the node — not strand its peers on the round barrier. Node
    /// 2 trains on a rating outside its model's shape, so its epoch 0
    /// panics; it is isolated, so nobody ever addresses it.
    #[test]
    #[should_panic(expected = "node 2 epoch panicked")]
    fn dead_node_fails_a_thread_per_node_run_instead_of_hanging_it() {
        let mut nodes = threaded_fleet(SharingMode::Model);
        let model = MfModel::new(3, 3, MfHyperParams::default(), 3.0, 1);
        let stray = rex_data::Rating {
            user: 99,
            item: 99,
            value: 3.0,
        };
        nodes[2] = Node::builder(2, model).train(vec![stray]).build();
        run(threaded(4, ExecutionMode::Native), "dies", &mut nodes);
    }
}
