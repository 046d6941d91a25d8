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
//! * the **real-thread deployment** —
//!   [`ChannelTransport`](rex_net::ChannelTransport),
//!   [`Driver::ThreadPerNode`], [`TimeAxis::Wall`];
//! * the **real-socket deployment** —
//!   [`TcpTransport`](rex_net::TcpTransport), any driver: frames cross
//!   the kernel's TCP stack, and the `rex-node` binary runs the same node
//!   loop one process per node;
//! * the **centralized baseline** — a one-node fabric with no neighbours
//!   (see [`crate::centralized`]).
//!
//! The unified entry point [`crate::runner::run`] (selecting a
//! [`crate::runner::Backend`]) is a thin configuration shim over
//! [`Engine::run`]; a further backend only implements the `rex-net`
//! transport traits.
//!
//! # Two round loops
//! `Engine::run_rounds` is the **fabric loop**: one owner over the whole
//! [`Transport`], node epochs executed by [`crate::pool`].
//! [`Driver::ThreadPerNode`] instead spawns the **per-node loop**
//! ([`crate::round::run_node_loop`], one thread over one [`Endpoint`])
//! once per node and folds what it reports. Nothing else runs a round —
//! see the crate docs.
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
//! transitions bit-identical across every fabric-loop driver × backend
//! combination.
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
//! loops replay a plan bit-for-bit; `tests/chaos.rs` holds them to it.

use crate::config::ExecutionMode;
use crate::membership::{MembershipPlan, MembershipView, ViewTransition};
use crate::node::{EpochReport, Node};
use crate::pool::{panic_message, WorkStealPool};
use crate::round::{self, EpochEvent, RoundContext};
use crate::setup::TeeDirectory;
use crate::setup::{establish_tee_with_directory, overlay_of, prune_to_overlay, SetupReport};
use rex_ml::Model;
use rex_net::fault::FaultPlan;
use rex_net::link::LinkModel;
use rex_net::mem::Envelope;
use rex_net::stats::{DeliveryStats, TrafficStats};
use rex_net::transport::{Clock, Endpoint, Transport, WallClock};
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
    /// The fabric loop with every node epoch run on the driver thread,
    /// in node order (the pool with one worker, which spawns nothing).
    /// Works with any [`Transport`].
    Lockstep,
    /// One OS thread per node over split endpoints, each running the
    /// per-node loop ([`crate::round::run_node_loop`]) against the
    /// fabric's own round barrier — the paper's deployment shape.
    /// Requires a transport whose [`Transport::into_endpoints`] returns
    /// `Some`.
    ThreadPerNode,
    /// The fabric loop executed by a **fixed work-stealing worker pool**
    /// ([`crate::pool`]): workers stay alive across epochs and steal node
    /// epochs from each other's deques, so skewed per-node costs (growing
    /// stores, crashed nodes) do not stall a whole chunk. Scales the
    /// fabric view to 1000+ nodes in-process; results are bit-identical
    /// to [`Driver::Lockstep`] (outputs are keyed by node id and sends
    /// are applied in canonical node order after each phase). Works with
    /// any [`Transport`] and either time axis.
    WorkSteal {
        /// Worker threads; `0` means one per available CPU core.
        workers: usize,
    },
    /// **Bounded-staleness asynchronous rounds**: the epoch barrier
    /// becomes optional — a node proceeds once shares from at least `k`
    /// distinct neighbours have arrived for the epoch, and the remaining
    /// neighbours' shares are applied **one epoch late**, merged under
    /// the canonical-order rule (ascending sender id, per-sender FIFO,
    /// stale before fresh). This is the speed-vs-fidelity axis the
    /// deployed barrier-free `rex-node` loop runs on; in-process the
    /// engine models it deterministically: which neighbours are "late"
    /// at node `v` in epoch `e` is drawn from a seeded hash of
    /// `(seed, e, sender, v)`, so a fixed `(seed, k)` yields a
    /// bit-identical trajectory on any backend — and `k ≥ max degree`
    /// degenerates to [`Driver::Lockstep`] exactly. Staleness is
    /// bounded at one epoch: a share deferred once is delivered at the
    /// next epoch unconditionally. Not composable with fault or
    /// membership plans (those schedules are keyed to synchronized
    /// round boundaries).
    BoundedAsync {
        /// Minimum distinct neighbour shares a node waits for per epoch.
        /// `0` is legal (pure gossip: every share may arrive late).
        k: usize,
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
    /// sponsor's bootstrap lands in the joiner's first inbox. Supported
    /// by [`Driver::Lockstep`] and [`Driver::WorkSteal`] (the per-node
    /// loop applies the same transitions over its own endpoint under
    /// `rex-node`); [`Driver::ThreadPerNode`] rejects a non-`None` plan.
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

/// What one node's thread hands back to the engine: the (trained) node,
/// every epoch it served with the wall timestamp of its completion, and
/// its traffic counters.
type NodeRun<M> = (Node<M>, Vec<(u64, EpochEvent)>, TrafficStats);

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
    /// [`Driver::ThreadPerNode`] is requested on a transport that cannot
    /// split into endpoints, [`Driver::ThreadPerNode`] is combined with
    /// [`TimeAxis::Simulated`] (thread-per-node epochs are timestamped
    /// with real elapsed time, so a simulated axis cannot be honoured)
    /// or with a membership plan, a membership plan fails validation, or
    /// a node fails mid-run — its epoch panics or its endpoint loses a
    /// peer — in which case the failure is re-raised naming the node.
    pub fn run(mut self, name: &str, nodes: &mut Vec<Node<M>>) -> EngineResult {
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
        assert!(
            !(matches!(self.cfg.driver, Driver::ThreadPerNode) && self.cfg.membership.is_some()),
            "Driver::ThreadPerNode does not support membership plans; \
             use Driver::Lockstep, Driver::WorkSteal, or the rex-node loop"
        );
        assert!(
            !(matches!(self.cfg.driver, Driver::BoundedAsync { .. })
                && (self.cfg.faults.is_some() || self.cfg.membership.is_some())),
            "Driver::BoundedAsync does not compose with fault or membership plans; \
             their schedules are keyed to synchronized round boundaries"
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

        // The fabric loop's worker count: `0` is one per available core.
        let workers = match self.cfg.driver {
            Driver::ThreadPerNode => return self.run_thread_per_node(name, nodes, setup_ns),
            Driver::Lockstep => 1,
            Driver::WorkSteal { workers } => workers,
            // Bounded staleness is an arrival model in front of the same
            // rounds, so any worker count sees the same deferred inboxes.
            Driver::BoundedAsync { .. } => 0,
        };
        let workers = match workers {
            0 => std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            w => w,
        }
        .min(nodes.len());

        let (fleet, trace) = WorkStealPool::run(std::mem::take(nodes), workers, |pool| {
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
        *nodes = fleet;
        EngineResult {
            trace,
            setup_ns,
            final_stats: self.transport.all_stats(),
        }
    }

    /// The fabric round loop: per epoch — `epoch_begin`, **membership
    /// view transition** (rewire the overlay, late-attest materializing
    /// edges, send sponsor bootstraps, flush so they land in this epoch's
    /// inboxes), crash + membership mask, drain every mailbox (a down or
    /// non-member node's inbox is drained and discarded), run every live
    /// node's epoch as one pool phase, apply sends in deterministic node
    /// order, `flush`, drain delivery counters, advance the clock, record
    /// the trace. The pool only decides on which thread an epoch runs —
    /// inputs are staged before the phase and outputs read back by node
    /// id after it — which is what makes every worker count bit-identical
    /// *by construction*.
    fn run_rounds(
        cfg: &EngineConfig,
        transport: &mut T,
        name: &str,
        setup_ns: u64,
        pool: &WorkStealPool<M>,
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
        // Shares deferred by the bounded-staleness arrival model, per
        // receiver; delivered unconditionally at the next epoch (max
        // staleness one epoch). Whatever is left at run end is dropped,
        // like any message in flight past the final round.
        let mut deferred: Vec<Vec<Envelope>> = vec![Vec::new(); n];

        for epoch in 0..cfg.epochs {
            transport.epoch_begin(epoch);

            if let Some(v) = view.as_mut() {
                if let Some(t) = v.advance(epoch) {
                    // Fabric-level view sync first: layers with
                    // in-flight state react to the change (the fault
                    // wrapper purges a leaver's held messages before
                    // any release point could target it).
                    transport.view_sync(epoch, &t.joined, &t.left);
                    let points = v.plan().bootstrap_points;
                    Self::transition_fleet(&t, pool, transport, cfg.faults.as_ref(), tee, points);
                    // The view barrier: bootstraps are delivered before
                    // any inbox of this epoch is drained.
                    transport.flush();
                }
            }

            // A node sits the epoch out when crash-stopped *or* outside
            // the current membership view; either way its mailbox is
            // drained and discarded — whatever was in flight to it is
            // lost, exactly as in the per-node loop.
            let mut live = Vec::with_capacity(n);
            for (id, late) in deferred.iter_mut().enumerate() {
                let mut inbox = transport.recv(id);
                if cfg.faults.as_ref().is_some_and(|p| p.is_down(id, epoch))
                    || view.as_ref().is_some_and(|v| !v.is_member(id))
                {
                    continue;
                }
                if let Driver::BoundedAsync { k } = cfg.driver {
                    apply_staleness(cfg.seed, epoch, id, k, &mut inbox, late);
                }
                pool.load(id, inbox);
                live.push(id);
            }

            pool.run_phase(&live);

            // Apply sends in deterministic node order, then make them
            // visible for the next round.
            let mut reports = Vec::with_capacity(n);
            for from in 0..n {
                reports.push(pool.take_output(from).map(|(outgoing, report)| {
                    for (dest, bytes) in outgoing {
                        transport.send(from, dest, bytes);
                    }
                    report
                }));
            }
            transport.flush();
            let delivery = transport.take_delivery();

            advance_epoch_clock(&cfg.time, clock.as_mut(), &reports);
            trace.push(aggregate_epoch(epoch, clock.now_ns(), &reports, delivery));
        }
        trace
    }

    /// Applies one membership view transition to the whole fleet: every
    /// node gets its own slice through [`round::apply_transition`], with
    /// `transport.send` carrying the sponsor bootstraps. In SGX mode each
    /// joiner first produces the evidence its `Join` frame would carry,
    /// and the member that checks it is its first new neighbour (or, for
    /// a momentarily isolated joiner, the joiner's own enclave — same
    /// measurement).
    fn transition_fleet(
        t: &ViewTransition,
        pool: &WorkStealPool<M>,
        transport: &mut T,
        faults: Option<&FaultPlan>,
        tee: Option<&TeeDirectory>,
        bootstrap_points: usize,
    ) {
        let failed = |e: String| -> ! { panic!("view transition at epoch {}: {e}", t.epoch) };
        let mut evidence: Vec<Vec<(usize, Vec<u8>)>> = vec![Vec::new(); pool.len()];
        if let Some(dir) = tee {
            for &j in &t.joined {
                let bytes = pool
                    .with_node(j, |node| round::encode_evidence(dir, node, t.epoch))
                    .unwrap_or_else(|e| failed(e));
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
        }
        for (id, presented) in evidence.iter().enumerate() {
            pool.with_node(id, |node| {
                round::apply_transition(
                    node,
                    t,
                    presented,
                    bootstrap_points,
                    faults,
                    tee,
                    |to, b| {
                        transport.send(id, to, b);
                    },
                )
            })
            .unwrap_or_else(|e| failed(e));
        }
    }

    /// One OS thread per node over split endpoints, each running the
    /// per-node loop; the engine only folds what the loops report.
    fn run_thread_per_node(
        self,
        name: &str,
        nodes: &mut Vec<Node<M>>,
        setup_ns: u64,
    ) -> EngineResult {
        let epochs = self.cfg.epochs;
        let endpoints = self
            .transport
            .into_endpoints()
            .expect("transport cannot split into per-node endpoints; use Driver::Lockstep");
        assert_eq!(
            endpoints.len(),
            nodes.len(),
            "endpoint count disagrees with fleet"
        );

        let faults = self.cfg.faults.as_ref();
        let start = Instant::now();
        let outcomes: Vec<std::thread::Result<Result<NodeRun<M>, String>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = std::mem::take(nodes)
                    .into_iter()
                    .zip(endpoints)
                    .map(|(mut node, mut endpoint)| {
                        scope.spawn(move || {
                            let mut served = Vec::with_capacity(epochs);
                            let ctx = RoundContext {
                                faults,
                                view: None,
                                tee: None,
                                audit: None,
                                serve: None,
                            };
                            round::run_node_loop(&mut node, &mut endpoint, 0..epochs, ctx, |ev| {
                                served.push((start.elapsed().as_nanos() as u64, ev));
                            })?;
                            Ok((node, served, endpoint.stats()))
                        })
                    })
                    .collect();
                // Threads were spawned in node order; join preserves it.
                handles.into_iter().map(|h| h.join()).collect()
            });

        // A node that died took its endpoint with it, which fails every
        // peer's barrier: the panic, the cause, goes ahead of the errors
        // it caused.
        let mut joined: Vec<NodeRun<M>> = Vec::with_capacity(outcomes.len());
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
        let final_stats: Vec<TrafficStats> = joined.iter().map(|(_, _, s)| *s).collect();

        // Real elapsed time plus the modelled charges, which stack up
        // epoch by epoch exactly as on the fabric loop's wall axis.
        let mut trace = ExperimentTrace::new(name);
        let mut charges = VirtualClock::new();
        for epoch in 0..epochs {
            let mut end_ns = 0u64;
            let mut delivery = DeliveryStats::default();
            let reports: Vec<Option<EpochReport>> = joined
                .iter()
                .map(|(_, served, _)| {
                    let (t, event) = served[epoch];
                    end_ns = end_ns.max(t);
                    delivery.absorb(&event.delivery);
                    event.report
                })
                .collect();
            advance_epoch_clock(&TimeAxis::Wall, &mut charges, &reports);
            let time_ns = setup_ns + end_ns + charges.now_ns();
            trace.push(aggregate_epoch(epoch, time_ns, &reports, delivery));
        }

        // Hand the (trained) fleet back to the caller.
        *nodes = joined.into_iter().map(|(node, _, _)| node).collect();

        EngineResult {
            trace,
            setup_ns,
            final_stats,
        }
    }
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

/// The [`Driver::BoundedAsync`] arrival model for one receiver's epoch:
/// of the distinct senders with fresh shares in `inbox`, the `k` ranked
/// first by the seeded hash `splitmix64(seed, epoch, sender, receiver)`
/// arrive "in time"; every other sender's shares are deferred into
/// `deferred`, which simultaneously releases the previous epoch's
/// deferrals (bounded staleness: nothing is deferred twice). The
/// resulting inbox is re-canonicalized — stale shares sort before fresh
/// ones from the same sender, preserving per-sender FIFO across the
/// epoch boundary.
fn apply_staleness(
    seed: u64,
    epoch: usize,
    receiver: usize,
    k: usize,
    inbox: &mut Vec<Envelope>,
    deferred: &mut Vec<Envelope>,
) {
    let fresh = std::mem::take(inbox);
    let mut senders: Vec<usize> = fresh.iter().map(|e| e.from).collect();
    senders.sort_unstable();
    senders.dedup();

    let mut late: Vec<usize> = Vec::new();
    if senders.len() > k {
        // Deterministic arrival order: rank senders by a seeded hash,
        // sender id breaking (astronomically unlikely) ties. The first
        // k "arrived"; the rest are this epoch's stragglers.
        let rank = |s: usize| {
            rex_crypto::splitmix64(
                seed ^ rex_crypto::splitmix64((epoch as u64) << 32 | receiver as u64)
                    ^ rex_crypto::splitmix64(0x5741_u64 << 48 | s as u64),
            )
        };
        senders.sort_by_key(|&s| (rank(s), s));
        late = senders.split_off(k);
        late.sort_unstable();
    }

    // Last epoch's stragglers deliver now, ahead of the fresh shares so
    // the stable canonical sort keeps per-sender FIFO.
    *inbox = std::mem::take(deferred);
    for env in fresh {
        if late.binary_search(&env.from).is_ok() {
            deferred.push(env);
        } else {
            inbox.push(env);
        }
    }
    rex_net::transport::canonicalize(inbox);
}

/// Folds one epoch's per-node reports into the trace record: fleet means
/// over the **live** nodes, in node order — the folds are order-stable so
/// runs are reproducible. Crash-stopped nodes (`None`) contribute nothing
/// but are counted out of `live_nodes`.
fn aggregate_epoch(
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
