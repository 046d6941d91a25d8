//! The work-stealing worker pool: the one executor behind the engine's
//! fabric scheduler ([`Driver::WorkSteal`]).
//!
//! The pool holds one [`NodeRound`] per node and steps them, one **phase**
//! per epoch: each machine from its staged inbox through the front, the
//! buffered sends and the back to its round wait. Re-spawning threads
//! and re-partitioning the fleet into fixed chunks every epoch is fine
//! at 8 nodes, wasteful at 1024, and unbalanced whenever node costs are
//! skewed (stores grow at different rates, crashed nodes cost nothing).
//! This pool keeps a **fixed set of workers alive for the whole run** and
//! hands them machines through per-worker deques with work stealing, so
//! a worker that finishes its share early drains its neighbours'
//! backlogs instead of idling at the barrier. With **one worker** it
//! spawns nothing: the phase runs inline on the driver thread, in node
//! order.
//!
//! # Determinism
//! Scheduling order is *not* deterministic — which worker steps which
//! machine, and when, depends on timing. Results still are, bit-for-bit,
//! because the phase structure makes execution order unobservable:
//!
//! * the machines within one phase are **mutually independent** — each
//!   [`Node`](crate::Node) owns its RNG, store and model, and its inbox
//!   was fully drained before the phase started;
//! * every claimed index is stepped by exactly one worker, and its sends
//!   land in that node's slot (keyed by node id, not by completion
//!   order);
//! * the driver applies the buffered sends **after the phase barrier, in
//!   canonical node order**, whatever the worker count.
//!
//! `tests/cross_backend.rs` and `tests/golden_trace.rs` hold every worker
//! count bit-identical to the inline one across backends, native and
//! SGX, with and without fault plans.
//!
//! Everything here is hand-rolled over `std::sync` primitives (mutexed
//! deques, two reusable barriers, an atomic stop flag) — the container
//! environment has no registry access, so no external executor crates.
//!
//! [`Driver::WorkSteal`]: crate::engine::Driver::WorkSteal

use crate::node::EpochReport;
use crate::round::{Action, Effect, Input, NodeRound};
use rex_ml::Model;
use rex_net::mem::Envelope;
use rex_net::transport::BarrierKind;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

/// One node's work cell: its round machine (held by the pool for the
/// whole run), the epoch's staged inbox, and the sends of the last phase,
/// buffered for the driver to apply in node order. Workers lock exactly
/// the cells they claimed, so cross-slot contention is zero.
struct Slot<'a, M: Model> {
    round: NodeRound<'a, M>,
    inbox: Vec<Envelope>,
    outbox: Vec<(usize, Vec<u8>)>,
}

/// Fixed-size work-stealing pool over a fleet's round machines. See
/// module docs.
pub(crate) struct WorkStealPool<'a, M: Model> {
    slots: Vec<Mutex<Slot<'a, M>>>,
    /// Per-worker deques of node indices; owners pop the front, thieves
    /// steal from the back.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Phase-start barrier (workers + the driver thread).
    start: Barrier,
    /// Phase-end barrier (workers + the driver thread).
    done: Barrier,
    stop: AtomicBool,
    /// First failure inside a phase (a panic in a node's compute, or a
    /// machine stepped out of order), as a message for the driver to
    /// re-raise — a raw unwind on a worker would strand the phase
    /// barriers and deadlock the run instead of failing it.
    failed: Mutex<Option<String>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A worker panic propagates through the scope join; recovering the
    // guard here keeps the unwind path from double-panicking.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<'a, M: Model> WorkStealPool<'a, M> {
    /// Runs `body` against a pool that holds `rounds` for its duration —
    /// `workers` (≥ 1) threads parked between phases, none at all for one
    /// worker — and returns `body`'s result. The workers are released on
    /// every exit path, including an unwind out of `body` (a transport
    /// failure, a re-raised phase failure), so the scope join can never
    /// deadlock.
    pub(crate) fn run<R>(
        rounds: Vec<NodeRound<'a, M>>,
        workers: usize,
        body: impl FnOnce(&Self) -> R,
    ) -> R {
        assert!(workers >= 1, "pool needs at least one worker");
        let pool = WorkStealPool {
            slots: rounds
                .into_iter()
                .map(|round| {
                    Mutex::new(Slot {
                        round,
                        inbox: Vec::new(),
                        outbox: Vec::new(),
                    })
                })
                .collect(),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            start: Barrier::new(workers + 1),
            done: Barrier::new(workers + 1),
            stop: AtomicBool::new(false),
            failed: Mutex::new(None),
        };
        std::thread::scope(|scope| {
            if !pool.inline() {
                for w in 0..workers {
                    let pool = &pool;
                    scope.spawn(move || pool.worker_loop(w));
                }
            }
            let _guard = ShutdownGuard(&pool);
            body(&pool)
        })
    }

    /// Number of workers.
    fn workers(&self) -> usize {
        self.queues.len()
    }

    /// One worker means no worker thread: phases run on the caller.
    fn inline(&self) -> bool {
        self.workers() == 1
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Stages node `id`'s inbox for the next phase (driver thread, between
    /// phases).
    pub(crate) fn load(&self, id: usize, inbox: Vec<Envelope>) {
        lock(&self.slots[id]).inbox = inbox;
    }

    /// Distributes the given node indices over the worker deques in
    /// contiguous runs (locality for the common uncontended case) and
    /// runs one phase to completion: every index claimed exactly once,
    /// every claimed machine stepped from its recv to its round wait
    /// before this returns.
    ///
    /// # Panics
    /// Re-raises, on the calling thread and naming the node, a panic a
    /// node's compute raised during the phase.
    pub(crate) fn run_phase(&self, ids: &[usize]) {
        let per_worker = ids.len().div_ceil(self.workers()).max(1);
        for (w, chunk) in ids.chunks(per_worker).enumerate() {
            lock(&self.queues[w]).extend(chunk.iter().copied());
        }
        if self.inline() {
            self.drain(0);
        } else {
            self.start.wait();
            self.done.wait();
        }
        if let Some(msg) = lock(&self.failed).take() {
            panic!("{msg}");
        }
    }

    /// Takes node `id`'s sends of the last phase.
    pub(crate) fn take_outbox(&self, id: usize) -> Vec<(usize, Vec<u8>)> {
        std::mem::take(&mut lock(&self.slots[id]).outbox)
    }

    /// Runs `f` on node `id`'s machine (driver thread, between phases —
    /// no worker holds a slot then).
    pub(crate) fn with_round<R>(&self, id: usize, f: impl FnOnce(&mut NodeRound<'a, M>) -> R) -> R {
        f(&mut lock(&self.slots[id]).round)
    }

    /// Releases the workers out of their run loop. Idempotent, and safe
    /// to call from a `Drop` guard during an unwind: the workers are
    /// parked at the start barrier between phases, so waiting it once
    /// with the stop flag raised lets every worker exit and the scope
    /// join succeed instead of deadlocking.
    fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) || self.inline() {
            return;
        }
        self.start.wait();
    }

    /// The worker run loop: park at the start barrier, drain work, park
    /// at the done barrier; exit when the stop flag is raised.
    fn worker_loop(&self, w: usize) {
        loop {
            self.start.wait();
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            self.drain(w);
            // All deques are empty. In-flight claims belong to the
            // workers that made them, each of which finishes its claimed
            // epoch before reaching this barrier — so the phase is
            // complete when the barrier releases.
            self.done.wait();
        }
    }

    /// Claims and steps machines until no work is left. A panic inside a
    /// node's compute is caught (the worker must survive to serve the
    /// phase barriers, or the whole run deadlocks), recorded for
    /// [`Self::run_phase`] to re-raise, and aborts this phase's remaining
    /// queue.
    fn drain(&self, w: usize) {
        while let Some(id) = self.claim(w) {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut slot = lock(&self.slots[id]);
                let Slot {
                    round,
                    inbox,
                    outbox,
                } = &mut *slot;
                phase(round, std::mem::take(inbox), outbox)
            }));
            let failure = match outcome {
                Ok(()) => continue,
                Err(payload) => format!(
                    "node {id} epoch panicked: {}",
                    panic_message(payload.as_ref())
                ),
            };
            lock(&self.failed).get_or_insert(failure);
            // The run is over; stop other workers from burning through
            // the rest of the phase.
            for queue in &self.queues {
                lock(queue).clear();
            }
            return;
        }
    }

    /// Claims the next node index: own deque front first, then steal from
    /// the other workers' backs.
    fn claim(&self, w: usize) -> Option<usize> {
        if let Some(id) = lock(&self.queues[w]).pop_front() {
            return Some(id);
        }
        for offset in 1..self.workers() {
            let victim = (w + offset) % self.workers();
            if let Some(id) = lock(&self.queues[victim]).pop_back() {
                return Some(id);
            }
        }
        None
    }
}

/// One machine's share of a pool phase: it takes its staged inbox and
/// runs the front, then the back. The drain wait between them is released
/// at once — every inbox was drained before the phase, and the sends are
/// buffered in `outbox` and applied in node order after it — so no share
/// can reach an inbox of the same epoch.
fn phase<M: Model>(
    round: &mut NodeRound<'_, M>,
    inbox: Vec<Envelope>,
    outbox: &mut Vec<(usize, Vec<u8>)>,
) {
    let mut buffer = |to, bytes| outbox.push((to, bytes));
    if let Parked::Barrier = step(round, Input::Inbox(inbox), None, &mut buffer) {
        step(
            round,
            Input::Released(BarrierKind::Drain),
            None,
            &mut buffer,
        );
    }
}

/// Where the fabric scheduler parks a machine: at a point only the
/// scheduler can answer.
pub(crate) enum Parked {
    /// At its recv: the scheduler drains its mailbox into the next phase.
    Recv,
    /// Waiting on a barrier.
    Barrier,
    /// The epoch is over.
    Report(Option<EpochReport>),
    /// The node left the view: it is stepped no more.
    Left,
}

/// The fabric scheduler's map of a machine's actions: steps it from
/// `input` until it parks, its sends handed to `send`. `evidence` answers
/// a view sync (the fabric synced its view once, for every node). The
/// in-memory fabrics have no commitment wire and no serve queue, so a
/// commitment drain finds nothing and the other effects are dropped.
///
/// # Panics
/// When the machine fails — SGX admission, or a step out of order.
pub(crate) fn step<M: Model>(
    round: &mut NodeRound<'_, M>,
    mut input: Input<'_>,
    mut evidence: Option<Vec<(usize, Vec<u8>)>>,
    mut send: impl FnMut(usize, Vec<u8>),
) -> Parked {
    loop {
        let sink = |effect: Effect<'_, M>| {
            if let Effect::Send(to, bytes) = effect {
                send(to, bytes);
            }
        };
        input = match round.step(input, sink).unwrap_or_else(|e| panic!("{e}")) {
            Action::ViewSync(_) => Input::Synced(evidence.take().unwrap_or_default()),
            Action::Recv => return Parked::Recv,
            Action::Wait(_) => return Parked::Barrier,
            Action::TakeCommitments => Input::Commitments(Vec::new()),
            Action::Report { report, .. } => return Parked::Report(report),
            Action::Leave => return Parked::Left,
        };
    }
}

/// The message of a caught panic, for re-raising it where a driver can
/// name the node it came from.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Shuts the pool down when dropped — including during a driver-thread
/// unwind (a transport failure, a re-raised worker panic), which would
/// otherwise leave the workers parked at the start barrier and turn the
/// scope join into a deadlock. [`WorkStealPool::shutdown`] is idempotent,
/// so the normal exit path needs no special casing.
struct ShutdownGuard<'p, 'a, M: Model>(&'p WorkStealPool<'a, M>);

impl<M: Model> Drop for ShutdownGuard<'_, '_, M> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_mf_nodes, NodeSeeds};
    use crate::config::ProtocolConfig;
    use crate::node::Node;
    use rex_data::{Partition, SyntheticConfig, TrainTestSplit};
    use rex_ml::{MfHyperParams, MfModel};
    use rex_topology::TopologySpec;

    /// Node `id` holding a local rating outside its model's shape: the
    /// first SGD step of its first epoch indexes the tables with it and
    /// panics.
    fn stray_rating_node(id: usize) -> Node<MfModel> {
        let model = MfModel::new(3, 3, MfHyperParams::default(), 3.0, 1);
        let stray = rex_data::Rating {
            user: 99,
            item: 99,
            value: 3.0,
        };
        Node::builder(id, model).train(vec![stray]).build()
    }

    fn tiny_fleet(n: usize) -> Vec<Node<MfModel>> {
        let ds = SyntheticConfig {
            num_users: (2 * n) as u32,
            num_items: 60,
            num_ratings: 50 * n,
            seed: 9,
            ..SyntheticConfig::default()
        }
        .generate();
        let split = TrainTestSplit::standard(&ds, 2);
        let part = Partition::multi_user(&split, n);
        let graph = TopologySpec::Ring.build(n, 1);
        build_mf_nodes(
            &part,
            &graph,
            ds.num_users,
            ds.num_items,
            MfHyperParams::default(),
            ProtocolConfig {
                points_per_epoch: 10,
                steps_per_epoch: 30,
                ..ProtocolConfig::default()
            },
            NodeSeeds::default(),
        )
    }

    fn rounds(fleet: &mut [Node<MfModel>]) -> Vec<NodeRound<'_, MfModel>> {
        fleet
            .iter_mut()
            .map(|node| NodeRound::new(node, None, None, None, 0))
            .collect()
    }

    /// Opens epoch 0 on every machine, leaving each at its recv — where a
    /// phase picks it up with the staged (here empty) inbox.
    fn open_all(pool: &WorkStealPool<'_, MfModel>) {
        for id in 0..pool.len() {
            pool.with_round(id, |round| {
                let open = Input::Open {
                    epoch: 0,
                    transition: None,
                    member: true,
                };
                assert!(matches!(round.step(open, |_| {}), Ok(Action::Recv)));
            });
        }
    }

    /// Releases machine `id`'s round barrier and returns the report it
    /// closes the epoch with.
    fn close(pool: &WorkStealPool<'_, MfModel>, id: usize) -> Option<EpochReport> {
        pool.with_round(id, |round| {
            match round.step(Input::Released(BarrierKind::Round), |_| {}) {
                Ok(Action::Report { report, .. }) => report,
                _ => panic!("node {id}: no report after the round barrier"),
            }
        })
    }

    /// One phase over every machine, any worker count (one = inline),
    /// must produce exactly the per-node outputs a plain loop of
    /// `Node::epoch` produces.
    #[test]
    fn phase_outputs_match_sequential_for_any_worker_count() {
        let n = 7;
        let mut reference = tiny_fleet(n);
        let expected: Vec<_> = reference
            .iter_mut()
            .map(|node| node.epoch(Vec::new()))
            .collect();

        for workers in [1, 2, 3, 8] {
            let mut fleet = tiny_fleet(n);
            WorkStealPool::run(rounds(&mut fleet), workers, |pool| {
                open_all(pool);
                let live: Vec<usize> = (0..n).collect();
                pool.run_phase(&live);
                for (id, want) in expected.iter().enumerate() {
                    let out = pool.take_outbox(id);
                    assert_eq!(&out, &want.0, "workers={workers} node={id}");
                    let report = close(pool, id).expect("live node has a report");
                    assert_eq!(
                        report.rmse.map(f64::to_bits),
                        want.1.rmse.map(f64::to_bits),
                        "workers={workers} node={id}"
                    );
                }
            });
        }
    }

    /// A panic inside a node's compute must surface on the driver thread
    /// as a panic — never as a barrier deadlock — inline or on workers.
    #[test]
    fn worker_panic_is_reraised_by_the_driver_not_deadlocked() {
        let n = 4;
        for workers in [1, 2] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut fleet = tiny_fleet(n);
                fleet[2] = stray_rating_node(2);
                WorkStealPool::run(rounds(&mut fleet), workers, |pool| {
                    open_all(pool);
                    let live: Vec<usize> = (0..n).collect();
                    pool.run_phase(&live);
                });
            }))
            .expect_err("a panicking epoch must fail the run");
            let msg = panic_message(caught.as_ref());
            assert!(
                msg.contains("node 2 epoch panicked"),
                "workers={workers}: unexpected panic message: {msg}"
            );
        }
    }

    /// Machines left out of a phase send nothing, and the fleet the
    /// machines held stays in node order.
    #[test]
    fn skipped_nodes_have_no_output_and_fleet_returns_in_order() {
        let n = 5;
        let mut fleet = tiny_fleet(n);
        WorkStealPool::run(rounds(&mut fleet), 2, |pool| {
            open_all(pool);
            pool.run_phase(&[0, 2, 4]);
            assert!(!pool.take_outbox(0).is_empty());
            assert!(pool.take_outbox(1).is_empty());
            assert!(pool.take_outbox(3).is_empty());
            assert!(!pool.take_outbox(4).is_empty());
        });
        assert_eq!(fleet.len(), n);
        for (i, node) in fleet.iter().enumerate() {
            assert_eq!(node.id(), i);
        }
    }
}
