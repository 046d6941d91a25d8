//! The work-stealing worker pool: the one executor behind the engine's
//! fabric round loop ([`Driver::WorkSteal`]).
//!
//! Re-spawning threads and re-partitioning the fleet into fixed chunks
//! every epoch is fine at 8 nodes, wasteful at 1024, and unbalanced
//! whenever node costs are skewed (stores grow at different rates,
//! crashed nodes cost nothing). This pool keeps a **fixed set of workers
//! alive for the whole run** and hands them node epochs through
//! per-worker deques with work stealing, so a worker that finishes its
//! share early drains its neighbours' backlogs instead of idling at the
//! barrier. With **one worker** it spawns nothing: the phase runs inline
//! on the driver thread, in node order.
//!
//! # Determinism
//! Scheduling order is *not* deterministic — which worker runs which node
//! epoch, and when, depends on timing. Results still are, bit-for-bit,
//! because the phase structure makes execution order unobservable:
//!
//! * node epochs within one phase are **mutually independent** — each
//!   [`Node`] owns its RNG, store and model, and its inbox was fully
//!   drained before the phase started;
//! * every claimed index is executed by exactly one worker, and its
//!   output lands in that node's slot (keyed by node id, not by
//!   completion order);
//! * the driver applies outgoing sends **after the phase barrier, in
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

use crate::node::{EpochReport, Node};
use rex_ml::Model;
use rex_net::mem::Envelope;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

/// What one node's epoch hands back: encoded outgoing `(dest, bytes)`
/// pairs plus the report (the engine's `EpochOutput` shape).
type Output = (Vec<(usize, Vec<u8>)>, EpochReport);

/// One node's work cell: the node itself (owned by the pool for the whole
/// run), the epoch's staged input, and the epoch's result. Workers lock
/// exactly the cells they claimed, so cross-slot contention is zero.
struct Slot<M: Model> {
    node: Node<M>,
    inbox: Vec<Envelope>,
    output: Option<Output>,
}

/// Fixed-size work-stealing pool over a fleet of nodes. See module docs.
pub(crate) struct WorkStealPool<M: Model> {
    slots: Vec<Mutex<Slot<M>>>,
    /// Per-worker deques of node indices; owners pop the front, thieves
    /// steal from the back.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Phase-start barrier (workers + the driver thread).
    start: Barrier,
    /// Phase-end barrier (workers + the driver thread).
    done: Barrier,
    stop: AtomicBool,
    /// First panic caught inside a node epoch, as a message for the
    /// driver to re-raise — a raw unwind on a worker would strand the
    /// phase barriers and deadlock the run instead of failing it.
    failed: Mutex<Option<String>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A worker panic propagates through the scope join; recovering the
    // guard here keeps the unwind path from double-panicking.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<M: Model> WorkStealPool<M> {
    /// Runs `body` against a pool that owns `fleet` for its duration —
    /// `workers` (≥ 1) threads parked between phases, none at all for one
    /// worker — and hands the fleet back, in node order, with `body`'s
    /// result. The workers are released on every exit path, including an
    /// unwind out of `body` (a transport failure, a re-raised epoch
    /// panic), so the scope join can never deadlock.
    pub(crate) fn run<R>(
        fleet: Vec<Node<M>>,
        workers: usize,
        body: impl FnOnce(&Self) -> R,
    ) -> (Vec<Node<M>>, R) {
        assert!(workers >= 1, "pool needs at least one worker");
        let pool = WorkStealPool {
            slots: fleet
                .into_iter()
                .map(|node| {
                    Mutex::new(Slot {
                        node,
                        inbox: Vec::new(),
                        output: None,
                    })
                })
                .collect(),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            start: Barrier::new(workers + 1),
            done: Barrier::new(workers + 1),
            stop: AtomicBool::new(false),
            failed: Mutex::new(None),
        };
        let result = std::thread::scope(|scope| {
            if !pool.inline() {
                for w in 0..workers {
                    let pool = &pool;
                    scope.spawn(move || pool.worker_loop(w));
                }
            }
            let _guard = ShutdownGuard(&pool);
            body(&pool)
        });
        let fleet = pool
            .slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .node
            })
            .collect();
        (fleet, result)
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

    /// Stages one node's epoch input (driver thread, between phases).
    pub(crate) fn load(&self, id: usize, inbox: Vec<Envelope>) {
        let mut slot = lock(&self.slots[id]);
        slot.inbox = inbox;
        slot.output = None;
    }

    /// Distributes the epoch's live node indices over the worker deques
    /// in contiguous runs (locality for the common uncontended case) and
    /// runs one phase to completion: every index claimed exactly once,
    /// every claimed epoch executed before this returns.
    ///
    /// # Panics
    /// Re-raises, on the calling thread and naming the node, a panic a
    /// node epoch raised during the phase.
    pub(crate) fn run_phase(&self, live: &[usize]) {
        let per_worker = live.len().div_ceil(self.workers()).max(1);
        for (w, chunk) in live.chunks(per_worker).enumerate() {
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

    /// Takes node `id`'s output of the last phase (`None` if it sat the
    /// epoch out).
    pub(crate) fn take_output(&self, id: usize) -> Option<Output> {
        lock(&self.slots[id]).output.take()
    }

    /// Runs `f` on node `id` (driver thread, between phases — no worker
    /// holds a slot then). Membership view transitions rewire neighbour
    /// lists and install late-attested sessions through this.
    pub(crate) fn with_node<R>(&self, id: usize, f: impl FnOnce(&mut Node<M>) -> R) -> R {
        f(&mut lock(&self.slots[id]).node)
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

    /// Claims and executes node epochs until no work is left. A panic
    /// inside an epoch is caught (the worker must survive to serve the
    /// phase barriers, or the whole run deadlocks), recorded for
    /// [`Self::run_phase`] to re-raise, and aborts this phase's
    /// remaining queue.
    fn drain(&self, w: usize) {
        while let Some(id) = self.claim(w) {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut slot = lock(&self.slots[id]);
                let slot = &mut *slot;
                let inbox = std::mem::take(&mut slot.inbox);
                slot.output = Some(slot.node.epoch(inbox));
            }));
            if let Err(payload) = outcome {
                let msg = panic_message(payload.as_ref());
                lock(&self.failed)
                    .get_or_insert_with(|| format!("node {id} epoch panicked: {msg}"));
                // The run is over; stop other workers from burning
                // through the rest of the phase.
                for queue in &self.queues {
                    lock(queue).clear();
                }
                return;
            }
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
struct ShutdownGuard<'a, M: Model>(&'a WorkStealPool<M>);

impl<M: Model> Drop for ShutdownGuard<'_, M> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_mf_nodes, NodeSeeds};
    use crate::config::ProtocolConfig;
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

    /// One phase over every node, any worker count (one = inline), must
    /// produce exactly the per-node outputs a plain loop produces.
    #[test]
    fn phase_outputs_match_sequential_for_any_worker_count() {
        let n = 7;
        let mut reference = tiny_fleet(n);
        let expected: Vec<Output> = reference
            .iter_mut()
            .map(|node| node.epoch(Vec::new()))
            .collect();

        for workers in [1, 2, 3, 8] {
            WorkStealPool::run(tiny_fleet(n), workers, |pool| {
                for id in 0..n {
                    pool.load(id, Vec::new());
                }
                let live: Vec<usize> = (0..n).collect();
                pool.run_phase(&live);
                for (id, want) in expected.iter().enumerate() {
                    let (out, report) = pool.take_output(id).expect("live node has output");
                    assert_eq!(&out, &want.0, "workers={workers} node={id}");
                    assert_eq!(
                        report.rmse.map(f64::to_bits),
                        want.1.rmse.map(f64::to_bits),
                        "workers={workers} node={id}"
                    );
                }
            });
        }
    }

    /// A panic inside a node epoch must surface on the driver thread as
    /// a panic — never as a barrier deadlock — inline or on workers.
    #[test]
    fn worker_panic_is_reraised_by_the_driver_not_deadlocked() {
        let n = 4;
        for workers in [1, 2] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut fleet = tiny_fleet(n);
                fleet[2] = stray_rating_node(2);
                WorkStealPool::run(fleet, workers, |pool| {
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

    /// Nodes left out of a phase (crash-stopped) produce no output, and
    /// the fleet comes back out in node order.
    #[test]
    fn skipped_nodes_have_no_output_and_fleet_returns_in_order() {
        let n = 5;
        let (fleet, ()) = WorkStealPool::run(tiny_fleet(n), 2, |pool| {
            pool.run_phase(&[0, 2, 4]);
            assert!(pool.take_output(0).is_some());
            assert!(pool.take_output(1).is_none());
            assert!(pool.take_output(3).is_none());
            assert!(pool.take_output(4).is_some());
        });
        assert_eq!(fleet.len(), n);
        for (i, node) in fleet.iter().enumerate() {
            assert_eq!(node.id(), i);
        }
    }
}
