//! The work-stealing worker pool: the scheduler of
//! [`Driver::WorkSteal`].
//!
//! The pool holds every node's endpoint driver (`round::Drive`) with its
//! endpoint and steps them in **phases**: a phase steps each node
//! (`Drive::step`) until it waits on a barrier it arrived at, ends an
//! epoch, or ends. An epoch is one phase up to the drain wait
//! (open, recv, front), one up to the round wait (sends, back) and a
//! short one that reports it; an epoch that opens a membership change
//! starts with one more, up to its view barrier. Between phases the
//! driver thread answers every node's wait (`Drive::wait`). Every
//! endpoint has arrived by then, so no wait can stall on a peer: the
//! order the single-owner `Fabric::flush` uses.
//!
//! Re-spawning threads and re-partitioning the fleet into fixed chunks
//! every phase is fine at 8 nodes, wasteful at 1024, and unbalanced
//! whenever node costs are skewed (stores grow at different rates,
//! crashed nodes cost nothing). This pool keeps a **fixed set of workers
//! alive for the whole run** and hands them nodes through per-worker
//! deques with work stealing, so a worker that finishes its share early
//! drains its neighbours' backlogs instead of idling at the barrier. With
//! **one worker** it spawns nothing: every phase runs inline on the
//! driver thread, in node order.
//!
//! # Determinism
//! Scheduling order is *not* deterministic — which worker steps which
//! node, and when, depends on timing, and so does the order in which
//! sends land in a mailbox. Results still are, bit-for-bit:
//!
//! * every inbox is drained in **canonical order** (ascending sender id,
//!   per-sender FIFO: [`rex_net::transport::canonicalize`]), and each
//!   node sends in its own order, so the arrival order is unobservable;
//! * the **drain barrier** separates an epoch's recvs from its sends: no
//!   node sends before every node has drained, so no share of epoch `e`
//!   reaches an inbox of epoch `e`, whatever the worker count;
//! * each [`Node`](crate::Node) owns its RNG, store and model, and the
//!   engine folds the reports by node id.
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

// The engine's simulator runs this module: a node's failure comes back
// to the driver thread as a message naming the node, never as a stray
// panic or an out-of-bounds index on a worker.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use crate::engine::Fold;
use crate::round::Drive;
use rex_ml::Model;
use rex_net::stats::TrafficStats;
use rex_net::transport::Endpoint;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// One node's work cell: its drive, its endpoint, and whether the drive
/// goes on. Workers lock exactly the cells they claimed, so cross-slot
/// contention is zero.
struct Slot<'a, M: Model, E> {
    drive: Drive<'a, M>,
    endpoint: E,
    running: bool,
}

/// Fixed-size work-stealing pool over a fleet's drives. See module docs.
struct WorkStealPool<'f, 'a, M: Model, E> {
    slots: Vec<Mutex<Slot<'a, M, E>>>,
    /// Where every node's epoch reports go.
    fold: &'f Fold,
    /// Per-worker deques of node indices; owners pop the front, thieves
    /// steal from the back.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Phase-start barrier (workers + the driver thread).
    start: Barrier,
    /// Phase-end barrier (workers + the driver thread).
    done: Barrier,
    stop: AtomicBool,
    /// First failure inside a phase (a panic in a node's compute, or an
    /// error its drive returned), as a message for the driver thread to
    /// re-raise — a raw unwind on a worker would strand the phase
    /// barriers and deadlock the run instead of failing it.
    failed: Mutex<Option<String>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A worker panic propagates through the scope join; recovering the
    // guard here keeps the unwind path from double-panicking.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs every drive to its end over its endpoint on `workers` (≥ 1)
/// threads — none at all for one worker — and hands every epoch report
/// to `fold`. Returns each endpoint's final counters, in node order.
///
/// # Panics
/// Re-raises, on the calling thread and naming the node, the first
/// failure of a node: a panic in its compute, or its drive's error. The
/// workers are released on every exit path, so the run never hangs.
pub(crate) fn run<M: Model, E: Endpoint>(
    drives: Vec<(Drive<'_, M>, E)>,
    workers: usize,
    fold: &Fold,
) -> Vec<TrafficStats> {
    let workers = workers.max(1);
    let pool = WorkStealPool {
        slots: drives
            .into_iter()
            .map(|(drive, endpoint)| {
                Mutex::new(Slot {
                    drive,
                    endpoint,
                    running: true,
                })
            })
            .collect(),
        fold,
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
        pool.schedule();
    });
    pool.slots
        .into_iter()
        .map(|slot| {
            let slot = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            slot.endpoint.stats()
        })
        .collect()
}

/// Re-raises a node's failure on the driver thread.
#[allow(
    clippy::panic,
    reason = "the pool's one re-raise: a node's failure ends the run on the calling thread"
)]
fn raise(failure: &str) -> ! {
    panic!("{failure}")
}

impl<'a, M: Model, E: Endpoint> WorkStealPool<'_, 'a, M, E> {
    /// Number of workers.
    fn workers(&self) -> usize {
        self.queues.len()
    }

    /// One worker means no worker thread: phases run on the caller.
    fn inline(&self) -> bool {
        self.workers() == 1
    }

    /// Node `id`'s cell (driver thread between phases, or the worker that
    /// claimed it).
    fn slot(&self, id: usize) -> Option<MutexGuard<'_, Slot<'a, M, E>>> {
        self.slots.get(id).map(lock)
    }

    /// Phases until every node is done; between two, the waits.
    fn schedule(&self) {
        let mut live: Vec<usize> = (0..self.slots.len()).collect();
        while !live.is_empty() {
            self.run_phase(&live);
            live.retain(|&id| self.slot(id).is_some_and(|slot| slot.running));
            for &id in &live {
                if let Some(mut guard) = self.slot(id) {
                    let slot = &mut *guard;
                    if let Err(failure) = slot.drive.wait(&mut slot.endpoint) {
                        raise(&failure);
                    }
                }
            }
        }
    }

    /// Distributes the given node indices over the worker deques in
    /// contiguous runs (locality for the common uncontended case) and
    /// runs one phase to completion: every index claimed exactly once,
    /// every claimed node stepped once, before this returns.
    fn run_phase(&self, ids: &[usize]) {
        let per_worker = ids.len().div_ceil(self.workers()).max(1);
        for (queue, chunk) in self.queues.iter().zip(ids.chunks(per_worker)) {
            lock(queue).extend(chunk.iter().copied());
        }
        if self.inline() {
            self.drain(0);
        } else {
            self.start.wait();
            self.done.wait();
        }
        if let Some(failure) = lock(&self.failed).take() {
            raise(&failure);
        }
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
            // step before reaching this barrier — so the phase is
            // complete when the barrier releases.
            self.done.wait();
        }
    }

    /// Claims and steps nodes until no work is left. A failure — a panic
    /// inside a node's compute (caught: the worker must survive to serve
    /// the phase barriers, or the whole run deadlocks) or an error its
    /// drive returned — is recorded for [`Self::run_phase`] to re-raise,
    /// and aborts this phase's remaining queue.
    fn drain(&self, w: usize) {
        while let Some(id) = self.claim(w) {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.step(id)));
            let failure = match outcome {
                Ok(Ok(())) => continue,
                Ok(Err(failure)) => failure,
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

    /// Steps node `id` once; its reports go to the fold.
    fn step(&self, id: usize) -> Result<(), String> {
        let Some(mut guard) = self.slot(id) else {
            return Ok(());
        };
        let slot = &mut *guard;
        let report = &mut |event| self.fold.report(id, event);
        slot.running = slot.drive.step(&mut slot.endpoint, report)?;
        if !slot.running {
            self.fold.done(id);
        }
        Ok(())
    }

    /// Claims the next node index: own deque front first, then steal from
    /// the other workers' backs.
    fn claim(&self, w: usize) -> Option<usize> {
        if let Some(id) = self.queues.get(w).and_then(|q| lock(q).pop_front()) {
            return Some(id);
        }
        (1..self.workers()).find_map(|offset| {
            let victim = (w + offset) % self.workers();
            self.queues.get(victim).and_then(|q| lock(q).pop_back())
        })
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
/// unwind (a re-raised failure), which would otherwise leave the workers
/// parked at the start barrier and turn the scope join into a deadlock.
/// [`WorkStealPool::shutdown`] is idempotent, so the normal exit path
/// needs no special casing.
struct ShutdownGuard<'p, 'f, 'a, M: Model, E: Endpoint>(&'p WorkStealPool<'f, 'a, M, E>);

impl<M: Model, E: Endpoint> Drop for ShutdownGuard<'_, '_, '_, M, E> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::ring;
    use crate::engine::TimeAxis;
    use crate::membership::MembershipPlan;
    use crate::node::Node;
    use crate::round::RoundContext;
    use crate::setup::founding_view;
    use rex_ml::{MfHyperParams, MfModel};
    use rex_net::mem::MemNetwork;
    use rex_net::transport::Transport;
    use rex_sim::trace::ExperimentTrace;

    /// Node `id`, whose epoch 0 panics (planted: its store refuses the
    /// rating outside its model's shape that once made training panic).
    fn panicking_node(id: usize) -> Node<MfModel> {
        let model = MfModel::new(3, 3, MfHyperParams::default(), 3.0, 1);
        Node::builder(id, model).panic_at(0).build()
    }

    /// Runs `fleet` for `epochs` on the pool over an in-memory fabric's
    /// endpoints, under `plan` when given.
    fn run_pool(
        fleet: &mut [Node<MfModel>],
        epochs: usize,
        workers: usize,
        plan: Option<MembershipPlan>,
    ) -> (ExperimentTrace, Vec<TrafficStats>) {
        let n = fleet.len();
        let mut views = vec![plan.map(|plan| founding_view(fleet, plan, None)); n];
        let fold = Fold::new("pool", TimeAxis::Wall, 0, n, epochs, None);
        let drives = fleet
            .iter_mut()
            .zip(&mut views)
            .zip(MemNetwork::new(n).into_endpoints())
            .map(|((node, view), endpoint)| {
                let ctx = RoundContext {
                    faults: None,
                    view: view.as_mut(),
                    tee: None,
                    audit: None,
                    serve: None,
                };
                (Drive::new(node, 0..epochs, ctx, None), endpoint)
            })
            .collect();
        let stats = run(drives, workers, &fold);
        (fold.finish(), stats)
    }

    /// What must not depend on the worker count: per epoch, the RMSE and
    /// byte bits, liveness and the commitment root; and the final counters.
    fn outputs(run: &(ExperimentTrace, Vec<TrafficStats>)) -> (Vec<String>, Vec<TrafficStats>) {
        let records = run
            .0
            .records
            .iter()
            .map(|r| {
                format!(
                    "{} {:x} {:x} {} {:?}",
                    r.epoch,
                    r.rmse.to_bits(),
                    r.bytes_per_node.to_bits(),
                    r.live_nodes,
                    r.commitment_root
                )
            })
            .collect();
        (records, run.1.clone())
    }

    /// Any worker count must produce exactly the outputs of one worker,
    /// which steps every node in node order on the driver thread.
    #[test]
    fn phase_outputs_match_sequential_for_any_worker_count() {
        let n = 7;
        let sequential = outputs(&run_pool(&mut ring(n), 4, 1, None));
        assert_eq!(sequential.0.len(), 4);
        assert!(sequential.1.iter().all(|s| s.msgs_out > 0));
        for workers in [2, 3, 8] {
            let got = outputs(&run_pool(&mut ring(n), 4, workers, None));
            assert_eq!(got, sequential, "workers={workers}");
        }
    }

    /// A panic inside a node's compute must surface on the driver thread
    /// as a panic naming the node — never as a barrier deadlock — inline
    /// or on workers.
    #[test]
    fn worker_panic_is_reraised_by_the_driver_not_deadlocked() {
        let n = 4;
        for workers in [1, 2] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut fleet = ring(n);
                fleet[2] = panicking_node(2);
                run_pool(&mut fleet, 3, workers, None);
            }))
            .expect_err("a panicking epoch must fail the run");
            let msg = panic_message(caught.as_ref());
            assert!(
                msg.contains("node 2 epoch panicked"),
                "workers={workers}: unexpected panic message: {msg}"
            );
        }
    }

    /// A node that left is stepped no more: it reports no epoch from its
    /// leave on and sends nothing after it (its counters are those of a
    /// run that ended there), and the fleet stays in node order.
    #[test]
    fn skipped_nodes_have_no_output_and_fleet_returns_in_order() {
        let n = 5;
        let plan = MembershipPlan::default().with_leave(1, 2);
        let mut fleet = ring(n);
        let (trace, stats) = run_pool(&mut fleet, 4, 2, Some(plan));
        let live: Vec<usize> = trace.records.iter().map(|r| r.live_nodes).collect();
        assert_eq!(live, [n, n, n - 1, n - 1]);
        let (_, until_leave) = run_pool(&mut ring(n), 2, 2, None);
        assert_eq!(stats[1], until_leave[1]);
        assert!(stats[0].msgs_out > until_leave[0].msgs_out);
        for (i, node) in fleet.iter().enumerate() {
            assert_eq!(node.id(), i);
        }
    }
}
