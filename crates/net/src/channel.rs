//! The in-memory endpoint: one node's mailbox on a fabric that lives in
//! one process (the simulator, and the 8-node SGX deployment of Figs 6–7
//! with each node on its own OS thread).
//!
//! [`crate::mem::MemNetwork`] is the [`crate::transport::Fabric`] over
//! these endpoints. The `n` endpoints of one fabric share one allocation
//! — the `n` mailboxes and one barrier — so a fabric holds `n` handles,
//! never `n × n` senders (the 610-node simulator fleet). A send lands in
//! the destination's mailbox at once and is counted at both ends;
//! [`Endpoint::recv`] drains the own mailbox and [`Endpoint::recv_wait`]
//! blocks on it.
//!
//! The barrier is split like the round: [`Endpoint::arrive`] counts
//! this endpoint in, and [`Endpoint::wait`] blocks until every endpoint
//! still in the view has arrived. So one owner can drive all `n`
//! endpoints (arrive on each, then wait on each) and `n` threads can
//! each drive one. [`Endpoint::view_sync`] retires the nodes that left;
//! the barrier fails — instead of hanging — once an endpoint is dropped
//! that was never retired.

// Every in-process deployment runs this module: it fails with an error
// its caller can report, never with a panic (a self-send or an unknown
// destination is a protocol bug, and asserted as one).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use crate::mem::Envelope;
use crate::stats::TrafficStats;
use crate::transport::{canonicalize, BarrierKind, Endpoint, TransportError};
use std::cell::Cell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks `m`. Every update here leaves its state valid, so a thread
/// that panicked elsewhere must not poison the survivors' view of it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One node's mailbox.
#[derive(Debug, Default)]
struct Mailbox {
    inbox: Mutex<Inbox>,
    /// Signalled on a delivery while the owner blocks in `recv_wait`.
    delivered: Condvar,
}

#[derive(Debug, Default)]
struct Inbox {
    queue: Vec<Envelope>,
    /// What was delivered here: the `_in` half of the node's counters.
    received: TrafficStats,
    /// The owner blocks in `recv_wait`: only then does a send pay for a
    /// wake-up.
    waiting: bool,
}

#[derive(Debug)]
struct BarrierState {
    /// Per node: left the view, so the barrier no longer waits for it.
    retired: Vec<bool>,
    /// Endpoints the barrier waits for: every one not retired.
    members: usize,
    arrived: usize,
    /// Barriers completed so far.
    generation: u64,
    /// Endpoints dropped while still in the view, in drop order: each
    /// fails every barrier it misses.
    lost: Vec<usize>,
}

impl BarrierState {
    /// Completes the barrier once every member arrived; returns whether
    /// it did.
    fn try_complete(&mut self) -> bool {
        if self.arrived == 0 || self.arrived < self.members {
            return false;
        }
        self.arrived = 0;
        self.generation += 1;
        true
    }
}

/// What the endpoints of one fabric share.
#[derive(Debug)]
struct Shared {
    mailboxes: Vec<Arc<Mailbox>>,
    barrier: Mutex<BarrierState>,
    released: Condvar,
}

/// One node's in-memory endpoint. See the module docs.
#[derive(Debug)]
pub struct ChannelEndpoint {
    id: usize,
    own: Arc<Mailbox>,
    fabric: Arc<Shared>,
    /// The barrier generation this endpoint last arrived in.
    arrived_in: u64,
    /// The `_out` half of the node's counters: only the owner sends.
    sent: Cell<TrafficStats>,
}

impl Drop for ChannelEndpoint {
    fn drop(&mut self) {
        let mut state = lock(&self.fabric.barrier);
        if state.retired.get(self.id) == Some(&false) {
            state.lost.push(self.id);
        }
        drop(state);
        self.fabric.released.notify_all();
    }
}

impl ChannelEndpoint {
    /// Sends `bytes` to node `to`: into its mailbox at once, counted at
    /// both ends.
    ///
    /// # Panics
    /// On self-send or unknown destination (protocol bugs).
    pub fn send(&self, to: usize, bytes: Vec<u8>) {
        assert_ne!(to, self.id, "self-send");
        let dest = self.fabric.mailboxes.get(to);
        assert!(dest.is_some(), "bad node id");
        let mut sent = self.sent.get();
        sent.record_send(bytes.len());
        self.sent.set(sent);
        if let Some(dest) = dest {
            let mut inbox = lock(&dest.inbox);
            inbox.received.record_recv(bytes.len());
            inbox.queue.push(Envelope {
                from: self.id,
                bytes,
            });
            if inbox.waiting {
                dest.delivered.notify_one();
            }
        }
    }

    /// Drains everything queued, in arrival order, without blocking. The
    /// mailbox keeps its capacity for the next round.
    pub fn try_drain(&self) -> Vec<Envelope> {
        lock(&self.own.inbox).queue.drain(..).collect()
    }
}

impl Endpoint for ChannelEndpoint {
    fn id(&self) -> usize {
        self.id
    }

    fn num_nodes(&self) -> usize {
        self.fabric.mailboxes.len()
    }

    fn send(&mut self, to: usize, bytes: Vec<u8>) {
        ChannelEndpoint::send(self, to, bytes);
    }

    fn recv(&mut self) -> Vec<Envelope> {
        let mut inbox = self.try_drain();
        canonicalize(&mut inbox);
        inbox
    }

    fn recv_wait(&mut self, timeout: Duration) -> Vec<Envelope> {
        let deadline = Instant::now() + timeout;
        let mut inbox = lock(&self.own.inbox);
        while inbox.queue.is_empty() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            inbox.waiting = true;
            inbox = self
                .own
                .delivered
                .wait_timeout(inbox, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        inbox.waiting = false;
        let mut got: Vec<Envelope> = inbox.queue.drain(..).collect();
        drop(inbox);
        canonicalize(&mut got);
        got
    }

    fn arrive(&mut self, _kind: BarrierKind) {
        // Sends are in their mailbox as soon as they return, so counting
        // in is all an arrive has to do.
        let mut state = lock(&self.fabric.barrier);
        self.arrived_in = state.generation;
        state.arrived += 1;
        if state.try_complete() {
            drop(state);
            self.fabric.released.notify_all();
        }
    }

    fn wait(&mut self, _kind: BarrierKind) -> Result<(), TransportError> {
        let mut state = lock(&self.fabric.barrier);
        loop {
            // A completed barrier wins over a later drop: peers that stop
            // right after it are not a failure.
            if state.generation != self.arrived_in {
                return Ok(());
            }
            if let Some(&peer) = state.lost.first() {
                return Err(TransportError::PeerLost {
                    peer,
                    detail: "endpoint dropped before the round barrier".to_string(),
                });
            }
            state = self
                .fabric
                .released
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn view_sync(
        &mut self,
        _epoch: usize,
        _joined: &[usize],
        left: &[usize],
    ) -> Result<(), TransportError> {
        // Every endpoint in the view retires the same leavers before its
        // next barrier; the first to do so does it for all.
        let mut guard = lock(&self.fabric.barrier);
        let state = &mut *guard;
        for &node in left {
            if let Some(retired @ false) = state.retired.get_mut(node) {
                *retired = true;
                state.members -= 1;
            }
        }
        state.lost.retain(|peer| !left.contains(peer));
        if state.try_complete() {
            drop(guard);
            self.fabric.released.notify_all();
        }
        Ok(())
    }

    fn stats(&self) -> TrafficStats {
        let received = lock(&self.own.inbox).received;
        TrafficStats {
            bytes_in: received.bytes_in,
            msgs_in: received.msgs_in,
            ..self.sent.get()
        }
    }
}

/// Builds the `n` endpoints of one in-memory fabric, in node order.
pub(crate) fn channel_network(n: usize) -> Vec<ChannelEndpoint> {
    let fabric = Arc::new(Shared {
        mailboxes: (0..n).map(|_| Arc::new(Mailbox::default())).collect(),
        barrier: Mutex::new(BarrierState {
            retired: vec![false; n],
            members: n,
            arrived: 0,
            generation: 0,
            lost: Vec::new(),
        }),
        released: Condvar::new(),
    });
    fabric
        .mailboxes
        .iter()
        .enumerate()
        .map(|(id, own)| ChannelEndpoint {
            id,
            own: Arc::clone(own),
            fabric: Arc::clone(&fabric),
            arrived_in: 0,
            sent: Cell::default(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_thread_delivery() {
        let mut eps = channel_network(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let handle = std::thread::spawn(move || {
            b.try_sync().unwrap();
            let inbox = b.try_drain();
            assert_eq!(inbox.len(), 1);
            assert_eq!(inbox[0].from, 0);
            b.send(0, vec![9, 9]);
            b.try_sync().unwrap();
            b.stats()
        });
        a.send(1, vec![1, 2, 3]);
        a.try_sync().unwrap();
        a.try_sync().unwrap();
        let reply = a.try_drain();
        assert_eq!(reply.len(), 1);
        assert_eq!(reply[0].bytes, vec![9, 9]);
        let b_stats = handle.join().unwrap();
        assert_eq!(b_stats.bytes_in, 3);
        assert_eq!(b_stats.bytes_out, 2);
        assert_eq!(a.stats().bytes_out, 3);
        assert_eq!(a.stats().bytes_in, 2);
    }

    #[test]
    fn try_drain_nonblocking() {
        let mut eps = channel_network(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert!(c.try_drain().is_empty());
        a.send(2, vec![1]);
        b.send(2, vec![2]);
        // Give the unbounded channel a moment (same thread: already there).
        let msgs = c.try_drain();
        assert_eq!(msgs.len(), 2);
    }

    #[test]
    fn dropped_endpoint_fails_the_barrier_instead_of_hanging_it() {
        let handles: Vec<_> = channel_network(3)
            .into_iter()
            .map(|mut ep| {
                std::thread::spawn(move || {
                    ep.try_sync().unwrap();
                    if ep.id() == 2 {
                        // Dies mid-round: never reaches the second barrier.
                        return None;
                    }
                    Some(ep.try_sync())
                })
            })
            .collect();
        for handle in handles {
            if let Some(outcome) = handle.join().unwrap() {
                assert!(
                    matches!(outcome, Err(TransportError::PeerLost { peer: 2, .. })),
                    "{outcome:?}"
                );
            }
        }
    }

    /// A node that leaves stops at an epoch boundary and drops its
    /// endpoint, here before its peers retire it (the gate holds them
    /// until the drop): the survivors' barriers go on without it.
    #[test]
    fn a_retired_endpoint_may_drop_without_failing_the_barrier() {
        let gate = std::sync::Arc::new(std::sync::Barrier::new(3));
        let handles: Vec<_> = channel_network(3)
            .into_iter()
            .map(|mut ep| {
                let gate = std::sync::Arc::clone(&gate);
                std::thread::spawn(move || {
                    ep.try_sync().unwrap();
                    if ep.id() == 2 {
                        drop(ep);
                        gate.wait();
                        return Ok(());
                    }
                    gate.wait();
                    ep.view_sync(1, &[], &[2])?;
                    ep.try_sync()?;
                    ep.try_sync()
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap().unwrap();
        }
    }

    /// The bounded-staleness loop's arrival hook: empty once its timeout
    /// passes, and woken by a send from another thread.
    #[test]
    fn recv_wait_blocks_until_delivery() {
        let mut eps = channel_network(2);
        let mut b = eps.pop().unwrap();
        let a = eps.pop().unwrap();

        let start = Instant::now();
        assert!(b.recv_wait(Duration::from_millis(20)).is_empty());
        assert!(start.elapsed() >= Duration::from_millis(20));

        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            a.send(1, vec![7]);
            a
        });
        let inbox = b.recv_wait(Duration::from_secs(10));
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].bytes, vec![7]);
        drop(sender.join().unwrap());
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_panics() {
        let eps = channel_network(1);
        eps[0].send(0, vec![]);
    }
}
