//! The channel endpoints an in-memory fabric splits into for the
//! engine's real-thread deployment (the 8-node SGX deployment of Figs
//! 6–7 runs each node on its own OS thread).
//!
//! A split [`crate::mem::MemNetwork`] hands each node a
//! [`ChannelEndpoint`]: a fully connected set of unbounded channels,
//! shared atomic counters, and one round barrier that fails — instead
//! of hanging — once a peer's endpoint is dropped.

use crate::mem::Envelope;
use crate::stats::TrafficStats;
use crate::transport::{canonicalize, BarrierKind, Endpoint, TransportError};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Shared atomic traffic counters for one node.
#[derive(Debug, Default)]
pub struct AtomicStats {
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
    msgs_out: AtomicU64,
    msgs_in: AtomicU64,
}

impl AtomicStats {
    /// Records an outgoing message of `bytes` payload bytes.
    pub fn record_send(&self, bytes: u64) {
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
        self.msgs_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an incoming message of `bytes` payload bytes.
    pub fn record_recv(&self, bytes: u64) {
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
        self.msgs_in.fetch_add(1, Ordering::Relaxed);
    }

    /// Overwrites the counters with `stats`.
    fn store(&self, stats: TrafficStats) {
        self.bytes_out.store(stats.bytes_out, Ordering::Relaxed);
        self.bytes_in.store(stats.bytes_in, Ordering::Relaxed);
        self.msgs_out.store(stats.msgs_out, Ordering::Relaxed);
        self.msgs_in.store(stats.msgs_in, Ordering::Relaxed);
    }

    /// Snapshot into a plain [`TrafficStats`].
    #[must_use]
    pub fn snapshot(&self) -> TrafficStats {
        TrafficStats {
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            msgs_out: self.msgs_out.load(Ordering::Relaxed),
            msgs_in: self.msgs_in.load(Ordering::Relaxed),
        }
    }
}

/// The fabric's round barrier: a reusable rendezvous of all `n`
/// endpoints that, unlike `std::sync::Barrier`, releases its waiters with
/// an error once an endpoint has been dropped — a node thread that died
/// mid-round fails the run instead of hanging it.
#[derive(Debug, Default)]
struct RoundBarrier {
    state: Mutex<RoundState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct RoundState {
    arrived: usize,
    generation: u64,
    /// The first endpoint dropped, if any.
    lost: Option<usize>,
}

impl RoundBarrier {
    fn lock(&self) -> std::sync::MutexGuard<'_, RoundState> {
        // Every update leaves the counters valid, so a waiter that
        // panicked elsewhere must not poison the survivors' barrier.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait(&self, n: usize) -> Result<(), TransportError> {
        let lost = |peer| TransportError::PeerLost {
            peer,
            detail: "endpoint dropped before the round barrier".to_string(),
        };
        let mut state = self.lock();
        if let Some(peer) = state.lost {
            return Err(lost(peer));
        }
        state.arrived += 1;
        if state.arrived == n {
            state.arrived = 0;
            state.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let generation = state.generation;
        loop {
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
            // A completed round wins over a later drop: peers that leave
            // right after the final barrier are not a failure.
            if state.generation != generation {
                return Ok(());
            }
            if let Some(peer) = state.lost {
                return Err(lost(peer));
            }
        }
    }
}

/// One node's endpoint: senders to every peer plus its own receiver.
pub struct ChannelEndpoint {
    id: usize,
    senders: Vec<Option<Sender<Envelope>>>,
    receiver: Receiver<Envelope>,
    stats: Vec<Arc<AtomicStats>>,
    barrier: Arc<RoundBarrier>,
}

impl Drop for ChannelEndpoint {
    fn drop(&mut self) {
        self.barrier.lock().lost.get_or_insert(self.id);
        self.barrier.cv.notify_all();
    }
}

impl ChannelEndpoint {
    /// This endpoint's node id.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Sends `bytes` to node `to`.
    ///
    /// # Panics
    /// On self-send or unknown destination.
    pub fn send(&self, to: usize, bytes: Vec<u8>) {
        assert_ne!(to, self.id, "self-send");
        let size = bytes.len() as u64;
        self.stats[self.id].record_send(size);
        self.stats[to].record_recv(size);
        self.forward(
            to,
            Envelope {
                from: self.id,
                bytes,
            },
        );
    }

    /// Puts `env` in node `to`'s channel without counting it: the send
    /// path once it has counted, and a splitting fabric moving what it
    /// already counted.
    pub(crate) fn forward(&self, to: usize, env: Envelope) {
        if let Some(sender) = &self.senders[to] {
            // Receiver dropped = peer finished; losing the message is
            // fine for the epoch-bounded experiments.
            let _ = sender.send(env);
        }
    }

    /// Carries a splitting fabric's counters for this node over.
    pub(crate) fn carry_stats(&self, stats: TrafficStats) {
        self.stats[self.id].store(stats);
    }

    /// Drains everything currently queued without blocking.
    pub fn try_drain(&self) -> Vec<Envelope> {
        let mut out = Vec::new();
        while let Ok(env) = self.receiver.try_recv() {
            out.push(env);
        }
        out
    }

    /// Snapshot of this node's traffic stats.
    #[must_use]
    pub fn stats(&self) -> TrafficStats {
        self.stats[self.id].snapshot()
    }
}

impl Endpoint for ChannelEndpoint {
    fn id(&self) -> usize {
        ChannelEndpoint::id(self)
    }

    fn num_nodes(&self) -> usize {
        self.senders.len()
    }

    fn send(&mut self, to: usize, bytes: Vec<u8>) {
        ChannelEndpoint::send(self, to, bytes);
    }

    fn recv(&mut self) -> Vec<Envelope> {
        let mut inbox = self.try_drain();
        canonicalize(&mut inbox);
        inbox
    }

    fn wait(&mut self, _kind: BarrierKind) -> Result<(), TransportError> {
        // Channel sends are visible as soon as they return, so arriving
        // is a no-op and the rendezvous alone makes every pre-arrival
        // send receivable.
        self.barrier.wait(self.senders.len())
    }

    fn stats(&self) -> TrafficStats {
        ChannelEndpoint::stats(self)
    }
}

/// Builds a fully connected channel network over `n` nodes; returns one
/// endpoint per node (move each into its thread).
pub(crate) fn channel_network(n: usize) -> Vec<ChannelEndpoint> {
    let stats: Vec<Arc<AtomicStats>> = (0..n).map(|_| Arc::new(AtomicStats::default())).collect();
    let barrier = Arc::new(RoundBarrier::default());
    let mut senders: Vec<Sender<Envelope>> = Vec::with_capacity(n);
    let mut receivers: Vec<Receiver<Envelope>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    receivers
        .into_iter()
        .enumerate()
        .map(|(id, receiver)| ChannelEndpoint {
            id,
            senders: senders
                .iter()
                .enumerate()
                .map(|(peer, tx)| if peer == id { None } else { Some(tx.clone()) })
                .collect(),
            receiver,
            stats: stats.clone(),
            barrier: Arc::clone(&barrier),
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

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_panics() {
        let eps = channel_network(1);
        eps[0].send(0, vec![]);
    }
}
