//! The in-memory fabric: reliable, ordered, with exact byte accounting.
//!
//! [`MemNetwork`] implements [`Transport`] in two shapes. Unsplit, it is
//! a single-owner mailbox network — plain `VecDeque`s and counters — that
//! the engine's fabric scheduler drains, runs and feeds in deterministic node
//! order (the simulator, the centralized baseline, TEE setup).
//! [`Transport::into_endpoints`] splits it into the channel endpoints of
//! [`crate::channel`], one per node thread: every queued envelope moves
//! into its destination's channel and every node's counters carry over,
//! so a split mid-run (after TEE setup) loses and recounts nothing. The
//! channels are built at split time and only then: a fabric that never
//! splits (the 610-node simulator fleet) holds no `n × n` sender handles.

use crate::channel::{channel_network, ChannelEndpoint};
use crate::stats::TrafficStats;
use crate::transport::{canonicalize, Transport};
use std::collections::VecDeque;

/// A delivered message.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender node id.
    pub from: usize,
    /// Raw payload bytes.
    pub bytes: Vec<u8>,
}

/// Mailbox network over `n` nodes.
#[derive(Debug, Default)]
pub struct MemNetwork {
    inboxes: Vec<VecDeque<Envelope>>,
    stats: Vec<TrafficStats>,
}

impl MemNetwork {
    /// Creates a network with `n` empty mailboxes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        MemNetwork {
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            stats: vec![TrafficStats::new(); n],
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inboxes.len()
    }

    /// Whether the network has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inboxes.is_empty()
    }

    /// Sends `bytes` from `from` to `to`; returns the message size.
    ///
    /// # Panics
    /// On out-of-range node ids or self-sends (protocol bugs).
    pub fn send(&mut self, from: usize, to: usize, bytes: Vec<u8>) -> usize {
        assert!(from < self.len() && to < self.len(), "bad node id");
        assert_ne!(from, to, "self-send");
        let size = bytes.len();
        self.stats[from].record_send(size);
        self.stats[to].record_recv(size);
        self.inboxes[to].push_back(Envelope { from, bytes });
        size
    }

    /// Cumulative stats of `node`.
    #[must_use]
    pub fn stats(&self, node: usize) -> &TrafficStats {
        &self.stats[node]
    }

    /// Snapshot of all node stats.
    #[must_use]
    pub fn all_stats(&self) -> Vec<TrafficStats> {
        self.stats.clone()
    }
}

impl Transport for MemNetwork {
    type Endpoint = ChannelEndpoint;

    fn num_nodes(&self) -> usize {
        self.len()
    }

    fn send(&mut self, from: usize, to: usize, bytes: Vec<u8>) {
        MemNetwork::send(self, from, to, bytes);
    }

    fn recv(&mut self, node: usize) -> Vec<Envelope> {
        let mut inbox: Vec<Envelope> = self.inboxes[node].drain(..).collect();
        canonicalize(&mut inbox);
        inbox
    }

    fn flush(&mut self) {
        // Sends land in the destination mailbox immediately.
    }

    fn stats(&self, node: usize) -> TrafficStats {
        *MemNetwork::stats(self, node)
    }

    fn all_stats(&self) -> Vec<TrafficStats> {
        MemNetwork::all_stats(self)
    }

    fn into_endpoints(self) -> Vec<ChannelEndpoint> {
        let endpoints = channel_network(self.len());
        for (to, inbox) in self.inboxes.into_iter().enumerate() {
            for env in inbox {
                endpoints[env.from].forward(to, env);
            }
        }
        for (endpoint, stats) in endpoints.iter().zip(self.stats) {
            endpoint.carry_stats(stats);
        }
        endpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Endpoint;

    /// `(sender, bytes)` of an inbox, for comparisons.
    fn contents(inbox: &[Envelope]) -> Vec<(usize, Vec<u8>)> {
        inbox.iter().map(|e| (e.from, e.bytes.clone())).collect()
    }

    #[test]
    fn send_and_drain_ordered() {
        let mut net = MemNetwork::new(3);
        net.send(1, 2, vec![2, 2]);
        net.send(0, 2, vec![1]);
        net.send(0, 2, vec![3, 3, 3]);
        let want = vec![(0, vec![1]), (0, vec![3, 3, 3]), (1, vec![2, 2])];
        assert_eq!(contents(&Transport::recv(&mut net, 2)), want);
        assert!(Transport::recv(&mut net, 2).is_empty());
    }

    #[test]
    fn stats_account_both_ends() {
        let mut net = MemNetwork::new(2);
        net.send(0, 1, vec![0; 100]);
        assert_eq!(net.stats(0).bytes_out, 100);
        assert_eq!(net.stats(0).bytes_in, 0);
        assert_eq!(net.stats(1).bytes_in, 100);
    }

    /// A split right after setup traffic behaves as if the endpoints had
    /// carried that traffic: queued messages arrive in canonical order
    /// and the counters are neither lost nor counted twice.
    #[test]
    fn split_moves_queued_messages_and_counters() {
        let mut net = MemNetwork::new(3);
        net.send(2, 0, vec![5]);
        net.send(1, 0, vec![4, 4]);
        net.send(2, 0, vec![6]);
        net.send(0, 1, vec![7; 3]);
        let before = net.all_stats();
        let mut eps = net.into_endpoints();
        assert_eq!(eps.len(), 3);
        let after: Vec<TrafficStats> = eps.iter().map(Endpoint::stats).collect();
        assert_eq!(after, before);
        let want = vec![(1, vec![4, 4]), (2, vec![5]), (2, vec![6])];
        assert_eq!(contents(&eps[0].recv()), want);
        assert_eq!(contents(&eps[1].recv()), vec![(0, vec![7; 3])]);
        assert!(eps[2].recv().is_empty());
        // Traffic after the split counts on top of the carried counters.
        Endpoint::send(&mut eps[1], 2, vec![0; 10]);
        assert_eq!(Endpoint::stats(&eps[1]).bytes_out, before[1].bytes_out + 10);
        assert_eq!(Endpoint::stats(&eps[2]).msgs_in, 1);
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_is_a_bug() {
        let mut net = MemNetwork::new(2);
        net.send(1, 1, vec![]);
    }

    #[test]
    #[should_panic(expected = "bad node id")]
    fn bad_id_is_a_bug() {
        let mut net = MemNetwork::new(2);
        net.send(0, 5, vec![]);
    }
}
