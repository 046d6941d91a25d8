//! The in-memory fabric: reliable, ordered, with exact byte accounting.
//!
//! [`MemNetwork`] is the [`Fabric`] over the in-memory endpoints of
//! [`crate::channel`]. Unsplit, one owner drives all of them from one
//! thread in deterministic node order (TEE setup);
//! [`Transport::into_endpoints`](crate::transport::Transport::into_endpoints)
//! hands the same endpoints to one thread each. An endpoint *is* its
//! node's mailbox, so a split mid-run (after TEE setup) moves, loses and
//! recounts nothing.

// Every in-process deployment runs this module: it fails with an error
// its caller can report, never with a panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use crate::channel::{channel_network, ChannelEndpoint};
use crate::transport::Fabric;

/// A delivered message.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender node id.
    pub from: usize,
    /// Raw payload bytes.
    pub bytes: Vec<u8>,
}

/// The in-memory fabric over `n` nodes.
pub type MemNetwork = Fabric<ChannelEndpoint>;

impl MemNetwork {
    /// Creates a network with `n` empty mailboxes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Fabric::from_endpoints(channel_network(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TrafficStats;
    use crate::transport::{Endpoint, Transport};

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
