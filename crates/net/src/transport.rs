//! The backend-agnostic transport abstraction behind the REX engine.
//!
//! The paper runs one protocol (Algorithm 2) over three deployments: a
//! discrete-event simulator, a real-thread 8-node SGX testbed, and a
//! centralized baseline. A fabric is its endpoints:
//!
//! * [`Endpoint`] — one node's handle: send, drain, and a barrier split
//!   into [`Endpoint::arrive`] and [`Endpoint::wait`]. It moves onto the
//!   node's own OS thread (or process), and every backend implements it:
//!   [`crate::channel::ChannelEndpoint`] (in-memory mailboxes),
//!   [`crate::tcp::TcpEndpoint`] (real sockets with the framing of
//!   [`crate::frame`]) and [`crate::fault::FaultyEndpoint`] (a seeded
//!   fault schedule over either, which fills in the per-epoch delivery
//!   counters of [`Endpoint::take_delivery`]).
//! * [`Fabric`] — the one [`Transport`]: `n` endpoints in node order,
//!   driven by one owner (TEE setup, single-owner tests). Each fabric
//!   call goes to the endpoints: `send(from, to)` is endpoint `from`'s
//!   send, `flush` is an arrive on every endpoint and then a wait on
//!   every endpoint. [`crate::mem::MemNetwork`] and
//!   [`crate::tcp::TcpTransport`] name its shapes, and
//!   [`Transport::into_endpoints`] hands the same endpoints to one thread
//!   each (the engine wraps them under its fault plan there).
//!
//! Since the single-owner view and the threads run the same endpoint
//! code, every backend — wrapped or not, split or not — runs the same
//! protocol bit-identically.

use crate::mem::Envelope;
use crate::stats::{DeliveryStats, TrafficStats};

/// A transport-level failure surfaced to the caller instead of
/// panicking the process: the deployed `rex-node` loop turns these into
/// clean process exits (and, for recoverable membership operations, into
/// retries), while the in-process engine — where a dead peer means the
/// experiment is unsalvageable — still converts them into panics at the
/// call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A peer's connection closed (or broke) while the protocol still
    /// needed it.
    PeerLost {
        /// The peer whose connection died.
        peer: usize,
        /// What the transport knows about the failure.
        detail: String,
    },
    /// A peer violated the wire protocol (malformed frame, bogus hello
    /// or join, wrong epoch).
    Protocol {
        /// The offending peer — [`TransportError::UNIDENTIFIED_PEER`]
        /// when the connection never identified itself (the `detail`
        /// then carries its remote address).
        peer: usize,
        /// What it sent.
        detail: String,
    },
    /// A blocking operation exceeded its deadline.
    Timeout {
        /// What was being waited for.
        what: String,
    },
    /// A local socket-level failure.
    Io {
        /// The underlying error, stringified.
        detail: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerLost { peer, detail } => {
                write!(f, "peer {peer} lost: {detail}")
            }
            TransportError::Protocol { peer, detail } if *peer == Self::UNIDENTIFIED_PEER => {
                write!(f, "unidentified peer protocol violation: {detail}")
            }
            TransportError::Protocol { peer, detail } => {
                write!(f, "peer {peer} protocol violation: {detail}")
            }
            TransportError::Timeout { what } => write!(f, "timed out waiting for {what}"),
            TransportError::Io { detail } => write!(f, "transport io: {detail}"),
        }
    }
}

impl TransportError {
    /// Sentinel `peer` value for protocol violations on a connection
    /// that never completed identification (no hello/join accepted).
    pub const UNIDENTIFIED_PEER: usize = usize::MAX;
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io {
            detail: e.to_string(),
        }
    }
}

/// One peer's received per-epoch commitment — a decoded
/// `Frame::Commitment`: the chained model digest the peer claims after
/// `epoch`, with the HMAC tag binding it to the peer's identity.
/// Collected by endpoints with a commitment channel (TCP) and drained
/// through [`Endpoint::take_commitments`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerCommitment {
    /// The committing peer's node id (connection-attributed, like data
    /// frames — a frame cannot re-attribute itself).
    pub from: usize,
    /// The epoch the commitment covers.
    pub epoch: u64,
    /// The peer's chained model digest after that epoch.
    pub digest: [u8; 32],
    /// HMAC tag binding the digest to the peer's identity.
    pub tag: [u8; 32],
}

/// A message fabric connecting `n` nodes, viewed from a single owner.
/// [`Fabric`] is its one implementation; the trait is the bound the
/// engine and the experiment binaries are generic over.
///
/// # Delivery contract
/// * `send` is accounted in the sender's [`TrafficStats`] at send time.
/// * `recv` drains everything delivered to a node, in **canonical order**:
///   ascending sender id, FIFO within one sender (see [`canonicalize`]).
///   Canonical order is what makes runs bit-reproducible across backends —
///   the cross-backend equivalence test relies on it.
/// * `flush` is the round barrier: once it returns, every prior send is
///   in its destination mailbox (and what a fault layer held for this
///   round is released).
pub trait Transport {
    /// Per-node handle type for thread-per-node drivers.
    type Endpoint: Endpoint + 'static;

    /// Number of attached nodes.
    fn num_nodes(&self) -> usize;

    /// Sends `bytes` from node `from` to node `to`.
    fn send(&mut self, from: usize, to: usize, bytes: Vec<u8>);

    /// Drains every message delivered to `node`, in canonical order.
    fn recv(&mut self, node: usize) -> Vec<Envelope>;

    /// Makes all prior sends visible to subsequent `recv` calls.
    fn flush(&mut self);

    /// Marks the start of protocol epoch `epoch`. The engine calls this
    /// before draining any inbox of the epoch; sends made before the
    /// first `epoch_begin` belong to the setup phase.
    fn epoch_begin(&mut self, epoch: usize);

    /// Brings every endpoint's view up to a membership change (see
    /// [`Endpoint::view_sync`]), then stops driving the endpoints of the
    /// nodes that `left`, as a leaving process stops. The engine calls
    /// this before applying the transition.
    fn view_sync(&mut self, epoch: usize, joined: &[usize], left: &[usize]);

    /// Drains the delivery counters accumulated since the last call
    /// (delivered/dropped/late/duplicated message counts).
    fn take_delivery(&mut self) -> DeliveryStats;

    /// Cumulative traffic counters of `node`.
    fn stats(&self, node: usize) -> TrafficStats;

    /// Snapshot of every node's traffic counters.
    fn all_stats(&self) -> Vec<TrafficStats>;

    /// Splits the fabric into its endpoints, in node order, each safe to
    /// move to its own thread. What the fabric view sent and counted
    /// before the split (TEE setup) stays with them.
    fn into_endpoints(self) -> Vec<Self::Endpoint>;
}

/// The one [`Transport`]: `n` endpoints in node order. See the module
/// docs.
pub struct Fabric<E> {
    /// Crate-visible so backend tests can reach an endpoint's own
    /// counters (wire bytes, syscalls).
    pub(crate) endpoints: Vec<E>,
    /// Nodes that left the membership view: their endpoints are no
    /// longer driven.
    left: Vec<bool>,
}

impl<E: Endpoint> Fabric<E> {
    /// The fabric over `endpoints`, which must be in node order.
    #[must_use]
    pub fn from_endpoints(endpoints: Vec<E>) -> Self {
        debug_assert!(endpoints.iter().enumerate().all(|(id, e)| e.id() == id));
        let left = vec![false; endpoints.len()];
        Fabric { endpoints, left }
    }

    /// The endpoints still driven, in node order.
    fn driven(&mut self) -> impl Iterator<Item = &mut E> {
        self.endpoints
            .iter_mut()
            .zip(&self.left)
            .filter_map(|(ep, &left)| (!left).then_some(ep))
    }
}

impl<E: Endpoint + 'static> Transport for Fabric<E> {
    type Endpoint = E;

    fn num_nodes(&self) -> usize {
        self.endpoints.len()
    }

    fn send(&mut self, from: usize, to: usize, bytes: Vec<u8>) {
        self.endpoints[from].send(to, bytes);
    }

    fn recv(&mut self, node: usize) -> Vec<Envelope> {
        self.endpoints[node].recv()
    }

    fn flush(&mut self) {
        // Everyone arrives before anyone waits: one thread drives every
        // endpoint, so waiting on one before the others arrived would
        // wait forever.
        for ep in self.driven() {
            ep.arrive(BarrierKind::Round);
        }
        for ep in self.driven() {
            let id = ep.id();
            ep.wait(BarrierKind::Round)
                .unwrap_or_else(|e| panic!("node {id}: barrier failed: {e}"));
        }
    }

    fn epoch_begin(&mut self, epoch: usize) {
        for ep in self.driven() {
            ep.epoch_begin(epoch);
        }
    }

    fn view_sync(&mut self, epoch: usize, joined: &[usize], left: &[usize]) {
        for ep in self.driven() {
            let id = ep.id();
            ep.view_sync(epoch, joined, left)
                .unwrap_or_else(|e| panic!("node {id}: view sync failed: {e}"));
        }
        for &node in left {
            self.left[node] = true;
        }
    }

    fn take_delivery(&mut self) -> DeliveryStats {
        let mut total = DeliveryStats::default();
        for ep in self.driven() {
            total.absorb(&ep.take_delivery());
        }
        total
    }

    fn stats(&self, node: usize) -> TrafficStats {
        self.endpoints[node].stats()
    }

    fn all_stats(&self) -> Vec<TrafficStats> {
        self.endpoints.iter().map(Endpoint::stats).collect()
    }

    fn into_endpoints(self) -> Vec<E> {
        self.endpoints
    }
}

/// Which of a node round's two barriers an
/// [`Endpoint::arrive`] / [`Endpoint::wait`] pair is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// Between draining and sending: once it completes, every endpoint
    /// has drained the epoch's inbox, so no epoch-`e` send can land in a
    /// slow peer's epoch-`e` inbox. Barrier only — nothing held is
    /// released here.
    Drain,
    /// After sending: once it completes, every message of the round is
    /// in its destination mailbox. The fault wrappers' release point.
    Round,
}

/// One node's handle onto a fabric, movable to that node's thread (or
/// process). Same delivery contract as the [`Transport`] view.
pub trait Endpoint: Send {
    /// The owning node's id.
    fn id(&self) -> usize;

    /// Number of nodes in the fabric.
    fn num_nodes(&self) -> usize;

    /// Sends `bytes` to node `to`.
    fn send(&mut self, to: usize, bytes: Vec<u8>);

    /// Drains every delivered message, in canonical order, without
    /// blocking.
    fn recv(&mut self) -> Vec<Envelope>;

    /// Blocks until at least one message is deliverable (or `timeout`
    /// elapses), then drains like [`Endpoint::recv`]. The
    /// bounded-staleness node loop waits on this instead of a barrier —
    /// it needs "some shares arrived", not "everything arrived". The
    /// default drains at once, without waiting.
    fn recv_wait(&mut self, timeout: std::time::Duration) -> Vec<Envelope> {
        let _ = timeout;
        self.recv()
    }

    /// Pushes all locally staged output onto the wire **without** a
    /// round barrier: returns once every previously sent message has
    /// left this endpoint (not necessarily arrived). Barrier-free
    /// drivers call this where lockstep drivers call
    /// [`Endpoint::try_sync`]. Endpoints that transmit eagerly keep the
    /// default no-op.
    fn flush_sends(&mut self) -> Result<(), TransportError> {
        Ok(())
    }

    /// Phase one of a barrier: records that this endpoint reached it and
    /// returns without waiting for anyone. Every message this endpoint
    /// sent before `arrive` is covered by the barrier; the caller may
    /// compute between `arrive` and [`Endpoint::wait`], but sends nothing
    /// there (what it sends in the gap may land on either side). TCP
    /// stages the barrier token behind the data frames and pushes both
    /// out here; the in-memory endpoint counts itself in. Layers that act
    /// at a barrier's position
    /// act here: the fault wrappers release held messages at the
    /// [`BarrierKind::Round`] arrive, ahead of the inner token.
    fn arrive(&mut self, kind: BarrierKind) {
        let _ = kind;
    }

    /// Phase two of a barrier: returns once every endpoint of the fabric
    /// has arrived at this barrier **and** every message any of them
    /// sent before arriving sits in its destination mailbox, so the next
    /// `recv` is complete and deterministic. Pairs with exactly one
    /// [`Endpoint::arrive`] of the same kind. Channels rendezvous in
    /// memory; TCP waits for every peer's token. A dead peer, a protocol
    /// violation or a timed-out round surfaces as a [`TransportError`] —
    /// never as a hang — and the caller decides whether that panics (the
    /// engine) or exits cleanly (`rex-node`).
    fn wait(&mut self, kind: BarrierKind) -> Result<(), TransportError>;

    /// A whole round barrier with no work in its gap:
    /// [`Endpoint::arrive`] then [`Endpoint::wait`], both
    /// [`BarrierKind::Round`].
    fn try_sync(&mut self) -> Result<(), TransportError> {
        self.arrive(BarrierKind::Round);
        self.wait(BarrierKind::Round)
    }

    /// Membership view-synchronization hook, called by the deployed
    /// node loop when the epoch-scoped view changes: `joined` nodes
    /// enter the view this epoch, `left` nodes departed at this
    /// boundary. Endpoints with live connection state act on it — the
    /// TCP endpoint **admits** pending `join` connections from new
    /// peers (accept, validate the `Join` control frame, reply
    /// `Welcome` with the current barrier generation) and **retires**
    /// departed peers from its barrier set; the in-memory endpoint
    /// retires them from the shared barrier. [`Transport::view_sync`]
    /// calls it on every endpoint the fabric still drives.
    fn view_sync(
        &mut self,
        epoch: usize,
        joined: &[usize],
        left: &[usize],
    ) -> Result<(), TransportError> {
        let _ = (epoch, joined, left);
        Ok(())
    }

    /// The late-attestation evidence a `Join` control frame carried for
    /// `peer`, if this endpoint admitted one (drained: a second call
    /// returns `None`). Default: no join machinery, no evidence.
    fn join_evidence(&mut self, peer: usize) -> Option<Vec<u8>> {
        let _ = peer;
        None
    }

    /// Per-endpoint twin of [`Transport::epoch_begin`]: called by the
    /// node's own driver loop at the top of each epoch.
    fn epoch_begin(&mut self, _epoch: usize) {}

    /// Broadcasts this node's signed commitment for `epoch` to every
    /// connected peer, on the control plane (never accounted in payload
    /// [`TrafficStats`], so byte counts stay bit-identical across
    /// backends). Endpoints without a wire (in-memory fabrics, where the
    /// engine reads commitments straight out of the epoch reports) keep
    /// the default no-op.
    fn send_commitment(&mut self, epoch: u64, digest: [u8; 32], tag: [u8; 32]) {
        let _ = (epoch, digest, tag);
    }

    /// Drains the peer commitments received since the last call, in
    /// arrival order. Default: no commitment channel, nothing to drain.
    fn take_commitments(&mut self) -> Vec<PeerCommitment> {
        Vec::new()
    }

    /// Per-endpoint twin of [`Transport::take_delivery`]: drains this
    /// node's *outgoing* routing decisions since the last call.
    fn take_delivery(&mut self) -> DeliveryStats {
        DeliveryStats::default()
    }

    /// Cumulative traffic counters of this node.
    fn stats(&self) -> TrafficStats;
}

/// Sorts an inbox into canonical order: ascending sender id, preserving
/// per-sender FIFO (stable sort).
pub fn canonicalize(inbox: &mut [Envelope]) {
    inbox.sort_by_key(|env| env.from);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_sorts_by_sender_keeping_fifo() {
        let mut inbox = vec![
            Envelope {
                from: 2,
                bytes: vec![1],
            },
            Envelope {
                from: 0,
                bytes: vec![2],
            },
            Envelope {
                from: 2,
                bytes: vec![3],
            },
            Envelope {
                from: 1,
                bytes: vec![4],
            },
        ];
        canonicalize(&mut inbox);
        let order: Vec<(usize, u8)> = inbox.iter().map(|e| (e.from, e.bytes[0])).collect();
        assert_eq!(order, vec![(0, 2), (1, 4), (2, 1), (2, 3)]);
    }

    /// A whole barrier of `kind`, with nothing in its gap.
    fn barrier<E: Endpoint>(ep: &mut E, kind: BarrierKind) {
        ep.arrive(kind);
        ep.wait(kind).unwrap();
    }

    /// The [`Endpoint`] barrier contract, on three threads, in two parts.
    ///
    /// Whole barriers: node 0 is late (the sleep makes a barrier that
    /// does not wait fail, it is not what makes a correct one pass): its
    /// message, sent before its own barrier, must be in node 1's `recv`
    /// after node 1's barrier. `holds` says the fabric holds every
    /// message until its release point: then the drain barrier must
    /// deliver nothing and the round barrier everything.
    ///
    /// Split barriers: two rounds of the per-node loop's shape — recv →
    /// arrive(drain) → wait(drain) → send to both peers → arrive(round)
    /// → wait(round) — with node 0 working between its drain arrive and
    /// wait (a fast peer's message of the round lands meanwhile and must
    /// wait for the next `recv`), and node 2 working between its round
    /// arrive and wait (what it sent before arriving must reach peers
    /// that are already past their wait). Each round's `recv` must hold
    /// exactly the previous round's messages.
    fn barrier_contract<E: Endpoint + 'static>(endpoints: Vec<E>, holds: bool) {
        assert_eq!(endpoints.len(), 3);
        let work = || std::thread::sleep(std::time::Duration::from_millis(40));
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|mut ep| {
                std::thread::spawn(move || {
                    let id = ep.id();
                    ep.epoch_begin(0);
                    if id == 0 {
                        work();
                        ep.send(1, vec![7]);
                    }
                    barrier(&mut ep, BarrierKind::Drain);
                    let after_drain = ep.recv();
                    // Everyone has looked before anyone's round barrier
                    // releases what it holds.
                    barrier(&mut ep, BarrierKind::Drain);
                    ep.try_sync().unwrap();
                    let after_sync = ep.recv();
                    let mut rounds = Vec::new();
                    for round in 1..=2u8 {
                        ep.epoch_begin(usize::from(round));
                        rounds.push(ep.recv());
                        ep.arrive(BarrierKind::Drain);
                        if id == 0 {
                            work();
                        }
                        ep.wait(BarrierKind::Drain).unwrap();
                        for to in (0..3).filter(|&to| to != id) {
                            ep.send(to, vec![round, id as u8]);
                        }
                        ep.arrive(BarrierKind::Round);
                        if id == 2 {
                            work();
                        }
                        ep.wait(BarrierKind::Round).unwrap();
                    }
                    rounds.push(ep.recv());
                    (id, after_drain, after_sync, rounds)
                })
            })
            .collect();
        for handle in handles {
            let (id, after_drain, after_sync, rounds) = handle.join().unwrap();
            let bytes = |inbox: &[Envelope]| -> Vec<(usize, Vec<u8>)> {
                inbox.iter().map(|e| (e.from, e.bytes.clone())).collect()
            };
            let (want_drain, want_sync) = match (id, holds) {
                (1, false) => (vec![(0, vec![7])], vec![]),
                (1, true) => (vec![], vec![(0, vec![7])]),
                _ => (vec![], vec![]),
            };
            assert_eq!(bytes(&after_drain), want_drain, "node {id} after drain");
            assert_eq!(bytes(&after_sync), want_sync, "node {id} after sync");
            assert_eq!(rounds.len(), 3);
            assert!(rounds[0].is_empty(), "node {id} before the split rounds");
            for round in 1..=2u8 {
                let want: Vec<(usize, Vec<u8>)> = (0..3usize)
                    .filter(|&from| from != id)
                    .map(|from| (from, vec![round, from as u8]))
                    .collect();
                let got = bytes(&rounds[usize::from(round)]);
                assert_eq!(got, want, "node {id} after split round {round}");
            }
        }
    }

    #[test]
    fn barrier_contract_holds_on_every_splittable_fabric() {
        use crate::fault::tests::faulty;
        use crate::fault::{FaultPlan, LinkFaults};
        use crate::mem::MemNetwork;
        use crate::tcp::TcpTransport;
        let mem = || MemNetwork::new(3);
        let tcp = || TcpTransport::loopback(3).unwrap();
        let clean = FaultPlan::default();
        barrier_contract(mem().into_endpoints(), false);
        barrier_contract(tcp().into_endpoints(), false);
        barrier_contract(faulty(mem(), &clean).into_endpoints(), false);
        barrier_contract(faulty(tcp(), &clean).into_endpoints(), false);
        // Every message reordered = held until the round barrier.
        let held = FaultPlan::uniform(
            1,
            LinkFaults {
                reorder: 1.0,
                ..LinkFaults::default()
            },
        );
        barrier_contract(faulty(mem(), &held).into_endpoints(), true);
        barrier_contract(faulty(tcp(), &held).into_endpoints(), true);
    }

    /// The single-owner leg of the contract: one thread drives every
    /// endpoint through [`Transport::send`], `flush` and `recv`, for two
    /// rounds. After each `flush` every node's `recv` holds exactly the
    /// round's messages; when the fabric `holds` every message, no
    /// `recv` before the `flush` sees any of them.
    fn fabric_contract<T: Transport>(mut fabric: T, holds: bool) {
        assert_eq!(fabric.num_nodes(), 3);
        for round in 0..2u8 {
            fabric.epoch_begin(usize::from(round));
            for from in 0..3 {
                for to in (0..3).filter(|&to| to != from) {
                    fabric.send(from, to, vec![round, from as u8]);
                }
            }
            if holds {
                for node in 0..3 {
                    assert!(fabric.recv(node).is_empty(), "node {node} before flush");
                }
            }
            fabric.flush();
            for node in 0..3 {
                let got: Vec<(usize, Vec<u8>)> = fabric
                    .recv(node)
                    .into_iter()
                    .map(|e| (e.from, e.bytes))
                    .collect();
                let want: Vec<(usize, Vec<u8>)> = (0..3)
                    .filter(|&from| from != node)
                    .map(|from| (from, vec![round, from as u8]))
                    .collect();
                assert_eq!(got, want, "node {node} after round {round}");
            }
        }
    }

    #[test]
    fn barrier_contract_holds_on_every_fabric_from_one_owner() {
        use crate::fault::tests::faulty;
        use crate::fault::{FaultPlan, LinkFaults};
        use crate::mem::MemNetwork;
        use crate::tcp::TcpTransport;
        let mem = || MemNetwork::new(3);
        let tcp = || TcpTransport::loopback(3).unwrap();
        let held = FaultPlan::uniform(
            1,
            LinkFaults {
                reorder: 1.0,
                ..LinkFaults::default()
            },
        );
        fabric_contract(mem(), false);
        fabric_contract(tcp(), false);
        fabric_contract(faulty(mem(), &held), true);
        fabric_contract(faulty(tcp(), &held), true);
    }
}
