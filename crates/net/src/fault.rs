//! Deterministic fault injection over any [`Endpoint`] backend.
//!
//! The REX evaluation assumes a fully reliable fabric, but the paper's
//! own premise — edge devices gossiping raw data — lives on networks
//! that drop, delay, and churn. This module makes unreliability a
//! first-class, *reproducible* experiment input:
//!
//! * [`FaultPlan`] — a seeded, serializable schedule of faults: per-link
//!   drop/delay/duplicate/reorder rates (with per-link overrides for
//!   asymmetric links), flash [`PartitionSpec`]s, and per-node
//!   crash-stop/rejoin [`CrashSpec`]s;
//! * [`FaultyEndpoint`] — the wrapper that composes over *any* endpoint
//!   (mem, TCP) and applies the plan's link faults at send time,
//!   counting every decision in [`DeliveryStats`]. The engine and each
//!   `rex-node` process wrap every endpoint under the run's one plan; a
//!   single-owner test builds a [`Fabric`](crate::transport::Fabric) of
//!   them with `Fabric::from_endpoints`.
//!
//! # Determinism
//! Fault decisions never consult a stateful RNG shared across links.
//! The fate of message `k` on the directed link `from → to` is a pure
//! hash of `(plan seed, fault kind, from, to, k)`, so:
//!
//! * the same plan replays **bit-for-bit** across reruns;
//! * the worker pool and thread-per-node schedulers agree (each
//!   directed link's messages are emitted by exactly one endpoint in
//!   deterministic order, so the per-link counters agree no matter how
//!   threads interleave);
//! * both backends agree — the wrapper sits above the backend's
//!   delivery machinery and below the engine's canonical ordering.
//!
//! # Division of labor with the engine
//! The wrapper owns **link** faults only. Crash-stop semantics (a down
//! node runs no epoch, sends nothing, and discards whatever landed in
//! its mailbox) live in the engine's drivers, which read the same
//! [`FaultPlan`] — that way crash behaviour is identical whether or not
//! a run is wrapped. Messages sent *while an epoch is not active*
//! (TEE provisioning + attestation) always pass through unfaulted: the
//! wrapper activates on its first [`Endpoint::epoch_begin`] call.
//!
//! # Byte accounting
//! The wrapper sits *above* the backend's [`TrafficStats`], which
//! therefore record what the fabric actually carried end-to-end: a
//! dropped message is accounted at **neither** end, a duplicate at
//! both ends twice, and a message delayed past the end of the run not
//! at all. Losses are visible in [`DeliveryStats`], not in the byte
//! counters — which keeps the counters bit-comparable across backends
//! and with the delivered payload volume.
//!
//! # Fate semantics
//! Checked in priority order, each against its own hash stream:
//! drop → delay (held one full round: sent at epoch `e`, delivered into
//! the epoch `e+2` inbox instead of `e+1`) → duplicate (two copies
//! delivered) → reorder (moved to the back of the sender's FIFO for the
//! round) → deliver. An active partition or a crashed endpoint on
//! either side of the link drops the message outright before any rate
//! is consulted.

use crate::mem::Envelope;
use crate::stats::{DeliveryStats, TrafficStats};
use crate::transport::{BarrierKind, Endpoint, PeerCommitment, TransportError};
use rex_crypto::splitmix64;

/// Per-link fault rates, each a probability in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Probability a message is destroyed.
    pub drop: f64,
    /// Probability a message is delayed by one full round.
    pub delay: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message moves to the back of its sender's FIFO for
    /// the round (visible because canonical order preserves per-sender
    /// FIFO).
    pub reorder: f64,
}

impl LinkFaults {
    /// A uniform-loss profile.
    #[must_use]
    pub fn drop_rate(drop: f64) -> Self {
        LinkFaults {
            drop,
            ..LinkFaults::default()
        }
    }

    /// Whether every rate is zero.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.drop == 0.0 && self.delay == 0.0 && self.duplicate == 0.0 && self.reorder == 0.0
    }

    fn check(&self, what: &str) -> Result<(), String> {
        for (name, rate) in [
            ("drop", self.drop),
            ("delay", self.delay),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{what}: {name} rate {rate} outside [0,1]"));
            }
        }
        Ok(())
    }
}

/// A flash partition: while active, messages crossing the cut are
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// First epoch the cut is active.
    pub start: usize,
    /// First epoch after healing (exclusive; active for
    /// `start <= epoch < end`).
    pub end: usize,
    /// One side of the cut; every node not listed is on the other side.
    pub group: Vec<usize>,
}

impl PartitionSpec {
    /// Whether this partition separates `from` and `to` at `epoch`.
    #[must_use]
    pub fn cuts(&self, epoch: usize, from: usize, to: usize) -> bool {
        epoch >= self.start
            && epoch < self.end
            && (self.group.contains(&from) != self.group.contains(&to))
    }
}

/// Crash-stop schedule for one node: down for
/// `crash_epoch <= epoch < rejoin_epoch` (forever when `rejoin_epoch`
/// is `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// The crashing node.
    pub node: usize,
    /// First epoch the node is down.
    pub crash_epoch: usize,
    /// First epoch the node is back up (`None` = crash-stop forever).
    pub rejoin_epoch: Option<usize>,
}

impl CrashSpec {
    /// Whether this spec keeps `node` down at `epoch`.
    #[must_use]
    pub fn down_at(&self, node: usize, epoch: usize) -> bool {
        self.node == node
            && epoch >= self.crash_epoch
            && self.rejoin_epoch.is_none_or(|r| epoch < r)
    }
}

/// A complete, seeded fault schedule. See the module docs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of every probabilistic decision (drop/delay/duplicate/
    /// reorder draws). Two runs with the same plan replay identically;
    /// changing only the seed re-rolls every per-message fate.
    pub seed: u64,
    /// Default rates applied to every directed link.
    pub link: LinkFaults,
    /// Per-directed-link `(from, to, rates)` overrides — asymmetric
    /// links are expressed by overriding only one direction.
    pub link_overrides: Vec<(usize, usize, LinkFaults)>,
    /// Flash partitions.
    pub partitions: Vec<PartitionSpec>,
    /// Crash-stop/rejoin schedules.
    pub crashes: Vec<CrashSpec>,
}

/// What happens to one message. See the module docs for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered normally.
    Deliver,
    /// Destroyed.
    Drop,
    /// Held one full round.
    Delay,
    /// Delivered twice.
    Duplicate,
    /// Moved to the back of the sender's FIFO for the round.
    Reorder,
}

/// Domain-separation salts, one per fault kind, so the four rate draws
/// of a message are independent.
const SALT_DROP: u64 = 0xD509_0000_0000_0001;
const SALT_DELAY: u64 = 0xD509_0000_0000_0002;
const SALT_DUP: u64 = 0xD509_0000_0000_0003;
const SALT_REORDER: u64 = 0xD509_0000_0000_0004;

impl FaultPlan {
    /// A plan with a seed and uniform link rates, no partitions or
    /// crashes.
    #[must_use]
    pub fn uniform(seed: u64, link: LinkFaults) -> Self {
        FaultPlan {
            seed,
            link,
            ..FaultPlan::default()
        }
    }

    /// Adds a per-directed-link override (builder style).
    #[must_use]
    pub fn with_link(mut self, from: usize, to: usize, faults: LinkFaults) -> Self {
        self.link_overrides.push((from, to, faults));
        self
    }

    /// Adds a flash partition (builder style).
    #[must_use]
    pub fn with_partition(mut self, start: usize, end: usize, group: Vec<usize>) -> Self {
        self.partitions.push(PartitionSpec { start, end, group });
        self
    }

    /// Adds a crash-stop (builder style); pass `rejoin_epoch = None` for
    /// a permanent crash.
    #[must_use]
    pub fn with_crash(
        mut self,
        node: usize,
        crash_epoch: usize,
        rejoin_epoch: Option<usize>,
    ) -> Self {
        self.crashes.push(CrashSpec {
            node,
            crash_epoch,
            rejoin_epoch,
        });
        self
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.link.is_clean()
            && self.link_overrides.iter().all(|(_, _, f)| f.is_clean())
            && self.partitions.is_empty()
            && self.crashes.is_empty()
    }

    /// Checks internal consistency against a fleet of `n`, reporting the
    /// first problem found (the `Result` twin of [`FaultPlan::validate`],
    /// for config-parsing paths that must not panic).
    pub fn check(&self, n: usize) -> Result<(), String> {
        self.link.check("default link")?;
        for (from, to, faults) in &self.link_overrides {
            if !(*from < n && *to < n && from != to) {
                return Err(format!(
                    "link override {from}->{to} invalid for fleet of {n}"
                ));
            }
            faults.check("link override")?;
        }
        for p in &self.partitions {
            if p.start >= p.end {
                return Err(format!("partition [{}, {}) is empty", p.start, p.end));
            }
            if let Some(v) = p.group.iter().find(|&&v| v >= n) {
                return Err(format!(
                    "partition group references node {v} outside fleet of {n}"
                ));
            }
        }
        for c in &self.crashes {
            if c.node >= n {
                return Err(format!("crash of node {} outside fleet of {n}", c.node));
            }
            if let Some(r) = c.rejoin_epoch {
                if r <= c.crash_epoch {
                    return Err(format!(
                        "node {} rejoins at {r} before crashing at {}",
                        c.node, c.crash_epoch
                    ));
                }
            }
        }
        Ok(())
    }

    /// Panics if the plan is internally inconsistent or references node
    /// ids outside a fleet of `n` (the asserting twin of
    /// [`FaultPlan::check`], used where a bad plan is a programming
    /// error).
    pub fn validate(&self, n: usize) {
        if let Err(e) = self.check(n) {
            panic!("invalid fault plan: {e}");
        }
    }

    /// The rates governing the directed link `from → to`.
    #[must_use]
    pub fn link_faults(&self, from: usize, to: usize) -> LinkFaults {
        self.link_overrides
            .iter()
            .find(|(f, t, _)| *f == from && *t == to)
            .map_or(self.link, |(_, _, faults)| *faults)
    }

    /// Whether `node` is crashed at `epoch`.
    #[must_use]
    pub fn is_down(&self, node: usize, epoch: usize) -> bool {
        self.crashes.iter().any(|c| c.down_at(node, epoch))
    }

    /// Nodes that are down for the whole run (crash at epoch 0, never
    /// rejoin): they never attest, never hold sessions, and are pruned
    /// from their neighbours' views before TEE setup.
    #[must_use]
    pub fn dead_at_setup(&self, n: usize) -> Vec<bool> {
        (0..n)
            .map(|node| {
                self.crashes
                    .iter()
                    .any(|c| c.node == node && c.crash_epoch == 0 && c.rejoin_epoch.is_none())
            })
            .collect()
    }

    /// A uniform draw in `[0, 1)` for message `index` on `from → to`
    /// under `salt` — a pure function, the heart of replayability.
    fn unit(&self, salt: u64, from: usize, to: usize, index: u64) -> f64 {
        let mut h = splitmix64(self.seed ^ salt);
        h = splitmix64(h ^ (from as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        h = splitmix64(h ^ (to as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25));
        h = splitmix64(h ^ index);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides the fate of message `index` on `from → to` sent during
    /// `epoch`.
    #[must_use]
    pub fn fate(&self, epoch: usize, from: usize, to: usize, index: u64) -> Fate {
        if self.partitions.iter().any(|p| p.cuts(epoch, from, to)) {
            return Fate::Drop;
        }
        let lf = self.link_faults(from, to);
        if lf.drop > 0.0 && self.unit(SALT_DROP, from, to, index) < lf.drop {
            return Fate::Drop;
        }
        if lf.delay > 0.0 && self.unit(SALT_DELAY, from, to, index) < lf.delay {
            return Fate::Delay;
        }
        if lf.duplicate > 0.0 && self.unit(SALT_DUP, from, to, index) < lf.duplicate {
            return Fate::Duplicate;
        }
        if lf.reorder > 0.0 && self.unit(SALT_REORDER, from, to, index) < lf.reorder {
            return Fate::Reorder;
        }
        Fate::Deliver
    }
}

/// A message the wrapper is holding back: released into the inner
/// endpoint at the round arrive of `release_epoch`.
#[derive(Debug)]
struct Held {
    release_epoch: usize,
    to: usize,
    bytes: Vec<u8>,
}

/// Fault-injecting endpoint wrapper: the one place a fault decision is
/// made, whether one owner drives every endpoint of a fabric or each
/// node (thread or `rex-node` process) drives its own. Decisions for a
/// link `self → to` depend only on the plan and the link's message
/// count, so every shape decides identically.
pub struct FaultyEndpoint<E: Endpoint> {
    inner: E,
    plan: FaultPlan,
    /// `Some(epoch)` once the protocol phase began; `None` during setup
    /// (faults inactive).
    epoch: Option<usize>,
    /// Messages sent so far on each link `self → to`: the next one's
    /// hash index.
    sent: Vec<u64>,
    /// Messages reordered to the back of the current round.
    reordered: Vec<Held>,
    /// Messages delayed into a later round.
    delayed: Vec<Held>,
    delivery: DeliveryStats,
}

impl<E: Endpoint> FaultyEndpoint<E> {
    /// Wraps a single endpoint under `plan` (the distributed `rex-node`
    /// shape: every process wraps its own endpoint with the same plan).
    ///
    /// # Panics
    /// If the plan fails [`FaultPlan::validate`] against the fabric
    /// size.
    #[must_use]
    pub fn new(inner: E, plan: FaultPlan) -> Self {
        let n = inner.num_nodes();
        plan.validate(n);
        FaultyEndpoint {
            inner,
            plan,
            epoch: None,
            sent: vec![0; n],
            reordered: Vec::new(),
            delayed: Vec::new(),
            delivery: DeliveryStats::default(),
        }
    }

    /// Releases held messages at a round boundary, *before* the inner
    /// token: all reordered messages of this round, plus delayed
    /// messages whose release round arrived.
    fn release(&mut self) {
        let Some(epoch) = self.epoch else { return };
        for held in self.reordered.drain(..) {
            self.inner.send(held.to, held.bytes);
        }
        let mut kept = Vec::new();
        for held in self.delayed.drain(..) {
            if held.release_epoch <= epoch {
                self.delivery.delivered += 1;
                self.inner.send(held.to, held.bytes);
            } else {
                kept.push(held);
            }
        }
        self.delayed = kept;
    }
}

impl<E: Endpoint> Endpoint for FaultyEndpoint<E> {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&mut self, to: usize, bytes: Vec<u8>) {
        let Some(epoch) = self.epoch else {
            // Setup phase: attestation traffic is never faulted (and not
            // counted — delivery stats describe protocol rounds).
            self.inner.send(to, bytes);
            return;
        };
        let index = self.sent[to];
        self.sent[to] += 1;
        match self.plan.fate(epoch, self.inner.id(), to, index) {
            Fate::Deliver => {
                self.delivery.delivered += 1;
                self.inner.send(to, bytes);
            }
            Fate::Drop => self.delivery.dropped += 1,
            Fate::Delay => {
                self.delivery.late += 1;
                self.delayed.push(Held {
                    release_epoch: epoch + 1,
                    to,
                    bytes,
                });
            }
            Fate::Duplicate => {
                self.delivery.delivered += 2;
                self.delivery.duplicated += 1;
                self.inner.send(to, bytes.clone());
                self.inner.send(to, bytes);
            }
            Fate::Reorder => {
                self.delivery.delivered += 1;
                self.reordered.push(Held {
                    release_epoch: epoch,
                    to,
                    bytes,
                });
            }
        }
    }

    fn recv(&mut self) -> Vec<Envelope> {
        self.inner.recv()
    }

    fn recv_wait(&mut self, timeout: std::time::Duration) -> Vec<Envelope> {
        self.inner.recv_wait(timeout)
    }

    fn flush_sends(&mut self) -> Result<(), TransportError> {
        // Pushes what the inner endpoint staged; held messages stay held
        // until the round barrier's arrive releases them.
        self.inner.flush_sends()
    }

    fn arrive(&mut self, kind: BarrierKind) {
        // The release point is the round barrier's arrive: held messages
        // go out ahead of the inner token. The drain barrier releases
        // nothing: releasing there would both reorder held messages
        // ahead of the epoch's normal sends and race slow peers'
        // current-epoch drain.
        if kind == BarrierKind::Round {
            self.release();
        }
        self.inner.arrive(kind);
    }

    fn wait(&mut self, kind: BarrierKind) -> Result<(), TransportError> {
        self.inner.wait(kind)
    }

    fn view_sync(
        &mut self,
        epoch: usize,
        joined: &[usize],
        left: &[usize],
    ) -> Result<(), TransportError> {
        // Membership is infrastructure, not protocol: admissions and
        // retirements pass through unfaulted (the *bootstrap payload*
        // is a normal epoch send and very much faultable). Held
        // messages to a leaver die with it — releasing them after
        // retirement would target a torn-down connection — and so do
        // all of a leaver's own. They were counted `late` when they were
        // held and are never counted `delivered`.
        let leaving = left.contains(&self.inner.id());
        let keep = |h: &Held| !leaving && !left.contains(&h.to);
        self.delayed.retain(keep);
        self.reordered.retain(keep);
        self.inner.view_sync(epoch, joined, left)
    }

    fn join_evidence(&mut self, peer: usize) -> Option<Vec<u8>> {
        self.inner.join_evidence(peer)
    }

    fn epoch_begin(&mut self, epoch: usize) {
        self.epoch = Some(epoch);
        self.inner.epoch_begin(epoch);
    }

    fn take_delivery(&mut self) -> DeliveryStats {
        std::mem::take(&mut self.delivery)
    }

    fn send_commitment(&mut self, epoch: u64, digest: [u8; 32], tag: [u8; 32]) {
        // Commitments are audit infrastructure, not protocol traffic:
        // they pass through unfaulted (dropping one would fake
        // misbehaviour where there is none), like membership admissions.
        self.inner.send_commitment(epoch, digest, tag);
    }

    fn take_commitments(&mut self) -> Vec<PeerCommitment> {
        self.inner.take_commitments()
    }

    fn stats(&self) -> TrafficStats {
        self.inner.stats()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mem::MemNetwork;
    use crate::transport::{Fabric, Transport};

    /// The single-owner fabric of `inner`'s endpoints, each wrapped under
    /// `plan`.
    pub(crate) fn faulty<T: Transport>(
        inner: T,
        plan: &FaultPlan,
    ) -> Fabric<FaultyEndpoint<T::Endpoint>> {
        let wrap = |e| FaultyEndpoint::new(e, plan.clone());
        Fabric::from_endpoints(inner.into_endpoints().into_iter().map(wrap).collect())
    }

    fn msg(b: u8) -> Vec<u8> {
        vec![b]
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut net = faulty(MemNetwork::new(3), &FaultPlan::default());
        net.epoch_begin(0);
        net.send(0, 1, msg(1));
        net.send(2, 1, msg(2));
        net.flush();
        let inbox = net.recv(1);
        assert_eq!(inbox.len(), 2);
        assert_eq!(net.stats(0).bytes_out, 1);
        assert_eq!(
            net.take_delivery(),
            DeliveryStats {
                delivered: 2,
                ..DeliveryStats::default()
            }
        );
    }

    #[test]
    fn setup_phase_traffic_is_never_faulted() {
        let plan = FaultPlan::uniform(1, LinkFaults::drop_rate(1.0));
        let mut net = faulty(MemNetwork::new(2), &plan);
        // No epoch_begin yet: this is attestation-style setup traffic.
        net.send(0, 1, msg(9));
        net.flush();
        assert_eq!(net.recv(1).len(), 1);
        assert_eq!(net.take_delivery(), DeliveryStats::default());
        // Once the first epoch begins, the same link loses everything.
        net.epoch_begin(0);
        net.send(0, 1, msg(9));
        net.flush();
        assert!(net.recv(1).is_empty());
        assert_eq!(net.take_delivery().dropped, 1);
    }

    #[test]
    fn full_drop_loses_everything_and_counts_it() {
        let plan = FaultPlan::uniform(3, LinkFaults::drop_rate(1.0));
        let mut net = faulty(MemNetwork::new(2), &plan);
        net.epoch_begin(0);
        for i in 0..10 {
            net.send(0, 1, msg(i));
        }
        net.flush();
        assert!(net.recv(1).is_empty());
        let d = net.take_delivery();
        assert_eq!(d.dropped, 10);
        assert_eq!(d.delivered, 0);
    }

    #[test]
    fn drop_rate_is_roughly_honoured_and_replays_bitwise() {
        let plan = FaultPlan::uniform(7, LinkFaults::drop_rate(0.3));
        let run = |plan: FaultPlan| {
            let mut net = faulty(MemNetwork::new(2), &plan);
            net.epoch_begin(0);
            for i in 0..200u8 {
                net.send(0, 1, msg(i));
            }
            net.flush();
            let got: Vec<u8> = net.recv(1).iter().map(|e| e.bytes[0]).collect();
            (got, net.take_delivery())
        };
        let (got_a, del_a) = run(plan.clone());
        let (got_b, del_b) = run(plan);
        assert_eq!(got_a, got_b, "same seed must replay bit-for-bit");
        assert_eq!(del_a, del_b);
        let dropped = del_a.dropped as f64 / 200.0;
        assert!(
            (0.15..=0.45).contains(&dropped),
            "0.3 drop rate realized as {dropped}"
        );
        // A different seed re-rolls the fates.
        let (got_c, _) = run(FaultPlan::uniform(8, LinkFaults::drop_rate(0.3)));
        assert_ne!(got_a, got_c);
    }

    #[test]
    fn delay_holds_one_full_round() {
        let plan = FaultPlan::uniform(
            0,
            LinkFaults {
                delay: 1.0,
                ..LinkFaults::default()
            },
        );
        let mut net = faulty(MemNetwork::new(2), &plan);
        net.epoch_begin(0);
        net.send(0, 1, msg(42));
        net.flush();
        assert!(net.recv(1).is_empty(), "delayed out of its own round");
        net.epoch_begin(1);
        net.flush();
        let inbox = net.recv(1);
        assert_eq!(inbox.len(), 1, "released one round later");
        assert_eq!(inbox[0].bytes, msg(42));
        let d = net.take_delivery();
        assert_eq!((d.late, d.delivered), (1, 1));
    }

    #[test]
    fn duplicate_delivers_twice() {
        let plan = FaultPlan::uniform(
            0,
            LinkFaults {
                duplicate: 1.0,
                ..LinkFaults::default()
            },
        );
        let mut net = faulty(MemNetwork::new(2), &plan);
        net.epoch_begin(0);
        net.send(0, 1, msg(5));
        net.flush();
        assert_eq!(net.recv(1).len(), 2);
        let d = net.take_delivery();
        assert_eq!((d.delivered, d.duplicated), (2, 1));
    }

    #[test]
    fn reorder_moves_message_to_back_of_sender_fifo() {
        let plan = FaultPlan::default().with_link(
            0,
            1,
            LinkFaults {
                reorder: 1.0,
                ..LinkFaults::default()
            },
        );
        let mut net = faulty(MemNetwork::new(3), &plan);
        net.epoch_begin(0);
        net.send(0, 1, msg(1)); // reordered to the back
        net.send(2, 1, msg(2)); // clean link, delivered in place
        net.send(0, 1, msg(3)); // also reordered, after msg 1
        net.flush();
        let inbox = net.recv(1);
        let order: Vec<(usize, u8)> = inbox.iter().map(|e| (e.from, e.bytes[0])).collect();
        // Canonical order sorts by sender; within sender 0's FIFO the
        // reorder pushed both to the release position, preserving their
        // relative order.
        assert_eq!(order, vec![(0, 1), (0, 3), (2, 2)]);
    }

    #[test]
    fn partition_cuts_only_across_groups_and_heals() {
        let plan = FaultPlan::default().with_partition(1, 2, vec![0]);
        let mut net = faulty(MemNetwork::new(3), &plan);
        net.epoch_begin(1); // partition active
        net.send(0, 1, msg(1)); // crosses the cut: dropped
        net.send(1, 2, msg(2)); // same side: delivered
        net.flush();
        assert!(net.recv(1).is_empty());
        assert_eq!(net.recv(2).len(), 1);
        let d = net.take_delivery();
        assert_eq!((d.dropped, d.delivered), (1, 1));
        net.epoch_begin(2); // healed
        net.send(0, 1, msg(3));
        net.flush();
        assert_eq!(net.recv(1).len(), 1);
    }

    #[test]
    fn asymmetric_override_affects_one_direction() {
        let plan = FaultPlan::default().with_link(0, 1, LinkFaults::drop_rate(1.0));
        let mut net = faulty(MemNetwork::new(2), &plan);
        net.epoch_begin(0);
        net.send(0, 1, msg(1));
        net.send(1, 0, msg(2));
        net.flush();
        assert!(net.recv(1).is_empty(), "0->1 fully lossy");
        assert_eq!(net.recv(0).len(), 1, "1->0 untouched");
    }

    #[test]
    fn endpoint_and_fabric_wrappers_decide_identically() {
        let plan = FaultPlan::uniform(11, LinkFaults::drop_rate(0.5));
        // The single-owner fabric view.
        let mut fabric = faulty(MemNetwork::new(2), &plan);
        fabric.epoch_begin(0);
        for i in 0..64u8 {
            fabric.send(0, 1, msg(i));
        }
        fabric.flush();
        let fabric_got: Vec<u8> = fabric.recv(1).iter().map(|e| e.bytes[0]).collect();

        // The same faulty endpoints, split onto one thread each.
        let mut eps = faulty(MemNetwork::new(2), &plan).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                b.epoch_begin(0);
                b.try_sync().unwrap();
            });
            a.epoch_begin(0);
            for i in 0..64u8 {
                Endpoint::send(&mut a, 1, msg(i));
            }
            a.try_sync().unwrap();
        });
        let ep_got: Vec<u8> = Endpoint::recv(&mut b).iter().map(|e| e.bytes[0]).collect();
        assert_eq!(fabric_got, ep_got);
    }

    #[test]
    fn the_wrapper_pushes_staged_sends_and_waits_for_delivery() {
        // TCP stages frames until `flush_sends`; the peer's `recv_wait`
        // blocks on its reactor. Both reach the inner endpoint.
        let mut eps = faulty(
            crate::tcp::TcpTransport::loopback(2).unwrap(),
            &FaultPlan::default(),
        )
        .into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.epoch_begin(0);
        b.epoch_begin(0);
        Endpoint::send(&mut a, 1, msg(9));
        a.flush_sends().unwrap();
        let got = b.recv_wait(std::time::Duration::from_secs(2));
        assert_eq!(got.len(), 1, "the staged frame never left the wrapper");
        assert_eq!(got[0].bytes, msg(9));

        // The wrapped in-memory endpoint blocks until its timeout...
        let mut eps = faulty(MemNetwork::new(2), &FaultPlan::default()).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.epoch_begin(0);
        b.epoch_begin(0);
        let start = std::time::Instant::now();
        assert!(b.recv_wait(std::time::Duration::from_millis(20)).is_empty());
        assert!(start.elapsed() >= std::time::Duration::from_millis(20));
        // ...or until a send lands.
        let sender = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            Endpoint::send(&mut a, 1, msg(4));
            a.flush_sends().unwrap();
            a
        });
        let got = b.recv_wait(std::time::Duration::from_secs(10));
        assert_eq!(got.iter().map(|e| e.bytes[0]).collect::<Vec<_>>(), [4]);
        sender.join().unwrap();
    }

    #[test]
    fn crash_windows_and_setup_deadness() {
        let plan = FaultPlan::default()
            .with_crash(1, 0, None)
            .with_crash(2, 3, Some(5));
        assert!(plan.is_down(1, 0) && plan.is_down(1, 100));
        assert!(!plan.is_down(2, 2) && plan.is_down(2, 3) && plan.is_down(2, 4));
        assert!(!plan.is_down(2, 5));
        assert_eq!(plan.dead_at_setup(4), vec![false, true, false, false]);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bad_rate_rejected() {
        FaultPlan::uniform(0, LinkFaults::drop_rate(1.5)).validate(2);
    }

    #[test]
    #[should_panic(expected = "outside fleet")]
    fn crash_outside_fleet_rejected() {
        FaultPlan::default().with_crash(9, 0, None).validate(4);
    }
}
