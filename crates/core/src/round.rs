//! The per-node round, written once: [`NodeRound`], a sans-IO state
//! machine that sequences one node's epoch (Algorithm 2 between two
//! exchanges), and the endpoint drivers that schedule it.
//!
//! The machine holds no endpoint, clock, thread or membership view (the
//! view stays with the driver: one per fabric, one per endpoint). It is
//! stepped with an [`Input`], hands its driver the step's non-blocking
//! [`Effect`]s in order, and returns the [`Action`] it waits on. Per
//! epoch:
//!
//! ```text
//! open → [view sync → bootstraps → arrive(round) → wait(round)]
//!      → recv → arrive(drain) → front → wait(drain) → send
//!      → arrive(round) → back  → wait(round) → audit drain, publish, report
//! ```
//!
//! The bracket runs only when the epoch opens a membership view change:
//! sponsor bootstraps land before any inbox of the epoch is drained. The
//! front ([`Node::epoch_front`]: merge → train → share) reads only the
//! inbox already drained and the back ([`Node::epoch_back`]: test →
//! commit) only the node's own model, so each runs in the gap of a
//! barrier it does not need. Sends come only after the drain wait, so no
//! epoch-`e` share can land in a slow peer's epoch-`e` inbox. Under an
//! audit the back runs before the round arrive, so the commitment frame
//! travels ahead of the token. A node that is down or
//! outside the view discards its inbox, serves the barriers and runs
//! nothing.
//!
//! One driver carries the machine out on a node's [`Endpoint`]: `Drive`,
//! a resumable step that stops where the machine waits on a barrier it
//! arrived at. Two schedulers run it: a thread that answers each wait at
//! once ([`run_node_loop`]: a `rex-node` process, a thread of the
//! in-process cluster, [`Driver::ThreadPerNode`](crate::engine::Driver))
//! and the engine's worker pool, which steps every node up to the same
//! barrier and then answers the waits ([`crate::pool`]).
//! [`run_node_loop_async`] runs the same driver under the
//! bounded-staleness inbox policy. A new barrier or queue counter belongs
//! here (and a new stage span in [`Node::epoch_front`] or
//! [`Node::epoch_back`]); no other file runs a node's epoch, and no other
//! file maps an [`Action`] onto I/O.

// Every deployed process runs this module: it fails with an error its
// caller can report, never with a panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use crate::commitment::{EpochCommitment, TagVerifier};
use crate::membership::{MembershipView, ViewTransition};
use crate::node::{EpochReport, Node, PendingEpoch};
use crate::serve::SnapshotQueue;
use crate::setup::TeeDirectory;
use rex_ml::Model;
use rex_net::codec::{decode_payload, encode_payload};
use rex_net::fault::FaultPlan;
use rex_net::mem::Envelope;
use rex_net::message::Payload;
use rex_net::stats::DeliveryStats;
use rex_net::transport::{BarrierKind, Endpoint, PeerCommitment};
use rex_tee::attestation::AttestationMsg;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One epoch's outcome as a node's summary records it: the local RMSE
/// (as IEEE-754 bits; `None` when the node holds no test ratings or sat
/// the epoch out) and the signed model-digest commitment (`None` only
/// when the epoch did not execute — down, non-member, or departed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochOutcome {
    /// Local RMSE bits for the epoch.
    pub rmse_bits: Option<u64>,
    /// The epoch's chained commitment.
    pub commitment: Option<EpochCommitment>,
}

/// What the loop reports after each epoch it served, executed or not.
#[derive(Debug, Clone, Copy)]
pub struct EpochEvent {
    /// The epoch just completed.
    pub epoch: usize,
    /// The node's own report (`None` while crash-stopped or outside the
    /// membership view: it served the barriers and ran no protocol).
    pub report: Option<EpochReport>,
    /// The endpoint's outgoing delivery accounting for the epoch.
    pub delivery: DeliveryStats,
}

impl EpochEvent {
    /// The summary-level view of this epoch.
    #[must_use]
    pub fn outcome(&self) -> EpochOutcome {
        EpochOutcome {
            rmse_bits: self.report.and_then(|r| r.rmse).map(f64::to_bits),
            commitment: self.report.map(|r| r.commitment),
        }
    }
}

/// The wire audit of a per-node loop: a node under audit ships its
/// signed commitments to its connected peers and HMAC-verifies every
/// commitment it receives, with keys derived from the protocol seed
/// ([`crate::commitment::derive_key`]).
#[derive(Debug, Clone, Copy)]
pub struct WireAudit {
    /// The cluster's shared protocol seed.
    pub seed: u64,
}

/// The loop's optional collaborators; all `None` is a static, fault-free,
/// native, unaudited, unserved run.
pub struct RoundContext<'a, M> {
    /// Crash schedule: while it has this node down, the node discards its
    /// inbox and sits the round out — still serving the round barriers,
    /// which are infrastructure, not protocol. (Link faults live in the
    /// endpoint wrapper, not here.)
    pub faults: Option<&'a FaultPlan>,
    /// This node's copy of the membership view, advanced once per epoch.
    pub view: Option<&'a mut MembershipView>,
    /// The SGX directory late joins attest against.
    pub tee: Option<&'a TeeDirectory>,
    /// The wire audit: ship and verify commitments (`None`: neither).
    pub audit: Option<WireAudit>,
    /// Where every **member** epoch publishes an immutable post-epoch
    /// model snapshot — crash-window epochs included (the model is
    /// unchanged, but the epoch stream must stay contiguous), non-member
    /// epochs not, so a pre-connected joiner thread publishes exactly the
    /// epochs a late-dialing joiner process does.
    pub serve: Option<&'a SnapshotQueue<M>>,
}

/// Encodes a joiner's late-attestation evidence for the wire: the quote
/// travels as an attestation payload inside the `Join` control frame.
///
/// # Errors
/// When the node has no enclave or its platform refuses the quote.
pub fn encode_evidence<M: Model>(
    dir: &TeeDirectory,
    node: &mut Node<M>,
    epoch: usize,
) -> Result<Vec<u8>, String> {
    let id = node.id();
    let quote = rex_tee::join::joiner_evidence(
        dir.seed,
        epoch,
        id,
        node.enclave_mut()
            .ok_or_else(|| format!("node {id}: SGX join without an enclave"))?,
        dir.platform_of(id),
    )?;
    Ok(encode_payload(&Payload::Attestation(
        AttestationMsg::Hello { quote },
    )))
}

/// A member's admission check on the evidence a joiner presented.
fn verify_evidence<M: Model>(
    dir: &TeeDirectory,
    node: &mut Node<M>,
    joiner: usize,
    epoch: usize,
    evidence: &[u8],
) -> Result<(), String> {
    let id = node.id();
    let payload = decode_payload(evidence)
        .map_err(|e| format!("node {id}: joiner {joiner} evidence undecodable: {e}"))?;
    let Payload::Attestation(AttestationMsg::Hello { quote }) = payload else {
        return Err(format!(
            "node {id}: joiner {joiner} evidence is not an attestation hello"
        ));
    };
    let own = node
        .enclave_mut()
        .ok_or_else(|| format!("node {id}: SGX admission without an enclave"))?;
    rex_tee::join::verify_joiner(dir.seed, epoch, joiner, &quote, &dir.dcap, own)
        .map_err(|e| format!("node {id}: joiner {joiner} failed admission: {e}"))
}

/// Applies the slice of one membership view transition that touches
/// `node` — the only implementation of a view change: admission-check the
/// `(joiner, evidence)` pairs presented to this node (SGX: quote verified
/// through DCAP + the own-measurement rule), drop the edges it loses
/// (sessions go with them, Metropolis–Hastings degrees renormalize), add
/// the edges it gains with late-attested sessions, and — when this node
/// sponsors a joiner and is not crash-stopped this epoch — hand the
/// raw-share state bootstrap to `send`.
///
/// # Errors
/// When evidence fails admission or an SGX node lacks its enclave.
fn apply_transition<M: Model>(
    node: &mut Node<M>,
    t: &ViewTransition,
    evidence: &[(usize, Vec<u8>)],
    bootstrap_points: usize,
    faults: Option<&FaultPlan>,
    tee: Option<&TeeDirectory>,
    mut send: impl FnMut(usize, Vec<u8>),
) -> Result<(), String> {
    let id = node.id();
    if let Some(dir) = tee {
        for (joiner, bytes) in evidence {
            verify_evidence(dir, node, *joiner, t.epoch, bytes)?;
        }
    }
    for &(a, b) in &t.removed_edges {
        if a == id {
            node.remove_neighbor(b);
        } else if b == id {
            node.remove_neighbor(a);
        }
    }
    for &(a, b) in &t.added_edges {
        let peer = if a == id {
            b
        } else if b == id {
            a
        } else {
            continue;
        };
        node.add_neighbor(peer);
        if let Some(dir) = tee {
            let measurement = node
                .enclave_mut()
                .ok_or_else(|| format!("node {id}: SGX rewire without an enclave"))?
                .measurement();
            let (sa, sb) = rex_tee::join::late_session_pair(dir.seed, t.epoch, a, b, measurement);
            node.install_session(peer, if a == id { sa } else { sb })
                .map_err(|e| e.to_string())?;
        }
    }
    for &(s, j) in &t.bootstraps {
        if s == id && bootstrap_points > 0 && !faults.is_some_and(|p| p.is_down(s, t.epoch)) {
            if let Some(bytes) = node.bootstrap_for(j, bootstrap_points) {
                send(j, bytes);
            }
        }
    }
    Ok(())
}

/// What a driver feeds [`NodeRound::step`]: the answer to the
/// [`Action`] the machine waits on.
#[derive(Debug)]
pub enum Input<'t> {
    /// Epoch `epoch` opens (answers [`Action::Report`]): the view change
    /// it opens, if any, and whether the node is in the view after it.
    Open {
        epoch: usize,
        transition: Option<&'t ViewTransition>,
        member: bool,
    },
    /// The `(joiner, evidence)` pairs presented to this node.
    Synced(Vec<(usize, Vec<u8>)>),
    /// The epoch's inbox, in canonical order.
    Inbox(Vec<Envelope>),
    /// The barrier completed.
    Released(BarrierKind),
    /// The peer commitments received since the last drain.
    Commitments(Vec<PeerCommitment>),
}

/// What a [`NodeRound`] waits on: the driver carries it out and answers
/// with the matching [`Input`].
pub enum Action<'r> {
    /// Bring the fabric's view up to this transition (admit the joiners,
    /// retire the leavers); answer [`Input::Synced`].
    ViewSync(&'r ViewTransition),
    /// Drain the inbox; answer [`Input::Inbox`].
    Recv,
    /// Block until the barrier completes; answer [`Input::Released`].
    Wait(BarrierKind),
    /// Drain the peers' commitments; answer [`Input::Commitments`].
    TakeCommitments,
    /// The epoch is over (`report` is `None` when the node sat it out);
    /// open the next with [`Input::Open`].
    Report {
        epoch: usize,
        report: Option<EpochReport>,
    },
    /// The epoch opens this node's own leave: stop, before any of its
    /// barriers. Its peers retire it at the same schedule point.
    Leave,
}

/// What a [`NodeRound`] hands its driver's sink during a step, in order,
/// without waiting for an answer.
pub enum Effect<'r, M> {
    /// Send `bytes` to the node.
    Send(usize, Vec<u8>),
    /// Broadcast the node's signed commitment under chain `index` (its
    /// executed-epoch count, which the HMAC tag binds).
    SendCommitment {
        index: u64,
        commitment: EpochCommitment,
    },
    /// Announce arrival at a barrier.
    Arrive(BarrierKind),
    /// Publish `model` as member epoch `epoch`'s immutable snapshot (a
    /// driver without a serve queue ignores it).
    Publish { epoch: usize, model: &'r M },
}

/// Where a [`NodeRound`] stands: what its next input answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum At {
    Closed,
    Syncing,
    Receiving,
    /// On the view barrier (a round barrier).
    Viewing,
    Waiting(BarrierKind),
    Auditing,
    Left,
}

/// One node's round as a sans-IO state machine: it holds the node and the
/// per-run round state (the executed-epoch chain index, the audit drain
/// with its [`TagVerifier`]) and borrows the fault plan and the TEE
/// directory. See the module docs for the epoch it sequences.
pub struct NodeRound<'a, M: Model> {
    node: &'a mut Node<M>,
    faults: Option<&'a FaultPlan>,
    tee: Option<&'a TeeDirectory>,
    bootstrap_points: usize,
    /// Under an audit, the run's verification keys (each peer's key is
    /// derived once, the first time its commitment is checked).
    audit: Option<TagVerifier>,
    /// Epochs executed this run: mirrors the node's chain index, since
    /// [`Node::epoch_back`] runs exactly once per executed epoch.
    executed: u64,
    at: At,
    epoch: usize,
    member: bool,
    transition: Option<ViewTransition>,
    outgoing: Vec<(usize, Vec<u8>)>,
    pending: Option<PendingEpoch>,
    report: Option<EpochReport>,
}

impl<'a, M: Model> NodeRound<'a, M> {
    /// A round for `node`, before its first epoch. `bootstrap_points` is
    /// the membership plan's bootstrap size (`0` without a plan).
    #[must_use]
    pub fn new(
        node: &'a mut Node<M>,
        faults: Option<&'a FaultPlan>,
        tee: Option<&'a TeeDirectory>,
        audit: Option<WireAudit>,
        bootstrap_points: usize,
    ) -> Self {
        let audit = audit.map(|a| TagVerifier::new(a.seed));
        NodeRound {
            node,
            faults,
            tee,
            bootstrap_points,
            audit,
            executed: 0,
            at: At::Closed,
            epoch: 0,
            member: true,
            transition: None,
            outgoing: Vec::new(),
            pending: None,
            report: None,
        }
    }

    /// Feeds the machine the answer to what it waited on, hands `sink` the
    /// step's effects in order, and returns what it waits on next. The
    /// node's compute runs inside the step, after the arrive it overlaps:
    /// the front in the step that takes the inbox, the back in the step
    /// that takes the drain's release.
    ///
    /// # Errors
    /// When the input does not answer what the machine waited on, SGX
    /// admission fails, or a peer's commitment fails HMAC verification — a
    /// bad tag means a forged frame or diverged key material and stops
    /// the run.
    pub fn step(
        &mut self,
        input: Input<'_>,
        mut sink: impl FnMut(Effect<'_, M>),
    ) -> Result<Action<'_>, String> {
        let id = self.node.id();
        Ok(match (self.at, input) {
            (
                At::Closed,
                Input::Open {
                    epoch,
                    transition,
                    member,
                },
            ) => {
                self.epoch = epoch;
                self.member = member;
                match transition {
                    Some(t) if t.left.contains(&id) => {
                        // A graceful leaver detaches from the overlay.
                        apply_transition(self.node, t, &[], 0, None, None, |_, _| {})?;
                        self.at = At::Left;
                        Action::Leave
                    }
                    Some(t) => {
                        self.at = At::Syncing;
                        Action::ViewSync(self.transition.insert(t.clone()))
                    }
                    None => self.recv(),
                }
            }
            (At::Syncing, Input::Synced(evidence)) => {
                let t = self.transition.take().unwrap_or_default();
                let (points, faults, tee) = (self.bootstrap_points, self.faults, self.tee);
                let send = |to, bytes| sink(Effect::Send(to, bytes));
                apply_transition(self.node, &t, &evidence, points, faults, tee, send)?;
                sink(Effect::Arrive(BarrierKind::Round));
                self.at = At::Viewing;
                Action::Wait(BarrierKind::Round)
            }
            (At::Viewing, Input::Released(BarrierKind::Round)) => self.recv(),
            (At::Receiving, Input::Inbox(inbox)) => {
                let runs = self.member && !self.faults.is_some_and(|p| p.is_down(id, self.epoch));
                sink(Effect::Arrive(BarrierKind::Drain));
                // A node sitting the round out discards its inbox.
                if runs {
                    let (outgoing, pending) = self.node.epoch_front(inbox);
                    self.outgoing = outgoing;
                    self.pending = Some(pending);
                }
                self.wait(BarrierKind::Drain)
            }
            (At::Waiting(BarrierKind::Drain), Input::Released(BarrierKind::Drain)) => {
                for (to, bytes) in self.outgoing.drain(..) {
                    sink(Effect::Send(to, bytes));
                }
                // A shipped commitment travels ahead of the round token,
                // so under an audit the back cannot wait for the gap.
                let audited = self.audit.is_some();
                if let Some(pending) = self.pending.take_if(|_| audited) {
                    let index = self.executed;
                    let commitment = self.back(pending).commitment;
                    sink(Effect::SendCommitment { index, commitment });
                }
                sink(Effect::Arrive(BarrierKind::Round));
                if let Some(pending) = self.pending.take() {
                    self.back(pending);
                }
                self.wait(BarrierKind::Round)
            }
            (At::Waiting(BarrierKind::Round), Input::Released(BarrierKind::Round)) => {
                if self.audit.is_some() {
                    self.at = At::Auditing;
                    Action::TakeCommitments
                } else {
                    self.conclude(sink)
                }
            }
            (At::Auditing, Input::Commitments(received)) => {
                if let Some(keys) = self.audit.as_mut() {
                    for pc in received {
                        let commitment = EpochCommitment {
                            digest: pc.digest,
                            tag: pc.tag,
                        };
                        if !keys.verify(pc.from, pc.epoch as usize, &commitment) {
                            return Err(format!(
                                "node {id}: commitment from node {} at epoch {} failed HMAC \
                                 verification — replay it with `rex-node --challenge {}`",
                                pc.from, pc.epoch, pc.from
                            ));
                        }
                    }
                }
                self.conclude(sink)
            }
            (at, _) => {
                return Err(format!(
                    "node {id}: round input out of order at {at:?} in epoch {}",
                    self.epoch
                ))
            }
        })
    }

    fn recv(&mut self) -> Action<'static> {
        self.at = At::Receiving;
        Action::Recv
    }

    fn wait(&mut self, kind: BarrierKind) -> Action<'static> {
        self.at = At::Waiting(kind);
        Action::Wait(kind)
    }

    /// Runs the back of an executed epoch; advances the chain index.
    fn back(&mut self, pending: PendingEpoch) -> EpochReport {
        let report = self.node.epoch_back(pending);
        self.executed += 1;
        *self.report.insert(report)
    }

    /// Ends the epoch: a member publishes the post-epoch model (the clone
    /// a driver publishes is what makes mid-epoch tearing structurally
    /// impossible for a serve thread), then the epoch is reported.
    fn conclude(&mut self, mut sink: impl FnMut(Effect<'_, M>)) -> Action<'static> {
        if self.member {
            sink(Effect::Publish {
                epoch: self.epoch,
                model: self.node.model(),
            });
        }
        self.at = At::Closed;
        Action::Report {
            epoch: self.epoch,
            report: self.report.take(),
        }
    }
}

/// Runs `node` through `epochs` over `endpoint`, calling `on_epoch` after
/// every epoch it served: the [`NodeRound`] driver that maps each action
/// onto the endpoint. Stops early, before any of that epoch's barriers,
/// at the epoch the node's **own leave** opens — its peers retire it at
/// the same schedule point.
///
/// A node outside the current membership view (a pre-connected fabric's
/// future joiner, or a node excluded as crash-dead) serves the round's
/// barriers exactly like a crash-stopped one, runs no protocol, and
/// still drains its peers' commitments so the buffer stays bounded.
///
/// # Errors
/// When the transport surfaces a peer failure
/// ([`TransportError`](rex_net::transport::TransportError)), SGX
/// admission fails, or a peer's commitment fails HMAC verification — so
/// a deployed binary exits cleanly and an in-process driver can name the
/// node that failed.
pub fn run_node_loop<M: Model, E: Endpoint>(
    node: &mut Node<M>,
    endpoint: &mut E,
    epochs: Range<usize>,
    ctx: RoundContext<'_, M>,
    on_epoch: impl FnMut(EpochEvent),
) -> Result<(), String> {
    Drive::new(node, epochs, ctx, None).run(endpoint, on_epoch)
}

/// How long a bounded-async node waits for the `k` neighbour shares
/// that gate an epoch before declaring the cluster wedged. Generous for
/// the same reason the barrier timeout is: slow CI machines, not
/// protocol latency, set the ceiling.
pub const ASYNC_EPOCH_TIMEOUT: Duration = Duration::from_secs(120);

/// The bounded-staleness per-node loop (`driver = "bounded-async"`): no
/// round barriers at all. A node proceeds into epoch `e ≥ 1` once shares
/// from at least `min(k, degree)` distinct neighbours are consumable,
/// merging whatever has arrived in canonical order (ascending sender,
/// per-sender FIFO) and letting stragglers' shares merge in a later
/// epoch. Staleness is bounded structurally: at epoch `e` at most `e`
/// shares per sender have ever been consumed (the *consumption cap*),
/// so no node runs ahead of a neighbour by more than the in-flight
/// window, and a `k ≥ degree` setting degenerates to lockstep's
/// schedule without the barrier syscalls. A frame from a connected peer
/// that is not a neighbour is dropped on arrival.
///
/// The same [`NodeRound`] runs the epoch; this driver answers its
/// arrives and waits locally and flushes the staged frames at the round
/// wait, so the order is front → send → back → flush → publish.
///
/// Liveness needs every neighbour to send every epoch, which is why the
/// `rex-node` config layer pins this driver to `algorithm = "dpsgd"` and
/// rejects `[faults]`/`[membership]` sections: the minimum-epoch node
/// always finds `min(k, degree)` consumable shares, since each neighbour
/// has completed every epoch it is waiting on. Every epoch executes, so
/// the commitment chain index is the epoch and every epoch publishes.
///
/// **The speed-vs-fidelity contract:** unlike every other path in this
/// repo, trajectories (and serve digests) here are *not*
/// bit-reproducible across runs on real sockets — arrival timing decides
/// how many consumable shares (beyond the `k` floor, up to the cap) each
/// epoch merges.
///
/// # Errors
/// When an epoch's share floor does not arrive within
/// [`ASYNC_EPOCH_TIMEOUT`], the transport fails a flush, or a peer's
/// commitment fails HMAC verification. There is no barrier here, so a
/// peer's commitment may be drained an epoch late, but each frame
/// verifies statelessly against its own chain index.
pub fn run_node_loop_async<M: Model, E: Endpoint>(
    node: &mut Node<M>,
    endpoint: &mut E,
    epochs: usize,
    k: usize,
    audit: Option<WireAudit>,
    serve: Option<&SnapshotQueue<M>>,
    on_epoch: impl FnMut(EpochEvent),
) -> Result<(), String> {
    let paced = AsyncInbox {
        k,
        peers: node
            .neighbors()
            .iter()
            .map(|&s| (s, VecDeque::new(), 0))
            .collect(),
    };
    let ctx = RoundContext {
        faults: None,
        view: None,
        tee: None,
        audit,
        serve,
    };
    Drive::new(node, 0..epochs, ctx, Some(paced)).run(endpoint, on_epoch)
}

/// The bounded-async inbox policy: per-neighbour arrival queues (wire
/// order = that sender's epoch order, TCP is FIFO per link) and how many
/// shares of each were consumed.
pub(crate) struct AsyncInbox {
    k: usize,
    /// `(sender, queued shares, shares consumed)`, in neighbour order.
    peers: Vec<(usize, VecDeque<Vec<u8>>, usize)>,
}

impl AsyncInbox {
    /// Queues what arrived. A frame from a peer that is not a neighbour
    /// has no queue and is dropped: nothing would ever consume it.
    fn queue(&mut self, arrived: Vec<Envelope>) {
        for env in arrived {
            if let Some((_, queue, _)) = self.peers.iter_mut().find(|(s, ..)| *s == env.from) {
                queue.push_back(env.bytes);
            }
        }
    }

    /// Waits until shares from `min(k, degree)` neighbours are consumable
    /// (none at epoch 0: nobody has sent yet), then takes every
    /// consumable share in canonical order, capped so nothing from a
    /// sender's epoch ≥ `epoch` slips in early.
    fn gather<E: Endpoint>(
        &mut self,
        endpoint: &mut E,
        epoch: usize,
    ) -> Result<Vec<Envelope>, String> {
        let required = if epoch == 0 {
            0
        } else {
            self.k.min(self.peers.len())
        };
        let deadline = Instant::now() + ASYNC_EPOCH_TIMEOUT;
        loop {
            self.queue(endpoint.recv());
            let consumable = self
                .peers
                .iter()
                .filter(|(_, queue, taken)| *taken < epoch && !queue.is_empty())
                .count();
            if consumable >= required {
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "node {}: epoch {epoch} stalled waiting for {required} \
                     neighbour shares ({consumable} arrived)",
                    endpoint.id()
                ));
            }
            self.queue(endpoint.recv_wait(Duration::from_millis(100)));
        }
        let mut inbox = Vec::new();
        for (from, queue, taken) in &mut self.peers {
            while *taken < epoch {
                let Some(bytes) = queue.pop_front() else {
                    break;
                };
                *taken += 1;
                inbox.push(Envelope { from: *from, bytes });
            }
        }
        Ok(inbox)
    }
}

/// The endpoint driver: a node's [`NodeRound`] with every effect and
/// action carried out on the node's endpoint, as a resumable step.
/// [`Drive::step`] runs the machine until it has arrived at a barrier and
/// waits on it, ends an epoch, or ends; whoever scheduled the step
/// answers the wait with [`Drive::wait`]. A thread answers at once
/// ([`Drive::run`]); the engine's pool ([`crate::pool`]) steps every node
/// up to the same barrier and answers each wait from its driver thread,
/// once every endpoint has arrived.
///
/// Without `paced` every action maps onto the endpoint; with it, the
/// bounded-async policy gathers the inbox, arrives are dropped, the
/// drain wait is released at once and the round wait only flushes.
pub(crate) struct Drive<'a, M: Model> {
    round: NodeRound<'a, M>,
    view: Option<&'a mut MembershipView>,
    serve: Option<&'a SnapshotQueue<M>>,
    paced: Option<AsyncInbox>,
    /// The epochs not yet opened.
    epochs: Range<usize>,
    epoch: usize,
    /// The barrier the machine waits on; `None` between epochs.
    waits: Option<BarrierKind>,
}

impl<'a, M: Model> Drive<'a, M> {
    /// The drive of `node` through `epochs`.
    pub(crate) fn new(
        node: &'a mut Node<M>,
        epochs: Range<usize>,
        ctx: RoundContext<'a, M>,
        paced: Option<AsyncInbox>,
    ) -> Self {
        let points = ctx.view.as_deref().map_or(0, |v| v.plan().bootstrap_points);
        Drive {
            round: NodeRound::new(node, ctx.faults, ctx.tee, ctx.audit, points),
            view: ctx.view,
            serve: ctx.serve,
            paced,
            epoch: epochs.start,
            epochs,
            waits: None,
        }
    }

    /// Steps the machine on `endpoint` until it waits on a barrier it
    /// arrived at or ends an epoch, handing the epoch to `on_epoch`; call
    /// [`Drive::wait`] before stepping again. Returns whether the drive
    /// goes on: `false` once its last epoch ended or the node left.
    ///
    /// # Errors
    /// When the transport surfaces a peer failure, SGX admission fails,
    /// or a peer's commitment fails HMAC verification.
    pub(crate) fn step<E: Endpoint>(
        &mut self,
        endpoint: &mut E,
        on_epoch: &mut impl FnMut(EpochEvent),
    ) -> Result<bool, String> {
        let id = endpoint.id();
        let transition;
        let mut input = match self.waits.take() {
            Some(kind) => Input::Released(kind),
            None => {
                let Some(epoch) = self.epochs.next() else {
                    return Ok(false);
                };
                self.epoch = epoch;
                endpoint.epoch_begin(epoch);
                transition = self.view.as_deref_mut().and_then(|v| v.advance(epoch));
                Input::Open {
                    epoch,
                    transition: transition.as_ref(),
                    member: self.view.as_deref().is_none_or(|v| v.is_member(id)),
                }
            }
        };
        let epoch = self.epoch;
        loop {
            let (paced, serve) = (self.paced.is_some(), self.serve);
            let action = self.round.step(input, |effect| match effect {
                Effect::Send(to, bytes) => endpoint.send(to, bytes),
                Effect::SendCommitment { index, commitment } => {
                    endpoint.send_commitment(index, commitment.digest, commitment.tag);
                }
                Effect::Arrive(kind) => {
                    if !paced {
                        endpoint.arrive(kind);
                    }
                }
                Effect::Publish { epoch, model } => {
                    if let Some(queue) = serve {
                        queue.publish_model(epoch, Arc::new(model.clone()));
                    }
                }
            })?;
            input = match action {
                Action::ViewSync(t) => {
                    endpoint
                        .view_sync(epoch, &t.joined, &t.left)
                        .map_err(|e| format!("node {id}: view sync at epoch {epoch}: {e}"))?;
                    // Evidence is present exactly when this endpoint
                    // admitted the joiner's connection (the distributed
                    // TCP path); on pre-connected fabrics there is
                    // nothing to check.
                    let evidence = t
                        .joined
                        .iter()
                        .filter_map(|&j| Some((j, endpoint.join_evidence(j)?)))
                        .collect();
                    Input::Synced(evidence)
                }
                Action::Recv => Input::Inbox(match self.paced.as_mut() {
                    Some(policy) => policy.gather(endpoint, epoch)?,
                    None => endpoint.recv(),
                }),
                Action::Wait(kind) => {
                    self.waits = Some(kind);
                    return Ok(true);
                }
                Action::TakeCommitments => Input::Commitments(endpoint.take_commitments()),
                Action::Report { epoch, report } => {
                    on_epoch(EpochEvent {
                        epoch,
                        report,
                        delivery: endpoint.take_delivery(),
                    });
                    return Ok(!self.epochs.is_empty());
                }
                Action::Leave => {
                    self.epochs.start = self.epochs.end;
                    return Ok(false);
                }
            };
        }
    }

    /// Blocks on the barrier the last step stopped at, if it stopped at
    /// one. Bounded-async pushes the staged frames onto the wire without
    /// waiting for anyone: flush is the only synchronous part of its
    /// round.
    ///
    /// # Errors
    /// When the transport surfaces a peer failure.
    pub(crate) fn wait<E: Endpoint>(&self, endpoint: &mut E) -> Result<(), String> {
        let Some(kind) = self.waits else {
            return Ok(());
        };
        let (id, epoch) = (endpoint.id(), self.epoch);
        match (&self.paced, kind) {
            (None, _) => endpoint.wait(kind),
            (Some(_), BarrierKind::Round) => endpoint.flush_sends(),
            (Some(_), BarrierKind::Drain) => Ok(()),
        }
        .map_err(|e| format!("node {id}: {kind:?} wait at epoch {epoch}: {e}"))
    }

    /// Runs the drive to its end on this thread, answering every wait at
    /// once.
    ///
    /// # Errors
    /// As [`Drive::step`] and [`Drive::wait`].
    pub(crate) fn run<E: Endpoint>(
        mut self,
        endpoint: &mut E,
        mut on_epoch: impl FnMut(EpochEvent),
    ) -> Result<(), String> {
        while self.step(endpoint, &mut on_epoch)? {
            self.wait(endpoint)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::ring;
    use rex_net::mem::MemNetwork;
    use rex_net::transport::Transport;

    /// Per node, the per-epoch RMSE bits of a bounded-async run of a
    /// 4-node ring (`k` = degree, so the schedule is lockstep's and the
    /// run deterministic) on a fabric with a fifth endpoint, connected to
    /// every node and neighbour of none, which first sends `stray`
    /// frames to each of them.
    fn async_ring_beside(stray: usize) -> Vec<Vec<Option<u64>>> {
        let mut nodes = ring(4);
        let mut endpoints = MemNetwork::new(5).into_endpoints();
        let outsider = endpoints.pop().expect("five endpoints");
        for to in 0..4 {
            for i in 0..stray {
                outsider.send(to, vec![i as u8; 24]);
            }
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = nodes
                .iter_mut()
                .zip(endpoints)
                .map(|(node, mut endpoint)| {
                    scope.spawn(move || {
                        let mut rmse = Vec::new();
                        run_node_loop_async(node, &mut endpoint, 5, 2, None, None, |ev| {
                            rmse.push(ev.outcome().rmse_bits);
                        })
                        .expect("bounded-async run");
                        rmse
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("node thread"))
                .collect()
        })
    }

    /// A member's admission check on the evidence an SGX joiner presents
    /// (the quote its `Join` frame carries on the TCP `--join` path):
    /// accepted for the joiner and epoch it was made for, refused with an
    /// error naming the joiner for any other, or for a payload that is no
    /// attestation.
    #[test]
    fn a_member_admits_a_joiner_only_on_its_own_evidence() {
        let mut nodes = ring(4);
        let (_, dir) = crate::setup::establish_tee_with_directory(
            &mut nodes,
            &mut MemNetwork::new(4),
            rex_tee::SgxCostModel::default(),
            1,
            0xE0,
        );
        let evidence = encode_evidence(&dir, &mut nodes[3], 2).expect("joiner evidence");
        let member = &mut nodes[0];
        assert_eq!(verify_evidence(&dir, member, 3, 2, &evidence), Ok(()));
        let clear = encode_payload(&Payload::Clear(vec![1, 2, 3]));
        for (joiner, epoch, bytes) in [(3, 5, &evidence), (2, 2, &evidence), (3, 2, &clear)] {
            let refused = verify_evidence(&dir, member, joiner, epoch, bytes)
                .expect_err("foreign evidence must be refused");
            assert!(
                refused.contains(&format!("joiner {joiner}")),
                "joiner {joiner}, epoch {epoch}: {refused}"
            );
        }
    }

    /// A frame from a connected peer that is no neighbour (another
    /// topology in its config, say) is dropped on arrival: it neither
    /// panics the loop nor waits in a queue nothing drains, and the run
    /// is the run without it.
    #[test]
    fn a_frame_from_a_non_neighbour_is_dropped_by_the_async_loop() {
        let clean = async_ring_beside(0);
        assert!(clean.iter().all(|epochs| epochs.len() == 5));
        assert_eq!(async_ring_beside(3), clean);
    }
}
