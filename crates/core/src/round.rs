//! The per-node round loop: one node, one [`Endpoint`], one thread.
//!
//! This is the loop a deployed `rex-node` process runs over its
//! `TcpEndpoint`, the loop every thread of the in-process cluster runs,
//! and the body of [`Driver::ThreadPerNode`](crate::engine::Driver). Per
//! epoch: membership view transition (when the epoch opens one), recv,
//! then two **split-phase** barriers with the node's compute in their
//! gaps —
//!
//! ```text
//! recv → arrive(drain) → front → wait(drain) → send
//!      → arrive(round) → back  → wait(round) → audit drain, publish
//! ```
//!
//! The front ([`Node::epoch_front`]: merge → train → share) reads only
//! the inbox already drained, and the back ([`Node::epoch_back`]: test →
//! commit) reads only the node's own model, so neither needs the barrier
//! it overlaps: a wait costs only what is left of it once the compute is
//! done. Sends still happen only after the drain wait, so no epoch-`e`
//! share can land in a slow peer's epoch-`e` inbox. Under a broadcasting
//! audit the back runs before the round arrive instead, so the
//! commitment frame travels ahead of the token. Its single-owner
//! counterpart over a whole `Transport` is `Engine::run_rounds`, which
//! calls [`Node::epoch`] (front then back); the two are held
//! bit-identical by the golden suites, and both apply a view change
//! through the one `apply_transition` here.
//!
//! [`run_node_loop_async`] is the bounded-staleness sibling: no barriers,
//! real arrival timing, and the epoch unsplit: front → send → back, then
//! audit drain → publish → report. It shares those helpers and nothing
//! else.
//!
//! A new barrier or queue counter belongs here (and a new stage span in
//! [`Node::epoch_front`] or [`Node::epoch_back`]); no other file runs a
//! node's epoch.

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
use rex_net::transport::{BarrierKind, Endpoint, TransportError};
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

/// Wire-audit posture of a per-node loop: whether to ship and whether to
/// check commitments, plus the protocol seed the commitment keys derive
/// from ([`crate::commitment::derive_key`]).
#[derive(Debug, Clone, Copy)]
pub struct WireAudit {
    /// Ship this node's signed commitments to its connected peers.
    pub broadcast: bool,
    /// HMAC-verify every commitment received from a peer.
    pub verify: bool,
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
    /// Commitment broadcast / verification posture.
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
/// raw-share state bootstrap to `send`. The per-node loop passes its
/// endpoint's evidence and `send`; the fabric loop walks the fleet with
/// `transport.send`.
///
/// # Errors
/// When evidence fails admission or an SGX node lacks its enclave.
pub(crate) fn apply_transition<M: Model>(
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
            node.install_session(peer, if a == id { sa } else { sb });
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

/// Hands an epoch's shares to the endpoint.
fn send_shares<E: Endpoint>(endpoint: &mut E, outgoing: Vec<(usize, Vec<u8>)>) {
    for (dest, bytes) in outgoing {
        endpoint.send(dest, bytes);
    }
}

/// Finishes an epoch whose shares are sent: runs its back and, under a
/// broadcasting audit, hands the endpoint its signed commitment. The
/// commitment is keyed by the node's `chain_index` (its executed-epoch
/// count, which is what the HMAC tag binds) and rides the control plane
/// behind the shares; per-link FIFO lands it before the peers' round
/// barrier completes.
fn finish<M: Model, E: Endpoint>(
    node: &mut Node<M>,
    endpoint: &mut E,
    pending: PendingEpoch,
    chain_index: u64,
    audit: Option<WireAudit>,
) -> EpochReport {
    let report = node.epoch_back(pending);
    if audit.is_some_and(|a| a.broadcast) {
        endpoint.send_commitment(chain_index, report.commitment.digest, report.commitment.tag);
    }
    report
}

/// A loop's audit posture with the run's verification keys: each peer's
/// key is derived the first time that peer's commitment is checked, once
/// per run.
struct AuditDrain {
    posture: WireAudit,
    keys: TagVerifier,
}

impl AuditDrain {
    fn new(audit: Option<WireAudit>) -> Option<AuditDrain> {
        audit.map(|posture| AuditDrain {
            posture,
            keys: TagVerifier::new(posture.seed),
        })
    }
}

/// The loop's tail, once the epoch's sends are on their way (barrier or
/// flush): drain the peers' commitments — HMAC-checking each against the
/// sender's derived key when the audit verifies; a bad tag means a forged
/// frame or diverged key material and stops the run — publish the
/// post-epoch model as an immutable snapshot (the clone is what makes
/// mid-epoch tearing structurally impossible for the serve thread), and
/// report the epoch.
fn conclude<M: Model, E: Endpoint>(
    node: &Node<M>,
    endpoint: &mut E,
    epoch: usize,
    report: Option<EpochReport>,
    audit: Option<&mut AuditDrain>,
    serve: Option<&SnapshotQueue<M>>,
    on_epoch: &mut impl FnMut(EpochEvent),
) -> Result<(), String> {
    if let Some(audit) = audit {
        for pc in endpoint.take_commitments() {
            let commitment = EpochCommitment {
                digest: pc.digest,
                tag: pc.tag,
            };
            if audit.posture.verify && !audit.keys.verify(pc.from, pc.epoch as usize, &commitment) {
                return Err(format!(
                    "node {}: commitment from node {} at epoch {} failed HMAC \
                     verification — replay it with `rex-node --challenge {}`",
                    node.id(),
                    pc.from,
                    pc.epoch,
                    pc.from
                ));
            }
        }
    }
    if let Some(queue) = serve {
        queue.publish_model(epoch, Arc::new(node.model().clone()));
    }
    on_epoch(EpochEvent {
        epoch,
        report,
        delivery: endpoint.take_delivery(),
    });
    Ok(())
}

/// Runs `node` through `epochs` over `endpoint`, calling `on_epoch` after
/// every epoch it served. Stops early, before any of that epoch's
/// barriers, at the epoch the node's **own leave** opens — its peers
/// retire it at the same schedule point.
///
/// A node outside the current membership view (a pre-connected fabric's
/// future joiner, or a node excluded as crash-dead) serves the round's
/// barriers exactly like a crash-stopped one, runs no protocol, and
/// still drains its peers' commitments so the buffer stays bounded.
///
/// # Errors
/// When the transport surfaces a peer failure ([`TransportError`]), SGX
/// admission fails, or a peer's commitment fails HMAC verification — so
/// a deployed binary exits cleanly and an in-process driver can name the
/// node that failed.
pub fn run_node_loop<M: Model, E: Endpoint>(
    node: &mut Node<M>,
    endpoint: &mut E,
    epochs: Range<usize>,
    mut ctx: RoundContext<'_, M>,
    mut on_epoch: impl FnMut(EpochEvent),
) -> Result<(), String> {
    let id = node.id();
    let barrier_err = |what: &'static str, epoch: usize| {
        move |e: TransportError| format!("node {id}: {what} at epoch {epoch}: {e}")
    };
    // Mirrors the node's internal chain index: `Node::epoch_back` is
    // called exactly once per executed epoch.
    let mut executed: u64 = 0;
    let mut drain = AuditDrain::new(ctx.audit);
    for epoch in epochs {
        endpoint.epoch_begin(epoch);
        let mut member = true;
        if let Some(v) = ctx.view.as_deref_mut() {
            if let Some(t) = v.advance(epoch) {
                if t.left.contains(&id) {
                    break;
                }
                endpoint
                    .view_sync(epoch, &t.joined, &t.left)
                    .map_err(barrier_err("view sync", epoch))?;
                // Evidence is present exactly when this endpoint admitted
                // the joiner's connection (the distributed TCP path); on
                // pre-connected fabrics there is nothing to check.
                let evidence: Vec<(usize, Vec<u8>)> = t
                    .joined
                    .iter()
                    .filter_map(|&j| Some((j, endpoint.join_evidence(j)?)))
                    .collect();
                let points = v.plan().bootstrap_points;
                apply_transition(node, &t, &evidence, points, ctx.faults, ctx.tee, |to, b| {
                    endpoint.send(to, b);
                })?;
                // The view barrier: sponsor bootstraps are delivered
                // before any member drains the epoch's inbox.
                endpoint
                    .try_sync()
                    .map_err(barrier_err("view barrier", epoch))?;
            }
            member = v.is_member(id);
        }
        let inbox = endpoint.recv();
        let runs = member && !ctx.faults.is_some_and(|p| p.is_down(id, epoch));
        // Everyone drains before anyone sends, so a fast peer's epoch-e
        // message cannot land in a slow node's epoch-e inbox. The front
        // reads only the inbox drained above, so it runs in the drain
        // barrier's gap. A node sitting the round out discards its inbox.
        endpoint.arrive(BarrierKind::Drain);
        let front = runs.then(|| node.epoch_front(inbox));
        endpoint
            .wait(BarrierKind::Drain)
            .map_err(barrier_err("drain barrier", epoch))?;
        let mut pending = front.map(|(outgoing, pending)| {
            send_shares(endpoint, outgoing);
            pending
        });
        // A broadcast commitment must travel ahead of the round token, so
        // under a broadcasting audit the back cannot wait for the gap.
        let mut report = None;
        if ctx.audit.is_some_and(|a| a.broadcast) {
            report = pending
                .take()
                .map(|p| finish(node, endpoint, p, executed, ctx.audit));
        }
        // All of this epoch's sends are delivered before anyone drains
        // the next inbox. The back reads only the node's own model, so
        // it runs in the round barrier's gap.
        endpoint.arrive(BarrierKind::Round);
        let report = report.or_else(|| pending.map(|p| node.epoch_back(p)));
        executed += u64::from(runs);
        endpoint
            .wait(BarrierKind::Round)
            .map_err(barrier_err("round barrier", epoch))?;
        let serve = ctx.serve.filter(|_| member);
        conclude(
            node,
            endpoint,
            epoch,
            report,
            drain.as_mut(),
            serve,
            &mut on_epoch,
        )?;
    }
    Ok(())
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
/// schedule without the barrier syscalls.
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
    mut on_epoch: impl FnMut(EpochEvent),
) -> Result<(), String> {
    let id = node.id();
    let neighbors: Vec<usize> = node.neighbors().to_vec();
    let width = neighbors.iter().copied().max().map_or(0, |m| m + 1);
    // Per-sender arrival queues (wire order = that sender's epoch order,
    // TCP is FIFO per link) and how many shares of each we consumed.
    let mut pending: Vec<VecDeque<Vec<u8>>> = vec![VecDeque::new(); width];
    let mut taken: Vec<usize> = vec![0; width];
    let mut drain = AuditDrain::new(audit);
    for epoch in 0..epochs {
        endpoint.epoch_begin(epoch);
        let required = if epoch == 0 {
            0 // Nobody has sent yet; lockstep's epoch-0 inbox is empty too.
        } else {
            k.min(neighbors.len())
        };
        let deadline = Instant::now() + ASYNC_EPOCH_TIMEOUT;
        loop {
            for env in endpoint.recv() {
                pending[env.from].push_back(env.bytes);
            }
            let consumable = neighbors
                .iter()
                .filter(|&&s| taken[s] < epoch && !pending[s].is_empty())
                .count();
            if consumable >= required {
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "node {id}: epoch {epoch} stalled waiting for {required} \
                     neighbour shares ({consumable} arrived)"
                ));
            }
            for env in endpoint.recv_wait(Duration::from_millis(100)) {
                pending[env.from].push_back(env.bytes);
            }
        }
        // Merge in canonical order, capped so nothing from a sender's
        // epoch ≥ `epoch` slips in early (at most `epoch` shares of each
        // sender are ever consumed before this node trains epoch `epoch`).
        let mut inbox = Vec::new();
        for &s in &neighbors {
            while taken[s] < epoch {
                let Some(bytes) = pending[s].pop_front() else {
                    break;
                };
                taken[s] += 1;
                inbox.push(Envelope { from: s, bytes });
            }
        }
        let (outgoing, pending) = node.epoch_front(inbox);
        send_shares(endpoint, outgoing);
        let report = finish(node, endpoint, pending, epoch as u64, audit);
        // Push the staged frames onto the wire without waiting for
        // anyone: flush is the only synchronous part of the round.
        endpoint
            .flush_sends()
            .map_err(|e| format!("node {id}: flush at epoch {epoch}: {e}"))?;
        conclude(
            node,
            endpoint,
            epoch,
            Some(report),
            drain.as_mut(),
            serve,
            &mut on_epoch,
        )?;
    }
    Ok(())
}
