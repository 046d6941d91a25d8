//! A REX node: the trusted protocol of paper Algorithm 2 plus the SGX
//! runtime interactions of Algorithm 1.
//!
//! One [`Node::epoch`] call performs merge→train→share→test exactly once,
//! then **commits**: it advances the node's [`CommitmentChain`] by one
//! link over the model's change record — what the epoch wrote, read from
//! the model's own write log, or the whole model when that is most of it
//! (see [`crate::commitment`]) — and reports which form the link took in
//! [`EpochReport::link_rows`]. The log is cleared only there, so a round
//! the node sits out neither adds a link nor drops a write. The epoch
//! comes in two halves that [`crate::round::NodeRound`], the one
//! sequencer of a node's epoch, calls apart: [`Node::epoch_front`]
//! (merge→train→share) and [`Node::epoch_back`] (test→commit), with the
//! shares sent between them. The endpoint driver of `round` (on a thread
//! or on the engine's `pool`) delivers each node's inbox and forwards
//! its outgoing messages; the engine assembles the global trace.

use crate::commitment::{CommitmentChain, EpochCommitment};
use crate::config::{GossipAlgorithm, ProtocolConfig, SharingMode, WireCodec, SPARSE_MAX_DENSITY};
use crate::store::RawDataStore;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rex_data::{Rating, UserBlock};
use rex_ml::metrics::rmse;
use rex_ml::{Model, ModelView};
use rex_net::codec::{
    decode_payload_mut, decode_plain_ref, encode_model_share, encode_share, seal_slots, PayloadRef,
    PlainRef,
};
use rex_net::mem::Envelope;
use rex_net::message::Plain;
use rex_sim::stage::{Stage, StageTimes};
use rex_sim::stopwatch::Stopwatch;
use rex_tee::epc::Region;
use rex_tee::{Enclave, SecureSession};
use rex_topology::metropolis_hastings_weight;
use std::collections::HashMap;

/// Trusted state held by an SGX-mode node.
pub struct NodeTee {
    /// The node's enclave (identity + cost accounting).
    pub enclave: Enclave,
    /// Established secure sessions, one per attested neighbour.
    pub sessions: HashMap<usize, SecureSession>,
}

/// [`Node::install_session`] on a node without an enclave: a session
/// lives inside the enclave, so a native node cannot hold one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoEnclave {
    /// The node asked to hold the session.
    pub node: usize,
}

impl std::fmt::Display for NoEnclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {}: a session needs an enclave, and none is installed",
            self.node
        )
    }
}

impl std::error::Error for NoEnclave {}

/// What one epoch produced, from the node's own perspective.
#[derive(Debug, Clone, Copy)]
pub struct EpochReport {
    /// Per-stage durations (measured compute + SGX charges).
    pub stage_times: StageTimes,
    /// Total SGX charges this epoch (0 in native mode).
    pub sgx_overhead_ns: u64,
    /// Resident protected memory estimate at the end of the epoch, bytes.
    pub ram_bytes: u64,
    /// RMSE on the local test set (`None` if the node has no test data).
    pub rmse: Option<f64>,
    /// New raw points appended to the store this epoch.
    pub new_points: usize,
    /// Plaintext bytes produced for sending this epoch.
    pub bytes_out: u64,
    /// Bytes received this epoch.
    pub bytes_in: u64,
    /// The node's signed commitment to its post-epoch model: the chained
    /// digest over its epoch history plus the identity-binding HMAC tag
    /// (see [`crate::commitment`]).
    pub commitment: EpochCommitment,
    /// How many model rows this epoch's chain link hashed — the rows
    /// written since the previous link — or `None` when the link took the
    /// full form and hashed the whole model (a chain's first link, an
    /// epoch that merged models, one that wrote over a quarter of the
    /// rows, and every link of a model without a write log).
    pub link_rows: Option<usize>,
    /// Wall time of the commit — hashing this epoch's chain link and
    /// signing it — ns. Beside [`StageTimes::total`], not inside it: the
    /// paper's epoch cost model has no audit stage, and the simulated
    /// clock does not advance by it.
    pub commit_ns: u64,
}

/// An epoch between its two halves: what [`Node::epoch_front`] measured
/// and counted that [`Node::epoch_back`] needs to finish the
/// [`EpochReport`]. A front must be finished by exactly one back before
/// the node's next epoch: until then the epoch is neither tested nor
/// committed.
#[derive(Debug)]
#[must_use = "an epoch's front is finished only by `Node::epoch_back`"]
pub struct PendingEpoch {
    stage_times: StageTimes,
    new_points: usize,
    bytes_in: u64,
    bytes_out: u64,
    merge_buffer_bytes: u64,
}

/// The decode/encode reference of the sparse model-delta codec: a
/// pristine snapshot of the node's initial model (every node of a fleet
/// starts from the same shared initialization, so deltas against one
/// node's snapshot apply against any other's) plus its cached
/// fingerprint, computed once so per-message encoding never rehashes the
/// full parameter tables.
struct SparseRef<M: Model> {
    reference: M,
    fingerprint: u64,
}

/// A REX participant.
pub struct Node<M: Model> {
    id: usize,
    neighbors: Vec<usize>,
    model: M,
    store: RawDataStore,
    test_data: Vec<Rating>,
    cfg: ProtocolConfig,
    rng: StdRng,
    tee: Option<NodeTee>,
    sparse: Option<SparseRef<M>>,
    /// The contiguous user-row block this node hosts, when it is a
    /// multi-user shard (width > 1). `None` runs the legacy per-user
    /// paths bit-for-bit — the `users_per_node = 1` determinism anchor.
    shard: Option<UserBlock>,
    /// Chained model-digest commitment state, advanced once per executed
    /// epoch over the model's change record.
    chain: CommitmentChain,
    /// Epochs this node has executed (the chain's link counter — counts
    /// *executed* epochs, so a late joiner's chain starts at its first
    /// member epoch, identically on every backend).
    epochs_run: usize,
    /// Test builds: the epoch whose front panics, standing in for a bug
    /// in a node's compute that its driver must report.
    #[cfg(test)]
    panic_at: Option<usize>,
}

/// Assembles a [`Node`]: the builder carries everything
/// [`Node::epoch`] needs, so new parameters (like the shard block) grow
/// a named setter instead of another positional argument.
///
/// ```
/// # use rex_core::Node;
/// # use rex_core::config::ProtocolConfig;
/// # use rex_ml::{MfHyperParams, MfModel};
/// let node: Node<MfModel> =
///     Node::builder(0, MfModel::new(4, 8, MfHyperParams::default(), 3.5, 1))
///         .neighbors(vec![1, 2])
///         .protocol(ProtocolConfig::default())
///         .build();
/// assert_eq!(node.degree(), 2);
/// ```
pub struct NodeBuilder<M: Model> {
    id: usize,
    model: M,
    neighbors: Vec<usize>,
    train: Vec<Rating>,
    test: Vec<Rating>,
    cfg: ProtocolConfig,
    shard: Option<UserBlock>,
    #[cfg(test)]
    panic_at: Option<usize>,
}

impl<M: Model> NodeBuilder<M> {
    /// Test builds: the node's front panics in `epoch`.
    #[cfg(test)]
    pub(crate) fn panic_at(mut self, epoch: usize) -> Self {
        self.panic_at = Some(epoch);
        self
    }

    /// Neighbour list in the gossip topology (default: isolated).
    #[must_use]
    pub fn neighbors(mut self, neighbors: Vec<usize>) -> Self {
        self.neighbors = neighbors;
        self
    }

    /// Initial local training ratings (default: empty store).
    #[must_use]
    pub fn train(mut self, train: Vec<Rating>) -> Self {
        self.train = train;
        self
    }

    /// Local held-out test ratings (default: none — RMSE is `None`).
    #[must_use]
    pub fn test(mut self, test: Vec<Rating>) -> Self {
        self.test = test;
        self
    }

    /// Protocol parameters (default: [`ProtocolConfig::default`]).
    #[must_use]
    pub fn protocol(mut self, cfg: ProtocolConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Declares this node a **user shard** hosting the contiguous row
    /// block `block`: the store gains a row index and training routes
    /// through the model's batched row-block path. Width-1 blocks are
    /// normalized away — a single-user shard *is* the legacy node, and
    /// keeps its bit-exact trajectory.
    #[must_use]
    pub fn shard(mut self, block: UserBlock) -> Self {
        self.shard = Some(block);
        self
    }

    /// Builds the node (Algorithm 2, ecall_init).
    #[must_use]
    pub fn build(self) -> Node<M> {
        let shard = self.shard.filter(|b| b.width() > 1);
        // Sparse mode snapshots the untrained model as the fleet-shared
        // delta reference (costs one model clone of resident memory).
        let sparse = self.cfg.codec.is_sparse().then(|| SparseRef {
            fingerprint: self.model.ref_fingerprint(),
            reference: self.model.clone(),
        });
        let store = RawDataStore::for_space(self.model.cells(), shard, self.train);
        Node {
            chain: CommitmentChain::new(self.cfg.seed, self.id),
            id: self.id,
            neighbors: self.neighbors,
            model: self.model,
            store,
            test_data: self.test,
            cfg: self.cfg,
            rng: StdRng::seed_from_u64(self.cfg.seed.wrapping_add(self.id as u64)),
            tee: None,
            sparse,
            shard,
            epochs_run: 0,
            #[cfg(test)]
            panic_at: self.panic_at,
        }
    }
}

impl<M: Model> Node<M> {
    /// Starts building a node from the two mandatory pieces: its id and
    /// its initial model — a new or decoded one (or a clone of one) that
    /// no change record has been taken from, so that the chain's first
    /// link commits to all of it. Everything else is a named setter.
    #[must_use]
    pub fn builder(id: usize, model: M) -> NodeBuilder<M> {
        NodeBuilder {
            id,
            model,
            neighbors: Vec::new(),
            train: Vec::new(),
            test: Vec::new(),
            cfg: ProtocolConfig::default(),
            shard: None,
            #[cfg(test)]
            panic_at: None,
        }
    }

    /// Node id.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Neighbour list.
    #[must_use]
    pub fn neighbors(&self) -> &[usize] {
        &self.neighbors
    }

    /// Degree in the topology.
    #[must_use]
    pub fn degree(&self) -> u32 {
        self.neighbors.len() as u32
    }

    /// Removes `peer` from the neighbour list (crash-stop repair: a node
    /// that is dead for the whole run is pruned from everyone's view
    /// before TEE setup, so it is neither attested nor addressed and the
    /// Metropolis–Hastings weights renormalize over the surviving
    /// degree). Returns whether the peer was present; removing an absent
    /// peer is a no-op.
    pub fn remove_neighbor(&mut self, peer: usize) -> bool {
        let before = self.neighbors.len();
        self.neighbors.retain(|&n| n != peer);
        if let Some(tee) = self.tee.as_mut() {
            tee.sessions.remove(&peer);
        }
        self.neighbors.len() != before
    }

    /// Adds `peer` to the neighbour list, keeping it sorted ascending
    /// (live topology rewiring: a joining node's latent edges
    /// materialize, or an overlay repair bridges two components after a
    /// leave — see [`crate::membership`]). The Metropolis–Hastings
    /// weights renormalize automatically because they derive from the
    /// degree. In SGX mode the caller installs the late-attested session
    /// separately ([`Node::install_session`]). Returns whether the peer
    /// was inserted; adding a present peer (or self) is a no-op.
    pub fn add_neighbor(&mut self, peer: usize) -> bool {
        if peer == self.id {
            return false;
        }
        match self.neighbors.binary_search(&peer) {
            Ok(_) => false,
            Err(pos) => {
                self.neighbors.insert(pos, peer);
                true
            }
        }
    }

    /// Whether an attested session with `peer` is installed.
    #[must_use]
    pub fn has_session(&self, peer: usize) -> bool {
        self.tee
            .as_ref()
            .is_some_and(|t| t.sessions.contains_key(&peer))
    }

    /// Encodes a membership state bootstrap for a joining neighbour: a
    /// sample of `points` raw ratings from the local store, wrapped
    /// exactly like an epoch share (same codec, sealed under the
    /// late-attested session in SGX mode), so the joiner's ordinary
    /// merge path absorbs it. Consumes this node's protocol RNG — the
    /// draw is part of the deterministic trajectory, like any epoch
    /// sample.
    ///
    /// Returns `None` in SGX mode when no session with `peer` is
    /// installed: the bootstrap is dropped, as an epoch share to a
    /// recipient without a session is, and never goes out in clear
    /// text. The sample is drawn either way, so the trajectory does not
    /// depend on it.
    pub fn bootstrap_for(&mut self, peer: usize, points: usize) -> Option<Vec<u8>> {
        let ratings = self.store.sample(points, &mut self.rng);
        let degree = self.degree();
        let plain = match self.cfg.codec {
            WireCodec::Dense => Plain::RawData { ratings, degree },
            WireCodec::Sparse => Plain::RawPacked { ratings, degree },
        };
        let share = encode_share(self.tee.is_some(), &plain);
        self.seal_for(peer, share)
    }

    /// A share [`encode_share`] (or [`encode_model_share`]) wrote, ready
    /// for `dest`: sealed in place under `dest`'s session in SGX mode,
    /// as it is otherwise. `None` when an SGX node has no session with
    /// `dest`: the share is dropped, as an inbound share that does not
    /// open is, and never goes out in clear text.
    fn seal_for(&mut self, dest: usize, mut share: Vec<u8>) -> Option<Vec<u8>> {
        if let Some(tee) = self.tee.as_mut() {
            let session = tee.sessions.get_mut(&dest)?;
            let (plain, tag) = seal_slots(&mut share)?;
            tag.copy_from_slice(&session.seal_in_place(&Self::aad(self.id, dest), plain));
        }
        Some(share)
    }

    /// The local model (read access).
    #[must_use]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the node, returning its trained model.
    #[must_use]
    pub fn into_model(self) -> M {
        self.model
    }

    /// The local store (read access).
    #[must_use]
    pub fn store(&self) -> &RawDataStore {
        &self.store
    }

    /// The contiguous user-row block this node hosts, when it is a
    /// multi-user shard (`None` for legacy per-user nodes and width-1
    /// shards, which are the same thing).
    #[must_use]
    pub fn shard_block(&self) -> Option<UserBlock> {
        self.shard
    }

    /// How many virtual users this node hosts (1 when unsharded).
    #[must_use]
    pub fn users_hosted(&self) -> u32 {
        self.shard.map_or(1, |b| b.width())
    }

    /// Local test data.
    #[must_use]
    pub fn test_data(&self) -> &[Rating] {
        &self.test_data
    }

    /// Installs the enclave (SGX mode).
    pub fn install_enclave(&mut self, enclave: Enclave) {
        self.tee = Some(NodeTee {
            enclave,
            sessions: HashMap::new(),
        });
    }

    /// Installs an attested session with `peer`.
    ///
    /// # Errors
    /// [`NoEnclave`] when no enclave was installed first; the node is
    /// left as it was.
    pub fn install_session(
        &mut self,
        peer: usize,
        session: SecureSession,
    ) -> Result<(), NoEnclave> {
        let tee = self.tee.as_mut().ok_or(NoEnclave { node: self.id })?;
        tee.sessions.insert(peer, session);
        Ok(())
    }

    /// Access to the enclave, if any.
    pub fn enclave_mut(&mut self) -> Option<&mut Enclave> {
        self.tee.as_mut().map(|t| &mut t.enclave)
    }

    /// Whether this node runs inside an enclave.
    #[must_use]
    pub fn is_sgx(&self) -> bool {
        self.tee.is_some()
    }

    /// Current RMSE on the local test set.
    #[must_use]
    pub fn local_rmse(&self) -> Option<f64> {
        rmse(&self.model, &self.test_data)
    }

    fn aad(from: usize, to: usize) -> [u8; 8] {
        let mut aad = [0u8; 8];
        aad[..4].copy_from_slice(&(from as u32).to_le_bytes());
        aad[4..].copy_from_slice(&(to as u32).to_le_bytes());
        aad
    }

    /// Decodes (and in SGX mode decrypts, in place) one received envelope
    /// into its inner payload, whose model bytes stay in the envelope.
    /// Returns `None` for undecodable/unauthenticated input (dropped, as a
    /// real node would).
    fn open_envelope<'a>(&mut self, env: &'a mut Envelope) -> Option<PlainRef<'a>> {
        let from = env.from;
        match decode_payload_mut(&mut env.bytes).ok()? {
            // An SGX node takes sealed shares only: clear text from any
            // peer is dropped like any other unauthenticated input.
            PayloadRef::Clear(frame) if self.tee.is_none() => decode_plain_ref(frame).ok(),
            PayloadRef::Clear(_) => None,
            PayloadRef::Sealed(frame) => {
                let tee = self.tee.as_mut()?;
                let session = tee.sessions.get_mut(&from)?;
                let plain = session
                    .open_in_place(&Self::aad(from, self.id), frame)
                    .ok()?;
                decode_plain_ref(plain).ok()
            }
            PayloadRef::Attestation(_) => None, // handshakes are driver-handled
        }
    }

    /// Runs one merge→train→share→test epoch (Algorithm 2, rex_protocol)
    /// and commits it: [`Node::epoch_front`] then [`Node::epoch_back`],
    /// outside any round — the entry a caller that is its own network
    /// uses (the repo benchmark's per-layer epoch probe, unit tests).
    ///
    /// `inbox` holds everything received since the previous epoch. Returns
    /// the encoded outgoing messages (destination, bytes) and the report.
    pub fn epoch(&mut self, inbox: Vec<Envelope>) -> (Vec<(usize, Vec<u8>)>, EpochReport) {
        let (outgoing, pending) = self.epoch_front(inbox);
        (outgoing, self.epoch_back(pending))
    }

    /// The front of an epoch — merge → train → share: everything the
    /// outgoing shares depend on. Returns them, with the epoch's
    /// [`PendingEpoch`] for [`Node::epoch_back`] to finish. The round
    /// sends the shares between the two, so the test and the
    /// commit overlap the round barrier instead of delaying it. Nothing
    /// the back does feeds the shares: it reads the model, draws no
    /// randomness, and only clears the model's write log.
    ///
    /// A dense model share is written once and read once. The **share**
    /// stage serialises the model (`Model::write_bytes`) straight into
    /// the payload it is sent in — payload and plain headers in front, the
    /// tag slot behind — and seals it in place, copying it only for the
    /// second and later recipients. The **merge** stage opens each sealed
    /// frame in place, inside the envelope it arrived in, decodes the
    /// plain through borrowed decoders, and keeps each model as a
    /// validated view of those bytes (`Model::view`: header, shape and
    /// exact length checked once; a share that fails is dropped), which
    /// the merge reads the sender's rows from (`Model::merge_views`): no
    /// decoded copy of a neighbour's model is built. The view reports the
    /// model's logical `memory_bytes`, so the merge-buffer region and the
    /// memory-access charges are what a decoded copy would have cost. A
    /// raw share's triplets are read out of the frame as the store takes
    /// them (`RawDataStore::append_share`): no decoded copy of those
    /// either.
    ///
    /// Sharded nodes **aggregate-then-share**: the share stage samples
    /// (or serializes a delta of) the *whole shard* — one wire message
    /// per recipient carries the sampled ratings of every hosted user,
    /// or one model delta covering the shard's contiguous user rows — so
    /// wire traffic scales with the number of shards, not the number of
    /// virtual users behind them.
    pub fn epoch_front(
        &mut self,
        mut inbox: Vec<Envelope>,
    ) -> (Vec<(usize, Vec<u8>)>, PendingEpoch) {
        #[cfg(test)]
        assert!(
            self.panic_at != Some(self.epochs_run),
            "a planted panic in epoch {}",
            self.epochs_run
        );
        let mut stage_times = StageTimes::new();
        let mut charges_ns = 0u64;
        let bytes_in: u64 = inbox.iter().map(|e| e.bytes.len() as u64).sum();

        // ---- merge ----------------------------------------------------
        let mut sw = Stopwatch::start();
        // ecall_input per message (Algorithm 1 line 6).
        if let Some(tee) = self.tee.as_mut() {
            for env in &inbox {
                charges_ns += tee.enclave.charge_ecall(env.bytes.len() as u64);
            }
        }
        let mut alien_models: Vec<(u32, ModelView<'_, M>)> = Vec::new();
        let mut new_points = 0usize;
        let mut merge_buffer_bytes = 0u64;
        for env in &mut inbox {
            let Some(plain) = self.open_envelope(env) else {
                continue;
            };
            match plain {
                // The store, built for the model's cell space, drops a
                // cell outside it or a non-finite value on intake.
                PlainRef::RawData { triplets, .. } => {
                    new_points += self.store.append_share(triplets.iter());
                }
                PlainRef::RawPacked { ratings, .. } => {
                    new_points += self.store.append_share(ratings.into_iter());
                }
                PlainRef::Model { bytes, degree } => {
                    // A model comes with whatever shape its sender wrote;
                    // one not of ours is dropped, not merged.
                    if let Ok(view) = self.model.view(bytes) {
                        merge_buffer_bytes += view.memory_bytes() as u64;
                        alien_models.push((degree, view));
                    }
                }
                PlainRef::ModelDelta { bytes, degree } => {
                    // Reconstruct the sender's full model against our
                    // shared reference; a node without one (codec
                    // mismatch across the fleet) or a fingerprint
                    // mismatch drops the message like any other
                    // undecodable input.
                    if let Some(ctx) = self.sparse.as_ref() {
                        if let Ok(m) = M::apply_delta(&ctx.reference, ctx.fingerprint, bytes) {
                            merge_buffer_bytes += m.memory_bytes() as u64;
                            alien_models.push((degree, ModelView::decoded(m)));
                        }
                    }
                }
                PlainRef::Empty { .. } => {}
            }
        }
        if !alien_models.is_empty() {
            match self.cfg.algorithm {
                GossipAlgorithm::Rmw => {
                    // Gossip learning: average each received model into the
                    // local one, in arrival order (§III-C1).
                    for (_, alien) in &alien_models {
                        self.model.merge_views(&[(0.5, alien)], 0.5);
                    }
                }
                GossipAlgorithm::DPsgd => {
                    // Metropolis–Hastings weights from the senders' degrees
                    // (§III-C2).
                    let own = self.neighbors.len();
                    let contributions: Vec<(f64, &ModelView<'_, M>)> = alien_models
                        .iter()
                        .map(|(deg, m)| (metropolis_hastings_weight(own, *deg as usize), m))
                        .collect();
                    let self_weight = 1.0 - contributions.iter().map(|(w, _)| *w).sum::<f64>();
                    self.model.merge_views(&contributions, self_weight);
                }
            }
        }
        let merge_compute = sw.lap();
        if let Some(tee) = self.tee.as_mut() {
            tee.enclave
                .set_region(Region::MergeBuffers, merge_buffer_bytes);
            charges_ns += tee.enclave.charge_compute(merge_compute);
            charges_ns += tee
                .enclave
                .charge_memory_access(self.model.memory_bytes() as u64 + merge_buffer_bytes);
        }
        drop(alien_models);
        drop(inbox);
        stage_times.add(
            Stage::Merge,
            merge_compute + self.take_charges(&mut charges_ns),
        );

        // ---- train -----------------------------------------------------
        // Multi-user shards route through the batched row-block path
        // (same RNG consumption, updates swept in row order); width-1
        // nodes keep the sequential path and its bit-exact trajectory.
        match self.shard {
            Some(_) => self.model.train_steps_batched(
                self.store.ratings(),
                self.cfg.steps_per_epoch,
                &mut self.rng,
            ),
            None => self.model.train_steps(
                self.store.ratings(),
                self.cfg.steps_per_epoch,
                &mut self.rng,
            ),
        }
        let train_compute = sw.lap();
        if let Some(tee) = self.tee.as_mut() {
            let index_bytes = self.store.index_bytes() as u64;
            tee.enclave.set_region(Region::MergeBuffers, 0);
            tee.enclave
                .set_region(Region::Model, self.model.memory_bytes() as u64);
            // The shard row index is accounted apart from the triplets,
            // so per-shard deployments can read its cost directly.
            tee.enclave.set_region(
                Region::DataStore,
                self.store.memory_bytes() as u64 - index_bytes,
            );
            tee.enclave.set_region(Region::ShardIndex, index_bytes);
            charges_ns += tee.enclave.charge_compute(train_compute);
            charges_ns += tee
                .enclave
                .charge_memory_access(self.model.memory_bytes() as u64);
        }
        stage_times.add(
            Stage::Train,
            train_compute + self.take_charges(&mut charges_ns),
        );

        // ---- share -----------------------------------------------------
        let recipients: Vec<usize> = match self.cfg.algorithm {
            GossipAlgorithm::Rmw => {
                if self.neighbors.is_empty() {
                    Vec::new()
                } else {
                    let pick = self.rng.gen_range(0..self.neighbors.len());
                    vec![self.neighbors[pick]]
                }
            }
            GossipAlgorithm::DPsgd => self.neighbors.clone(),
        };
        let degree = self.degree();
        let plain = match (self.cfg.sharing, self.cfg.codec) {
            (SharingMode::RawData, WireCodec::Dense) => Some(Plain::RawData {
                ratings: self.store.sample(self.cfg.points_per_epoch, &mut self.rng),
                degree,
            }),
            (SharingMode::RawData, WireCodec::Sparse) => Some(Plain::RawPacked {
                ratings: self.store.sample(self.cfg.points_per_epoch, &mut self.rng),
                degree,
            }),
            // `None` is the dense model, serialised in place below.
            (SharingMode::Model, WireCodec::Dense) => None,
            // No reference snapshot, density past the threshold, or a
            // model with no sparse form: the dense model, as in Dense
            // mode.
            (SharingMode::Model, WireCodec::Sparse) => self.sparse.as_ref().and_then(|ctx| {
                self.model
                    .delta_bytes(&ctx.reference, ctx.fingerprint, SPARSE_MAX_DENSITY)
                    .map(|bytes| Plain::ModelDelta { bytes, degree })
            }),
        };
        // The share is written once, where it is sent from: payload
        // header, plain (a dense model serialised straight in), tag slot.
        // Sealing is in place, so each recipient but the last seals a
        // copy and the last seals the original. A share nobody receives
        // is not written at all; its sample was still drawn above, since
        // the RNG stream is the node's trajectory.
        let sealed = self.tee.is_some();
        let mut share = match &plain {
            _ if recipients.is_empty() => Vec::new(),
            Some(plain) => encode_share(sealed, plain),
            None => encode_model_share(sealed, degree, self.model.wire_size(), |buf| {
                self.model.write_bytes(buf);
            }),
        };
        let mut outgoing = Vec::with_capacity(recipients.len());
        let mut bytes_out = 0u64;
        for (nth, &dest) in recipients.iter().enumerate() {
            let copy = if nth + 1 == recipients.len() {
                std::mem::take(&mut share)
            } else {
                share.clone()
            };
            let Some(bytes) = self.seal_for(dest, copy) else {
                continue;
            };
            bytes_out += bytes.len() as u64;
            outgoing.push((dest, bytes));
        }
        let share_compute = sw.lap();
        if let Some(tee) = self.tee.as_mut() {
            tee.enclave
                .set_region(Region::MessageBuffers, bytes_in + bytes_out);
            for (_, bytes) in &outgoing {
                charges_ns += tee.enclave.charge_ocall(bytes.len() as u64);
            }
            charges_ns += tee.enclave.charge_compute(share_compute);
            charges_ns += tee.enclave.charge_memory_access(bytes_out);
        }
        stage_times.add(
            Stage::Share,
            share_compute + self.take_charges(&mut charges_ns),
        );
        (
            outgoing,
            PendingEpoch {
                stage_times,
                new_points,
                bytes_in,
                bytes_out,
                merge_buffer_bytes,
            },
        )
    }

    /// The back of an epoch — test → commit: scores the model the front
    /// left on the local test set, advances the commitment chain by one
    /// link, and returns the epoch's report.
    pub fn epoch_back(&mut self, pending: PendingEpoch) -> EpochReport {
        let PendingEpoch {
            mut stage_times,
            new_points,
            bytes_in,
            bytes_out,
            merge_buffer_bytes,
        } = pending;

        // ---- test ------------------------------------------------------
        let sw = Stopwatch::start();
        let rmse_value = rmse(&self.model, &self.test_data);
        let test_compute = sw.elapsed_ns();
        let charges_ns = self
            .tee
            .as_mut()
            .map_or(0, |tee| tee.enclave.charge_compute(test_compute));
        stage_times.add(Stage::Test, test_compute + charges_ns);

        let ram_bytes = self.resident_bytes(bytes_in + bytes_out, merge_buffer_bytes);
        let sgx_overhead_ns = self
            .tee
            .as_mut()
            .map(|t| t.enclave.take_meter().total_overhead_ns())
            .unwrap_or(0);

        // ---- commit ----------------------------------------------------
        // Chain what this epoch wrote into the node's commitment history
        // and sign it: the model's change record since the previous link
        // (the whole model on the first link and after a merge), hashed
        // as it is produced. Models are bit-identical across backends, so
        // the record and the commitment are too; the challenger
        // re-derives this exact chain by replay. Outside the staged
        // timing: auditing overhead is not part of the paper's epoch cost
        // model.
        let mut link_rows = None;
        let sw = Stopwatch::start();
        let commitment = self.chain.advance_with(self.epochs_run, |link| {
            link_rows = self.model.write_changes(link);
        });
        let commit_ns = sw.elapsed_ns();
        // The builder's model has never been recorded from, so the first
        // link fixes every row — the base case the later links rest on.
        debug_assert!(self.epochs_run > 0 || link_rows.is_none());
        self.epochs_run += 1;

        EpochReport {
            stage_times,
            sgx_overhead_ns,
            ram_bytes,
            rmse: rmse_value,
            new_points,
            bytes_out,
            bytes_in,
            commitment,
            link_rows,
            commit_ns,
        }
    }

    /// Moves accumulated charge-ns into the caller (attributing modeled SGX
    /// time to the stage that incurred it).
    fn take_charges(&self, charges: &mut u64) -> u64 {
        std::mem::take(charges)
    }

    /// Resident-memory estimate: model (+ optimizer state) + store + this
    /// epoch's message buffers + merge buffers.
    fn resident_bytes(&self, message_bytes: u64, merge_bytes: u64) -> u64 {
        self.model.memory_bytes() as u64
            + self.store.memory_bytes() as u64
            + message_bytes
            + merge_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_data::SyntheticConfig;
    use rex_ml::{MfHyperParams, MfModel};
    use rex_net::codec::{decode_payload, decode_plain, encode_payload, encode_plain};
    use rex_net::message::Payload;
    use rex_sim::stage::STAGES;

    fn mk_node(id: usize, neighbors: Vec<usize>, cfg: ProtocolConfig) -> Node<MfModel> {
        mk_node_over(20, id, neighbors, cfg)
    }

    /// [`mk_node`] with a model over `items` items: the data stays within
    /// the first 20, so a wide model's epochs write few of its rows.
    fn mk_node_over(
        items: u32,
        id: usize,
        neighbors: Vec<usize>,
        cfg: ProtocolConfig,
    ) -> Node<MfModel> {
        let ds = SyntheticConfig {
            num_users: 4,
            num_items: 20,
            num_ratings: 60,
            seed: 1,
            ..SyntheticConfig::default()
        }
        .generate();
        let by_user = ds.by_user();
        let model = MfModel::new(4, items, MfHyperParams::default(), 3.5, 42);
        Node::builder(id, model)
            .neighbors(neighbors)
            .train(by_user[id].clone())
            .test(by_user[(id + 1) % 4].clone())
            .protocol(cfg)
            .build()
    }

    fn cfg(sharing: SharingMode, algorithm: GossipAlgorithm) -> ProtocolConfig {
        ProtocolConfig {
            sharing,
            algorithm,
            points_per_epoch: 10,
            steps_per_epoch: 50,
            seed: 3,
            codec: WireCodec::Dense,
        }
    }

    #[test]
    fn epoch_zero_trains_and_shares_dpsgd() {
        let mut n = mk_node(
            0,
            vec![1, 2],
            cfg(SharingMode::RawData, GossipAlgorithm::DPsgd),
        );
        let (out, report) = n.epoch(Vec::new());
        // D-PSGD shares with all neighbours.
        assert_eq!(out.len(), 2);
        let dests: Vec<usize> = out.iter().map(|(d, _)| *d).collect();
        assert_eq!(dests, vec![1, 2]);
        assert!(report.rmse.is_some());
        assert!(report.stage_times.get(Stage::Train) > 0);
        assert_eq!(report.sgx_overhead_ns, 0); // native
        assert!(report.bytes_out > 0);
    }

    #[test]
    fn an_epoch_split_at_its_shares_is_the_epoch() {
        let c = cfg(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let (mut whole, mut split) = (mk_node(0, vec![1], c), mk_node(0, vec![1], c));
        let mut peer = mk_node(1, vec![0], c);
        for _ in 0..3 {
            let (shares, _) = peer.epoch(Vec::new());
            let (out, report) = whole.epoch(deliver(1, shares.clone()));
            let (split_out, pending) = split.epoch_front(deliver(1, shares));
            assert_eq!(split_out, out);
            let split_report = split.epoch_back(pending);
            assert_eq!(split_report.commitment, report.commitment);
            assert_eq!(split_report.rmse, report.rmse);
            assert_eq!(split_report.new_points, report.new_points);
        }
        assert_eq!(split.model().to_bytes(), whole.model().to_bytes());
    }

    #[test]
    fn a_share_nobody_receives_is_drawn_but_not_sent() {
        // D-PSGD draws nothing to pick its recipients, so a node with no
        // neighbour and its twin with one consume the same RNG stream.
        for sharing in [SharingMode::RawData, SharingMode::Model] {
            let c = cfg(sharing, GossipAlgorithm::DPsgd);
            let (mut alone, mut wired) = (mk_node(0, Vec::new(), c), mk_node(0, vec![1], c));
            for _ in 0..5 {
                let (silent, quiet) = alone.epoch(Vec::new());
                let (sent, report) = wired.epoch(Vec::new());
                assert!(silent.is_empty() && quiet.bytes_out == 0);
                assert_eq!((sent.len(), report.bytes_out > 0), (1, true));
                assert_eq!(quiet.rmse.map(f64::to_bits), report.rmse.map(f64::to_bits));
                assert_eq!(quiet.commitment, report.commitment);
            }
            assert_eq!(alone.model().to_bytes(), wired.model().to_bytes());
        }
    }

    #[test]
    fn rmw_shares_with_one_neighbor() {
        let mut n = mk_node(
            0,
            vec![1, 2, 3],
            cfg(SharingMode::RawData, GossipAlgorithm::Rmw),
        );
        for _ in 0..10 {
            let (out, _) = n.epoch(Vec::new());
            assert_eq!(out.len(), 1);
            assert!(n.neighbors().contains(&out[0].0));
        }
    }

    #[test]
    fn raw_data_messages_are_small_models_are_large() {
        let mut ds_node = mk_node(
            0,
            vec![1],
            cfg(SharingMode::RawData, GossipAlgorithm::DPsgd),
        );
        let mut ms_node = mk_node(0, vec![1], cfg(SharingMode::Model, GossipAlgorithm::DPsgd));
        let (ds_out, _) = ds_node.epoch(Vec::new());
        let (ms_out, _) = ms_node.epoch(Vec::new());
        // MF model for 4x20/k=10 is ~1.3 KiB vs 10 triplets ~130 B.
        assert!(ms_out[0].1.len() > 3 * ds_out[0].1.len());
    }

    #[test]
    fn receiving_raw_data_grows_store() {
        let c = cfg(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let mut a = mk_node(0, vec![1], c);
        let mut b = mk_node(1, vec![0], c);
        let before = b.store().len();
        let (out_a, _) = a.epoch(Vec::new());
        let inbox: Vec<Envelope> = out_a
            .into_iter()
            .map(|(_, bytes)| Envelope { from: 0, bytes })
            .collect();
        let (_, report) = b.epoch(inbox);
        assert!(report.new_points > 0);
        assert_eq!(b.store().len(), before + report.new_points);
    }

    /// Node 1 of the 4 x 20 fleet with no ratings of its own: everything
    /// it trains on came off the wire.
    fn mk_empty_node(cfg: ProtocolConfig) -> Node<MfModel> {
        let model = MfModel::new(4, 20, MfHyperParams::default(), 3.5, 42);
        Node::builder(1, model)
            .neighbors(vec![0])
            .protocol(cfg)
            .build()
    }

    #[test]
    fn a_share_outside_the_models_shape_is_dropped_not_trained_on() {
        let r = |user, item, value| Rating { user, item, value };
        let kept = r(3, 19, 4.5);
        let shares = [
            Plain::RawData {
                ratings: vec![
                    r(4, 0, 3.0),
                    r(0, 20, 3.0),
                    r(u32::MAX, u32::MAX, 3.0),
                    r(0, 0, f32::NAN),
                    r(1, 1, f32::INFINITY),
                    kept,
                ],
                degree: 1,
            },
            Plain::RawPacked {
                ratings: vec![r(4, 0, 3.0), r(0, 20, 3.0), kept],
                degree: 1,
            },
        ];
        for share in shares {
            let mut node = mk_empty_node(cfg(SharingMode::RawData, GossipAlgorithm::DPsgd));
            let bytes = encode_payload(&Payload::Clear(encode_plain(&share)));
            // Merge, then 50 SGD steps over the store: with the strays in
            // it, the trainer indexes the 4 x 20 tables with them.
            let (_, report) = node.epoch(vec![Envelope { from: 0, bytes }]);
            assert_eq!(report.new_points, 1, "{share:?}");
            assert_eq!(node.store().ratings(), [kept]);
            assert!(node.model().predict(3, 19).is_finite());
        }
    }

    #[test]
    fn an_honest_share_loses_nothing_to_the_shape_filter() {
        let c = cfg(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let mut a = mk_node(0, vec![1], c);
        let mut b = mk_empty_node(c);
        let (out_a, _) = a.epoch(Vec::new());
        let Ok(Payload::Clear(frame)) = decode_payload(&out_a[0].1) else {
            panic!("native share is a clear payload");
        };
        let Ok(Plain::RawData { ratings, .. }) = decode_plain(&frame) else {
            panic!("dense raw share");
        };
        let (_, report) = b.epoch(deliver(0, out_a));
        assert_eq!(report.new_points, ratings.len());
        assert_eq!(b.store().ratings(), ratings);
    }

    #[test]
    fn a_model_outside_the_models_shape_is_dropped_not_merged() {
        let c = cfg(SharingMode::Model, GossipAlgorithm::DPsgd);
        let (honest, _) = mk_node(0, vec![1], c).epoch(Vec::new());
        let hp = MfHyperParams::default();
        let strays = [
            MfModel::new(5, 20, hp, 3.5, 42),
            MfModel::new(4, 21, hp, 3.5, 42),
            MfModel::new(4, 20, MfHyperParams { k: 3, ..hp }, 3.5, 42),
        ];
        let mut inbox: Vec<Envelope> = strays
            .iter()
            .map(|m| {
                let plain = Plain::Model {
                    bytes: m.to_bytes(),
                    degree: 1,
                };
                Envelope {
                    from: 0,
                    bytes: encode_payload(&Payload::Clear(encode_plain(&plain))),
                }
            })
            .collect();
        inbox.extend(deliver(0, honest.clone()));
        // Every stray parses; merged, it trips the shape assertion.
        let mut node = mk_empty_node(c);
        node.epoch(inbox);
        // What is left is exactly the honest model's merge.
        let mut reference = mk_empty_node(c);
        reference.epoch(deliver(0, honest));
        assert_eq!(node.model().to_bytes(), reference.model().to_bytes());
    }

    #[test]
    fn receiving_model_changes_local_model() {
        let c = cfg(SharingMode::Model, GossipAlgorithm::DPsgd);
        let mut a = mk_node(0, vec![1], c);
        let mut b = mk_node(1, vec![0], c);
        // Train a differently so models diverge.
        let (out_a, _) = a.epoch(Vec::new());
        let rmse_before = b.local_rmse();
        let inbox: Vec<Envelope> = out_a
            .into_iter()
            .map(|(_, bytes)| Envelope { from: 0, bytes })
            .collect();
        let pred_before = b.model().predict(0, 0);
        let (_, _) = b.epoch(inbox);
        // Either predictions or rmse moved (merge + train happened).
        let moved =
            (b.model().predict(0, 0) - pred_before).abs() > 1e-9 || b.local_rmse() != rmse_before;
        assert!(moved);
    }

    fn deliver(from: usize, out: Vec<(usize, Vec<u8>)>) -> Vec<Envelope> {
        out.into_iter()
            .map(|(_, bytes)| Envelope { from, bytes })
            .collect()
    }

    /// How many rows of `after` differ from `before`, read off the row
    /// counts of the sparse delta between them.
    fn rows_changed(before: &MfModel, after: &MfModel) -> usize {
        let delta = after
            .delta_bytes(before, before.ref_fingerprint(), 1.0)
            .expect("any density encodes at 1.0");
        // Header, fingerprint and mean; then per table: count, ids,
        // packed seen flags, bias + embedding per row.
        let mut r = rex_ml::bytesio::Reader::new(&delta[16 + 8 + 4..]);
        let users = r.u32().unwrap() as usize;
        let k = before.hyper_params().k;
        r.bytes(users * 4 + users.div_ceil(8) + users * 4 * (1 + k))
            .unwrap();
        users + r.u32().unwrap() as usize
    }

    #[test]
    fn raw_sharing_links_carry_only_the_rows_an_epoch_wrote() {
        let c = cfg(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let mut a = mk_node_over(400, 0, vec![1], c);
        let mut b = mk_node_over(400, 1, vec![0], c);
        // A chain's first link fixes the whole model.
        let (mut out_a, report) = a.epoch(Vec::new());
        assert_eq!(report.link_rows, None);
        assert_eq!(b.epoch(Vec::new()).1.link_rows, None);
        for epoch in 1..6 {
            let before = b.model().clone();
            let (_, report) = b.epoch(deliver(0, out_a));
            let rows = report
                .link_rows
                .expect("a raw-sharing epoch past the first");
            assert!(rows <= 2 * c.steps_per_epoch, "epoch {epoch}: {rows} rows");
            assert!(rows >= rows_changed(&before, b.model()), "epoch {epoch}");
            (out_a, _) = a.epoch(Vec::new());
        }
        // The same epochs on the 24-row model write past a quarter of it.
        let mut small = mk_node(0, vec![1], c);
        small.epoch(Vec::new());
        assert_eq!(small.epoch(Vec::new()).1.link_rows, None);
    }

    #[test]
    fn the_commit_is_timed_beside_the_stages() {
        let c = cfg(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let mut a = mk_node_over(400, 0, vec![1], c);
        let mut reports = vec![a.epoch(Vec::new()).1];
        reports.push(a.epoch(Vec::new()).1);
        assert_eq!(reports[0].link_rows, None, "a full-form first link");
        assert!(reports[1].link_rows.is_some(), "a row-form second link");
        for report in &reports {
            assert!(report.commit_ns > 0);
            let stages: u64 = STAGES.iter().map(|&s| report.stage_times.get(s)).sum();
            assert_eq!(report.stage_times.total(), stages);
        }
    }

    #[test]
    fn an_epoch_that_merges_models_commits_the_full_model() {
        let c = cfg(SharingMode::Model, GossipAlgorithm::DPsgd);
        let mut a = mk_node_over(400, 0, vec![1], c);
        let mut b = mk_node_over(400, 1, vec![0], c);
        let (out_a, report) = a.epoch(Vec::new());
        assert_eq!(report.link_rows, None, "first link");
        let (out_b, report) = b.epoch(deliver(0, out_a));
        assert_eq!(report.link_rows, None, "first link");
        for _ in 0..2 {
            // With a model to merge the link is full; without one the
            // epoch only trained, and its link carries rows.
            let (_, report) = a.epoch(deliver(1, out_b.clone()));
            assert_eq!(report.link_rows, None);
            let (_, report) = a.epoch(Vec::new());
            assert!(report.link_rows.is_some());
        }
    }

    #[test]
    fn a_round_sat_out_neither_advances_the_chain_nor_loses_a_write() {
        let c = cfg(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let mut steady = mk_node_over(400, 0, vec![1], c);
        let mut crashed = mk_node_over(400, 0, vec![1], c);
        // A write no link has carried yet when the node goes down, on
        // rows no epoch trains.
        let stray = Rating {
            user: 3,
            item: 399,
            value: 1.0,
        };
        for node in [&mut steady, &mut crashed] {
            node.epoch(Vec::new());
            node.epoch(Vec::new());
            node.model.sgd_step(&stray);
        }
        // The crash window: round 2's inbox is dropped and `epoch` is not
        // called, so the chain still stands at two links.
        let head = crashed.chain.head();
        assert_eq!((head, crashed.epochs_run), (steady.chain.head(), 2));
        // Round 3 is the crashed node's third link — the one the steady
        // node made a round earlier, the stray rows included.
        let before = crashed.model().clone();
        let (_, back) = crashed.epoch(Vec::new());
        assert_eq!(back.commitment, steady.epoch(Vec::new()).1.commitment);
        assert_eq!(
            back.link_rows,
            Some(rows_changed(&before, crashed.model()) + 2)
        );
        assert_ne!(crashed.chain.head(), head);
    }

    #[test]
    fn one_divergent_step_stays_in_every_later_commitment() {
        let c = cfg(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let mut a = mk_node_over(400, 0, vec![1], c);
        let mut b = mk_node_over(400, 0, vec![1], c);
        const DIVERGES_AT: usize = 2;
        for epoch in 0..=DIVERGES_AT + 5 {
            if epoch == DIVERGES_AT {
                // One SGD step apart, on rows no epoch of either trains.
                b.model.sgd_step(&Rating {
                    user: 3,
                    item: 399,
                    value: 1.0,
                });
            }
            let (out_a, report_a) = a.epoch(Vec::new());
            let (out_b, report_b) = b.epoch(Vec::new());
            assert_eq!(out_a, out_b, "the nodes share the same points");
            assert_eq!(report_a.link_rows.is_some(), epoch > 0, "epoch {epoch}");
            match epoch.cmp(&DIVERGES_AT) {
                std::cmp::Ordering::Less => assert_eq!(report_a.commitment, report_b.commitment),
                std::cmp::Ordering::Equal => {
                    assert_eq!(report_b.link_rows, report_a.link_rows.map(|n| n + 2));
                }
                // The later links hash the same rows with the same
                // contents: only the chained digest keeps them apart.
                std::cmp::Ordering::Greater => assert_eq!(report_a.link_rows, report_b.link_rows),
            }
            if epoch >= DIVERGES_AT {
                assert_ne!(
                    report_a.commitment.digest, report_b.commitment.digest,
                    "epoch {epoch}"
                );
            }
        }
    }

    #[test]
    fn remove_neighbor_prunes_and_renormalizes_degree() {
        let mut n = mk_node(
            0,
            vec![1, 2, 3],
            cfg(SharingMode::RawData, GossipAlgorithm::DPsgd),
        );
        assert!(n.remove_neighbor(2));
        assert!(!n.remove_neighbor(2), "second removal is a no-op");
        assert_eq!(n.neighbors(), &[1, 3]);
        assert_eq!(n.degree(), 2);
        // D-PSGD now shares with the surviving neighbours only.
        let (out, _) = n.epoch(Vec::new());
        let dests: Vec<usize> = out.iter().map(|(d, _)| *d).collect();
        assert_eq!(dests, vec![1, 3]);
    }

    #[test]
    fn add_neighbor_keeps_order_and_rewires_sharing() {
        let mut n = mk_node(
            0,
            vec![1, 3],
            cfg(SharingMode::RawData, GossipAlgorithm::DPsgd),
        );
        assert!(n.add_neighbor(2));
        assert!(!n.add_neighbor(2), "second insert is a no-op");
        assert!(!n.add_neighbor(0), "self-edge refused");
        assert_eq!(n.neighbors(), &[1, 2, 3]);
        assert_eq!(n.degree(), 3);
        let (out, _) = n.epoch(Vec::new());
        let dests: Vec<usize> = out.iter().map(|(d, _)| *d).collect();
        assert_eq!(dests, vec![1, 2, 3], "new neighbour shares immediately");
    }

    #[test]
    fn bootstrap_message_grows_the_joiners_store() {
        let c = cfg(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let mut sponsor = mk_node(0, vec![1], c);
        let mut joiner = mk_node(1, vec![0], c);
        let before = joiner.store().len();
        let bytes = sponsor.bootstrap_for(1, 12).expect("native mode sends");
        let (_, report) = joiner.epoch(vec![Envelope { from: 0, bytes }]);
        assert!(report.new_points > 0, "bootstrap merged into the store");
        assert_eq!(joiner.store().len(), before + report.new_points);
        assert!(!sponsor.has_session(1), "native mode: no sessions");
    }

    #[test]
    fn sparse_raw_mode_shrinks_share_bytes_and_still_grows_stores() {
        let dense_cfg = cfg(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let sparse_cfg = ProtocolConfig {
            codec: WireCodec::Sparse,
            ..dense_cfg
        };
        let mut dense_a = mk_node(0, vec![1], dense_cfg);
        let mut sparse_a = mk_node(0, vec![1], sparse_cfg);
        let (dense_out, dense_report) = dense_a.epoch(Vec::new());
        let (sparse_out, sparse_report) = sparse_a.epoch(Vec::new());
        assert!(
            sparse_report.bytes_out < dense_report.bytes_out,
            "sparse {} vs dense {}",
            sparse_report.bytes_out,
            dense_report.bytes_out
        );
        assert_eq!(dense_out.len(), sparse_out.len());
        // The packed batch still lands in the receiver's store.
        let mut b = mk_node(1, vec![0], sparse_cfg);
        let inbox: Vec<Envelope> = sparse_out
            .into_iter()
            .map(|(_, bytes)| Envelope { from: 0, bytes })
            .collect();
        let (_, report) = b.epoch(inbox);
        assert!(report.new_points > 0);
    }

    #[test]
    fn sparse_model_mode_is_bit_identical_to_dense_with_fewer_bytes() {
        // Two identical (sender, receiver) pairs, one per codec: the
        // model delta reconstructs bit-exactly, so the receivers' models
        // after merge + train must agree to the last bit — only the wire
        // bytes differ.
        let dense_cfg = cfg(SharingMode::Model, GossipAlgorithm::DPsgd);
        let sparse_cfg = ProtocolConfig {
            codec: WireCodec::Sparse,
            ..dense_cfg
        };
        let run_pair = |c: ProtocolConfig| {
            let mut a = mk_node(0, vec![1], c);
            let mut b = mk_node(1, vec![0], c);
            let (out_a, report_a) = a.epoch(Vec::new());
            let inbox: Vec<Envelope> = out_a
                .into_iter()
                .map(|(_, bytes)| Envelope { from: 0, bytes })
                .collect();
            let (_, report_b) = b.epoch(inbox);
            (b.model().to_bytes(), report_a.bytes_out, report_b.rmse)
        };
        let (dense_model, dense_bytes, dense_rmse) = run_pair(dense_cfg);
        let (sparse_model, sparse_bytes, sparse_rmse) = run_pair(sparse_cfg);
        assert_eq!(dense_model, sparse_model, "sparse decode was not exact");
        assert_eq!(dense_rmse.map(f64::to_bits), sparse_rmse.map(f64::to_bits));
        assert!(
            sparse_bytes < dense_bytes,
            "sparse {sparse_bytes} vs dense {dense_bytes}"
        );
    }

    #[test]
    fn model_delta_to_a_dense_receiver_is_dropped_not_fatal() {
        // Codec mismatch across the fleet: a dense-mode receiver has no
        // reference snapshot, so an arriving delta is discarded like any
        // other undecodable message.
        let sparse_cfg = cfg(SharingMode::Model, GossipAlgorithm::DPsgd);
        let sparse_cfg = ProtocolConfig {
            codec: WireCodec::Sparse,
            ..sparse_cfg
        };
        let mut a = mk_node(0, vec![1], sparse_cfg);
        let mut b = mk_node(1, vec![0], cfg(SharingMode::Model, GossipAlgorithm::DPsgd));
        let before = b.model().to_bytes();
        let (out_a, _) = a.epoch(Vec::new());
        let inbox: Vec<Envelope> = out_a
            .into_iter()
            .map(|(_, bytes)| Envelope { from: 0, bytes })
            .collect();
        let (_, report) = b.epoch(inbox);
        assert_eq!(report.new_points, 0);
        // b still trained on its own data (model moved), just no merge of
        // the alien model happened — which we can't observe directly, so
        // assert the epoch completed and the node remains functional.
        assert!(report.rmse.is_some());
        assert_ne!(b.model().to_bytes(), before, "training still ran");
    }

    #[test]
    fn sparse_codec_without_a_reference_sends_the_dense_model() {
        let sparse_cfg = ProtocolConfig {
            codec: WireCodec::Sparse,
            ..cfg(SharingMode::Model, GossipAlgorithm::DPsgd)
        };
        let mut a = mk_node(0, vec![1], sparse_cfg);
        a.sparse = None;
        let (out, _) = a.epoch(Vec::new());
        assert_eq!(out.len(), 1);
        let Ok(Payload::Clear(frame)) = decode_payload(&out[0].1) else {
            panic!("native node sends clear frames");
        };
        let Ok(Plain::Model { bytes, .. }) = decode_plain(&frame) else {
            panic!("expected the dense model");
        };
        assert_eq!(bytes, a.model().to_bytes());
    }

    /// Puts `n` in an enclave with one attested session, with `peer`.
    fn install_test_enclave(n: &mut Node<MfModel>, peer: usize) {
        use rand::SeedableRng;
        use rex_tee::dcap::DcapService;
        use rex_tee::measurement::{Measurement, REX_ENCLAVE_V1};
        use rex_tee::platform::SgxPlatform;
        use rex_tee::SgxCostModel;
        let dcap = DcapService::new();
        let platform = SgxPlatform::provision(0, &dcap, &mut StdRng::seed_from_u64(0xAB));
        n.install_enclave(platform.create_enclave(REX_ENCLAVE_V1, SgxCostModel::default()));
        n.install_session(
            peer,
            SecureSession::new([1; 32], [2; 32], true, Measurement::of_code(REX_ENCLAVE_V1)),
        )
        .expect("the enclave was installed above");
    }

    #[test]
    fn a_session_on_a_native_node_is_an_error_not_a_panic() {
        use rex_tee::measurement::{Measurement, REX_ENCLAVE_V1};
        let mut n = mk_node(
            3,
            vec![1],
            cfg(SharingMode::RawData, GossipAlgorithm::DPsgd),
        );
        let session =
            SecureSession::new([1; 32], [2; 32], true, Measurement::of_code(REX_ENCLAVE_V1));
        assert_eq!(n.install_session(1, session), Err(NoEnclave { node: 3 }));
        assert!(!n.is_sgx() && !n.has_session(1));
    }

    #[test]
    fn a_clear_share_to_an_sgx_node_is_dropped_not_fatal() {
        let c = cfg(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let (clear, _) = mk_node(0, vec![1], c).epoch(Vec::new());
        let mut n = mk_empty_node(c);
        install_test_enclave(&mut n, 0);
        // A clear share from the very peer it holds a session with: one
        // frame must not crash the enclave, nor reach its store.
        let (out, report) = n.epoch(deliver(0, clear));
        assert_eq!(report.new_points, 0);
        assert!(n.store().is_empty());
        assert_eq!(out.len(), 1, "the epoch runs on and shares as usual");
        assert!(matches!(decode_payload(&out[0].1), Ok(Payload::Sealed(_))));
    }

    #[test]
    fn a_recipient_without_a_session_gets_no_share() {
        let mut n = mk_node(
            0,
            vec![1, 2],
            cfg(SharingMode::RawData, GossipAlgorithm::DPsgd),
        );
        install_test_enclave(&mut n, 2);
        let (out, report) = n.epoch(Vec::new());
        assert_eq!(out.len(), 1, "only the attested recipient is sent to");
        assert_eq!(out[0].0, 2);
        assert!(matches!(decode_payload(&out[0].1), Ok(Payload::Sealed(_))));
        assert_eq!(report.bytes_out, out[0].1.len() as u64);
    }

    #[test]
    fn a_bootstrap_for_a_peer_without_a_session_sends_nothing() {
        let mut n = mk_node(
            0,
            vec![1, 2],
            cfg(SharingMode::RawData, GossipAlgorithm::DPsgd),
        );
        install_test_enclave(&mut n, 2);
        assert_eq!(n.bootstrap_for(1, 12), None, "no session with 1: dropped");
        let sealed = n
            .bootstrap_for(2, 12)
            .expect("the attested peer is sent to");
        assert!(matches!(decode_payload(&sealed), Ok(Payload::Sealed(_))));
    }

    #[test]
    fn garbage_messages_are_dropped() {
        let c = cfg(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let mut b = mk_node(1, vec![0], c);
        let inbox = vec![Envelope {
            from: 0,
            bytes: vec![0xFF, 1, 2, 3],
        }];
        let (_, report) = b.epoch(inbox);
        assert_eq!(report.new_points, 0); // dropped, protocol continues
    }

    #[test]
    fn fixed_steps_keep_epoch_time_flat() {
        // §III-E: the training stage runs a constant number of SGD steps
        // regardless of store growth; verify step counts via store size
        // independence of output message count (behavioural proxy) and that
        // training happened (RMSE defined).
        let c = cfg(SharingMode::RawData, GossipAlgorithm::DPsgd);
        let mut n = mk_node(0, vec![1], c);
        let (_, r1) = n.epoch(Vec::new());
        // Inject lots of data.
        let extra: Vec<Rating> = (0..15u32)
            .flat_map(|u| {
                (0..19u32).map(move |i| Rating {
                    user: u % 4,
                    item: i,
                    value: 3.0,
                })
            })
            .collect();
        let inbox = vec![Envelope {
            from: 0,
            bytes: encode_payload(&Payload::Clear(encode_plain(&Plain::RawData {
                ratings: extra,
                degree: 1,
            }))),
        }];
        let (_, r2) = n.epoch(inbox);
        assert!(r1.rmse.is_some() && r2.rmse.is_some());
        assert!(n.store().len() > 60 / 4);
    }

    /// Fixed multi-user data for the shard tests: 8 users, 30 items.
    fn shard_data() -> Vec<Vec<Rating>> {
        SyntheticConfig {
            num_users: 8,
            num_items: 30,
            num_ratings: 240,
            seed: 2,
            ..SyntheticConfig::default()
        }
        .generate()
        .by_user()
    }

    #[test]
    fn sharded_node_runs_epochs_over_its_block() {
        let by_user = shard_data();
        let block = UserBlock { start: 0, end: 4 };
        let train: Vec<Rating> = by_user[..4].iter().flatten().copied().collect();
        let test: Vec<Rating> = by_user[4].clone();
        let model = MfModel::new(8, 30, MfHyperParams::default(), 3.5, 42);
        let mut n = Node::builder(0, model)
            .neighbors(vec![1])
            .train(train)
            .test(test)
            .protocol(cfg(SharingMode::RawData, GossipAlgorithm::DPsgd))
            .shard(block)
            .build();
        assert_eq!(n.shard_block(), Some(block));
        assert_eq!(n.users_hosted(), 4);
        let mut first = None;
        let mut last = None;
        for _ in 0..8 {
            let (out, report) = n.epoch(Vec::new());
            // Aggregate-then-share: one message per neighbour regardless
            // of how many users the shard hosts.
            assert_eq!(out.len(), 1);
            first = first.or(report.rmse);
            last = report.rmse;
        }
        assert!(last.unwrap() < first.unwrap(), "shard did not learn");
    }

    #[test]
    fn width_one_shard_node_is_bit_identical_to_legacy_over_epochs() {
        // The users_per_node = 1 determinism contract at the node level:
        // same models, same stores, same wire bytes, every epoch.
        let by_user = shard_data();
        let c = cfg(SharingMode::RawData, GossipAlgorithm::Rmw);
        let model = MfModel::new(8, 30, MfHyperParams::default(), 3.5, 42);
        let mut sharded = Node::builder(0, model.clone())
            .neighbors(vec![1, 2])
            .train(by_user[0].clone())
            .test(by_user[1].clone())
            .protocol(c)
            .shard(UserBlock { start: 0, end: 1 })
            .build();
        let mut legacy = Node::builder(0, model)
            .neighbors(vec![1, 2])
            .train(by_user[0].clone())
            .test(by_user[1].clone())
            .protocol(c)
            .build();
        assert_eq!(sharded.shard_block(), None);
        for epoch in 0..6 {
            let (out_s, rep_s) = sharded.epoch(Vec::new());
            let (out_l, rep_l) = legacy.epoch(Vec::new());
            assert_eq!(out_s, out_l, "wire bytes diverged at epoch {epoch}");
            assert_eq!(
                rep_s.rmse.map(f64::to_bits),
                rep_l.rmse.map(f64::to_bits),
                "rmse diverged at epoch {epoch}"
            );
        }
        assert_eq!(sharded.model().to_bytes(), legacy.model().to_bytes());
    }

    #[test]
    fn sharded_node_reports_index_as_its_own_epc_region() {
        use rand::SeedableRng;
        use rex_tee::dcap::DcapService;
        use rex_tee::measurement::REX_ENCLAVE_V1;
        use rex_tee::platform::SgxPlatform;
        use rex_tee::SgxCostModel;
        let by_user = shard_data();
        let train: Vec<Rating> = by_user.iter().flatten().copied().collect();
        let model = MfModel::new(8, 30, MfHyperParams::default(), 3.5, 42);
        let mut n = Node::builder(0, model)
            .train(train)
            .test(Vec::new())
            .protocol(cfg(SharingMode::RawData, GossipAlgorithm::DPsgd))
            .shard(UserBlock { start: 0, end: 8 })
            .build();
        let dcap = DcapService::new();
        let mut rng = StdRng::seed_from_u64(0xAB);
        let platform = SgxPlatform::provision(0, &dcap, &mut rng);
        n.install_enclave(platform.create_enclave(REX_ENCLAVE_V1, SgxCostModel::default()));
        let _ = n.epoch(Vec::new());
        let index_bytes = n.store().index_bytes() as u64;
        assert!(index_bytes > 0);
        let tee = n.enclave_mut().unwrap();
        assert_eq!(tee.epc().region_bytes(Region::ShardIndex), index_bytes);
        // The store region excludes the index — no double counting.
        assert_eq!(
            tee.epc().region_bytes(Region::DataStore) + index_bytes,
            n.store().memory_bytes() as u64
        );
    }
}
