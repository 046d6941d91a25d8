//! Per-epoch signed model-digest commitments — the verifiable-epochs
//! building block.
//!
//! The paper's trust story rests on TEEs attesting *code*, but nothing in
//! the protocol so far checks that a node actually ran the training it
//! claims. Determinism closes that gap: every epoch is exactly replayable
//! from the shared seeds, so a node can *commit* to its post-epoch model
//! and any other party can recompute the expected commitment and compare.
//!
//! Each node keeps a [`CommitmentChain`]:
//!
//! * **digest chaining** — `d_e = SHA-256("rex-commit-link-v1" ‖ d_{e-1}
//!   ‖ e_le ‖ record_e)`, seeded with a domain-separated genesis
//!   digest derived from `(protocol seed, node id)`. `record_e` is the
//!   model's *change record* since the previous link
//!   ([`Model::write_changes`](rex_ml::Model::write_changes)), in one of
//!   two self-describing forms: the **full form** — the model's wire
//!   bytes, magic `MF01` — on a chain's first link, after an epoch that
//!   merged or decoded a model, and when over a quarter of the rows were
//!   written; otherwise the **row form** — magic `MFD1`, dimensions, the
//!   global mean, then per table the ascending ids, seen flags and
//!   bias + embedding of every row written since `d_{e-1}` — which is
//!   what lets a raw-sharing epoch commit to the ~5 % of the model it
//!   touched instead of rehashing all of it. Chaining makes each epoch's
//!   commitment bind the *entire* history: a node cannot retroactively
//!   swap an early epoch without every later digest changing.
//! * **binding, by induction** — the first link fixes the whole model;
//!   link `e` fixes `d_{e-1}` (hence, inductively, the model at `e-1`)
//!   plus the new value of every row written since, and an unwritten row
//!   kept its old value; so `d_e` determines the model at `e`. Checking
//!   one link in isolation therefore takes the model at `e-1` as well as
//!   the record (`MfModel::apply_changes` replays a record onto it); the
//!   one verifier here, `rex-node --challenge`, replays the run from the
//!   seeds and holds every earlier model anyway.
//! * **identity binding** — `t_e = HMAC-SHA-256(k_node, d_e ‖ e_le)`
//!   where `k_node` is derived from the same `(seed, id)` pair. In the
//!   simulated-SGX trust model every party can re-derive `k_node` (all
//!   key material flows from the shared scenario seeds); on real
//!   hardware it would be an enclave-held session key, making the tag a
//!   genuine signature-equivalent. Here it pins a commitment to the node
//!   identity that produced it, so a frame cannot be replayed as another
//!   node's.
//!
//! Because model trajectories are bit-identical across mem/tcp × every
//! driver (the cross-backend oracle), the chained digests are too — the
//! challenger can audit any backend's run by replaying on any other
//! backend.

use rex_crypto::ct::ct_eq;
use rex_crypto::{HmacSha256, Sha256};
use rex_ml::bytesio::ByteSink;
use std::collections::HashMap;

/// Domain-separation label for the per-node MAC key.
const KEY_LABEL: &[u8] = b"rex-commit-key-v1";
/// Domain-separation label for the genesis digest of a chain.
const GENESIS_LABEL: &[u8] = b"rex-commit-genesis-v1";
/// Domain-separation label for every chain link.
const LINK_LABEL: &[u8] = b"rex-commit-link-v1";

/// One epoch's commitment: the chained model digest plus the HMAC tag
/// binding it to the producing node's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochCommitment {
    /// Chained SHA-256 digest over the node's model history up to and
    /// including this epoch.
    pub digest: [u8; 32],
    /// `HMAC(k_node, digest ‖ epoch_le)` under the node's derived key.
    pub tag: [u8; 32],
}

impl EpochCommitment {
    /// Renders `digest:tag` as lowercase hex (64 + 1 + 64 chars), the
    /// form the deployed node writes into its summary file.
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(129);
        push_hex(&mut s, &self.digest);
        s.push(':');
        push_hex(&mut s, &self.tag);
        s
    }

    /// Parses the `digest:tag` hex form produced by
    /// [`EpochCommitment::to_hex`].
    pub fn from_hex(s: &str) -> Result<EpochCommitment, String> {
        let (d, t) = s
            .split_once(':')
            .ok_or_else(|| format!("commitment `{s}`: expected digest:tag"))?;
        Ok(EpochCommitment {
            digest: hex32(d)?,
            tag: hex32(t)?,
        })
    }
}

fn push_hex(s: &mut String, bytes: &[u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for &b in bytes {
        s.push(char::from(DIGITS[usize::from(b >> 4)]));
        s.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
}

fn hex32(s: &str) -> Result<[u8; 32], String> {
    if s.len() != 64 {
        return Err(format!("hex field has {} chars, expected 64", s.len()));
    }
    let mut out = [0u8; 32];
    for (i, chunk) in s.as_bytes().chunks_exact(2).enumerate() {
        let hi = hex_val(chunk[0])?;
        let lo = hex_val(chunk[1])?;
        out[i] = (hi << 4) | lo;
    }
    Ok(out)
}

fn hex_val(c: u8) -> Result<u8, String> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        other => Err(format!("invalid hex char {:?}", other as char)),
    }
}

/// The per-node commitment chain. Deterministic in `(seed, id)`: a
/// challenger reconstructs the same chain by replaying the node's epochs
/// and advancing a fresh chain with the replayed model's change records.
/// The chain hashes whatever payload a link is given; which form a
/// record takes is the model's business.
#[derive(Clone)]
pub struct CommitmentChain {
    /// HMAC state already keyed with the node's derived key; every tag
    /// clones it instead of re-deriving the pads.
    mac: HmacSha256,
    digest: [u8; 32],
}

impl std::fmt::Debug for CommitmentChain {
    /// Shows the public head only, never the keyed MAC state.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitmentChain")
            .field("digest", &self.digest)
            .finish_non_exhaustive()
    }
}

/// The hash state of one chain link while the model is written into it:
/// a [`ByteSink`], so `Model::write_changes` (or `write_bytes`) streams
/// straight into the link digest.
pub struct LinkHasher(Sha256);

impl ByteSink for LinkHasher {
    fn put(&mut self, bytes: &[u8]) {
        self.0.update(bytes);
    }
}

impl CommitmentChain {
    /// Starts the chain for node `id` under the protocol `seed`, with
    /// the domain-separated genesis digest and derived MAC key.
    #[must_use]
    pub fn new(seed: u64, id: usize) -> CommitmentChain {
        CommitmentChain::resume(
            seed,
            id,
            Sha256::digest_parts(&[
                GENESIS_LABEL,
                &seed.to_le_bytes(),
                &(id as u64).to_le_bytes(),
            ]),
        )
    }

    /// Advances the chain over epoch `epoch`'s serialized payload (a
    /// post-epoch model, or its change record) and returns the signed
    /// commitment.
    pub fn advance(&mut self, epoch: usize, model_bytes: &[u8]) -> EpochCommitment {
        self.advance_with(epoch, |link| link.put(model_bytes))
    }

    /// [`CommitmentChain::advance`] without the serialized payload in
    /// hand: `write_model` streams it into the link hash — the node
    /// passes `|link| model.write_changes(link)` — so committing
    /// allocates nothing. Same digests as [`CommitmentChain::advance`]
    /// over the collected bytes.
    pub fn advance_with(
        &mut self,
        epoch: usize,
        write_model: impl FnOnce(&mut LinkHasher),
    ) -> EpochCommitment {
        let mut link = LinkHasher(Sha256::new());
        link.put(LINK_LABEL);
        link.put(&self.digest);
        link.put(&(epoch as u64).to_le_bytes());
        write_model(&mut link);
        self.digest = link.0.finalize();
        EpochCommitment {
            digest: self.digest,
            tag: tag(&self.mac, &self.digest, epoch),
        }
    }

    /// Resumes node `id`'s chain at a known head digest. This is the
    /// challenger-side primitive: once a prefix of a recorded chain is
    /// verified, the audit can extend from its head (e.g. to re-derive
    /// what a suspect's chain *would* look like had it trained a
    /// different model from some epoch on) without replaying the prefix.
    #[must_use]
    pub fn resume(seed: u64, id: usize, head: [u8; 32]) -> CommitmentChain {
        CommitmentChain {
            mac: HmacSha256::new(&derive_key(seed, id)),
            digest: head,
        }
    }

    /// The current chain head.
    #[must_use]
    pub fn head(&self) -> [u8; 32] {
        self.digest
    }
}

/// Derives node `id`'s MAC key from the protocol seed (the simulated
/// stand-in for an enclave session key).
#[must_use]
pub fn derive_key(seed: u64, id: usize) -> [u8; 32] {
    Sha256::digest_parts(&[KEY_LABEL, &seed.to_le_bytes(), &(id as u64).to_le_bytes()])
}

/// Verifies that `commitment.tag` binds `commitment.digest` at `epoch`
/// to node `id` under the protocol `seed` (constant-time compare).
#[must_use]
pub fn verify_tag(seed: u64, id: usize, epoch: usize, commitment: &EpochCommitment) -> bool {
    TagVerifier::new(seed).verify(id, epoch, commitment)
}

/// [`verify_tag`] for a whole run: each peer's key is derived, and its
/// HMAC state keyed, the first time that peer is seen — not once per
/// commitment.
pub struct TagVerifier {
    seed: u64,
    keyed: HashMap<usize, HmacSha256>,
}

impl TagVerifier {
    /// A verifier for commitments made under the protocol `seed`.
    #[must_use]
    pub fn new(seed: u64) -> TagVerifier {
        TagVerifier {
            seed,
            keyed: HashMap::new(),
        }
    }

    /// Whether `commitment.tag` binds `commitment.digest` at `epoch` to
    /// node `id` (constant-time compare).
    #[must_use]
    pub fn verify(&mut self, id: usize, epoch: usize, commitment: &EpochCommitment) -> bool {
        let seed = self.seed;
        let mac = self
            .keyed
            .entry(id)
            .or_insert_with(|| HmacSha256::new(&derive_key(seed, id)));
        ct_eq(&tag(mac, &commitment.digest, epoch), &commitment.tag)
    }
}

/// `HMAC(k_node, digest ‖ epoch_le)` from the node's keyed state.
fn tag(keyed: &HmacSha256, digest: &[u8; 32], epoch: usize) -> [u8; 32] {
    let mut mac = keyed.clone();
    mac.update(digest);
    mac.update(&(epoch as u64).to_le_bytes());
    mac.finalize()
}

/// Folds one epoch's per-node commitments into the single aggregate the
/// trace records (Hegemon-style: many per-node proofs, one checkable
/// artifact). Order-sensitive — callers pass `(id, commitment)` in
/// ascending node order, which every backend produces identically.
#[must_use]
pub fn aggregate_root(commitments: &[(usize, EpochCommitment)]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"rex-commit-root-v1");
    for (id, c) in commitments {
        h.update(&(*id as u64).to_le_bytes());
        h.update(&c.digest);
        h.update(&c.tag);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_deterministic_in_seed_and_id() {
        let mut a = CommitmentChain::new(42, 3);
        let mut b = CommitmentChain::new(42, 3);
        for e in 0..4 {
            let model = vec![e as u8; 64];
            assert_eq!(a.advance(e, &model), b.advance(e, &model));
        }
        assert_eq!(a.head(), b.head());
    }

    #[test]
    fn streamed_chain_equals_the_chain_over_serialized_models() {
        use rand::SeedableRng;
        use rex_data::Rating;
        use rex_ml::{MfHyperParams, MfModel, Model};
        let data: Vec<Rating> = (0..60u32)
            .map(|i| Rating {
                user: i % 7,
                item: (i * 5) % 13,
                value: 1.0 + (i % 9) as f32 * 0.5,
            })
            .collect();
        let mut model = MfModel::new(7, 13, MfHyperParams::default(), 3.0, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut streamed = CommitmentChain::new(42, 3);
        let mut serialized = CommitmentChain::new(42, 3);
        for epoch in 0..10 {
            model.train_steps(&data, 25, &mut rng);
            let a = streamed.advance_with(epoch, |link| model.write_bytes(link));
            let b = serialized.advance(epoch, &model.to_bytes());
            assert_eq!(a, b, "epoch {epoch}");
            assert!(verify_tag(42, 3, epoch, &a));
        }
        assert_eq!(streamed.head(), serialized.head());
    }

    #[test]
    fn a_link_checks_against_the_previous_model_and_its_record() {
        use rand::SeedableRng;
        use rex_data::Rating;
        use rex_ml::{MfHyperParams, MfModel, Model};
        let data: Vec<Rating> = (0..60u32)
            .map(|i| Rating {
                user: i % 7,
                item: (i * 5) % 13,
                value: 1.0 + (i % 9) as f32 * 0.5,
            })
            .collect();
        // 207 rows, of which the data reaches 20: a training epoch's link
        // takes the row form, the first link and the merge epoch the full.
        let mut model = MfModel::new(7, 200, MfHyperParams::default(), 3.0, 5);
        let other = MfModel::new(7, 200, MfHyperParams::default(), 3.0, 6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut chain = CommitmentChain::new(42, 3);
        // The checker holds what the induction gives it: the chain head
        // and the model as of the previous link.
        let mut checker_chain = chain.clone();
        let mut checker_model = model.clone();
        let mut forms = Vec::new();
        for epoch in 0..6 {
            model.train_steps(&data, 25, &mut rng);
            if epoch == 3 {
                model.merge(&[(0.5, &other)], 0.5);
            }
            let mut record = Vec::new();
            model.clone().write_changes(&mut record);
            let mut rows = None;
            let c = chain.advance_with(epoch, |link| rows = model.write_changes(link));
            forms.push(rows.is_some());
            assert_eq!(checker_chain.advance(epoch, &record), c, "epoch {epoch}");
            checker_model.apply_changes(&record).unwrap();
            assert_eq!(checker_model.to_bytes(), model.to_bytes(), "epoch {epoch}");
        }
        assert_eq!(forms, [false, true, true, false, true, true]);
    }

    #[test]
    fn run_long_verifier_agrees_with_the_one_shot_check() {
        let mut verifier = TagVerifier::new(42);
        let mut chains: Vec<CommitmentChain> =
            (0..3).map(|id| CommitmentChain::new(42, id)).collect();
        for epoch in 0..4 {
            for (id, chain) in chains.iter_mut().enumerate() {
                let c = chain.advance(epoch, &[id as u8, epoch as u8]);
                assert!(verifier.verify(id, epoch, &c));
                assert!(!verifier.verify(id + 1, epoch, &c));
                assert!(!verifier.verify(id, epoch + 1, &c));
                assert!(!TagVerifier::new(41).verify(id, epoch, &c));
            }
        }
    }

    #[test]
    fn chain_separates_seed_id_epoch_and_payload() {
        let base = CommitmentChain::new(42, 0).advance(0, b"model");
        assert_ne!(CommitmentChain::new(43, 0).advance(0, b"model"), base);
        assert_ne!(CommitmentChain::new(42, 1).advance(0, b"model"), base);
        assert_ne!(CommitmentChain::new(42, 0).advance(1, b"model"), base);
        assert_ne!(CommitmentChain::new(42, 0).advance(0, b"modeL"), base);
    }

    #[test]
    fn chaining_binds_history() {
        // Same epoch-1 payload, different epoch-0 payload: the epoch-1
        // digests must differ — an early swap is never invisible later.
        let mut a = CommitmentChain::new(7, 0);
        let mut b = CommitmentChain::new(7, 0);
        a.advance(0, b"alpha");
        b.advance(0, b"beta");
        assert_ne!(a.advance(1, b"same"), b.advance(1, b"same"));
    }

    #[test]
    fn resumed_chain_continues_identically() {
        let mut full = CommitmentChain::new(42, 3);
        full.advance(0, b"m0");
        full.advance(1, b"m1");
        let mut resumed = CommitmentChain::resume(42, 3, full.head());
        // The key still belongs to (seed, id): a resume under the wrong
        // identity chains the same digests but signs different tags.
        let mut wrong = CommitmentChain::resume(42, 4, full.head());
        let honest = full.advance(2, b"m2");
        assert_eq!(honest, resumed.advance(2, b"m2"));
        let forged = wrong.advance(2, b"m2");
        assert_eq!(honest.digest, forged.digest);
        assert_ne!(honest.tag, forged.tag);
    }

    #[test]
    fn tags_verify_and_reject_forgery() {
        let mut chain = CommitmentChain::new(42, 5);
        let c = chain.advance(0, b"model");
        assert!(verify_tag(42, 5, 0, &c));
        // Wrong node, wrong epoch, wrong seed: all rejected.
        assert!(!verify_tag(42, 6, 0, &c));
        assert!(!verify_tag(42, 5, 1, &c));
        assert!(!verify_tag(41, 5, 0, &c));
        // Tampered digest with the stale tag: rejected.
        let mut forged = c;
        forged.digest[0] ^= 1;
        assert!(!verify_tag(42, 5, 0, &forged));
    }

    #[test]
    fn hex_roundtrip() {
        let mut chain = CommitmentChain::new(1, 2);
        let c = chain.advance(0, b"x");
        let s = c.to_hex();
        assert_eq!(s.len(), 129);
        let by_format = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(s, format!("{}:{}", by_format(&c.digest), by_format(&c.tag)));
        assert_eq!(EpochCommitment::from_hex(&s).unwrap(), c);
        assert!(EpochCommitment::from_hex("nope").is_err());
        assert!(EpochCommitment::from_hex("ab:cd").is_err());
        let bad = s.replace(':', ";");
        assert!(EpochCommitment::from_hex(&bad).is_err());
    }

    #[test]
    fn aggregate_root_is_order_and_content_sensitive() {
        let mut c0 = CommitmentChain::new(9, 0);
        let mut c1 = CommitmentChain::new(9, 1);
        let a = c0.advance(0, b"m0");
        let b = c1.advance(0, b"m1");
        let root = aggregate_root(&[(0, a), (1, b)]);
        assert_ne!(root, aggregate_root(&[(1, b), (0, a)]));
        assert_ne!(root, aggregate_root(&[(0, a)]));
        assert_eq!(root, aggregate_root(&[(0, a), (1, b)]));
    }
}
