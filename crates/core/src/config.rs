//! Protocol configuration.

use rex_tee::SgxCostModel;

/// What a node shares each epoch (the paper's central comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingMode {
    /// REX / DS: a random sample of raw rating triplets (§III-C).
    RawData,
    /// MS: the full serialized model (the FL/DLS baseline).
    Model,
}

impl SharingMode {
    /// Label used in series names ("REX" / "MS").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SharingMode::RawData => "REX",
            SharingMode::Model => "MS",
        }
    }
}

/// Neighbour-selection scheme (§III-C1/2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipAlgorithm {
    /// Random model walk / gossip learning: one random neighbour per epoch;
    /// received contributions are averaged equally with the local state.
    Rmw,
    /// Decentralized parallel SGD: all neighbours every epoch; contributions
    /// merged with Metropolis–Hastings weights derived from degrees.
    DPsgd,
}

impl GossipAlgorithm {
    /// Label used in series names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GossipAlgorithm::Rmw => "RMW",
            GossipAlgorithm::DPsgd => "D-PSGD",
        }
    }
}

/// Whether nodes run natively (plaintext, no charges) or inside simulated
/// SGX enclaves (§IV-C/D compare exactly these two arms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionMode {
    /// No protection: cleartext payloads, zero SGX charges.
    Native,
    /// Simulated enclaves: mutual attestation, AEAD channels, cost charges.
    Sgx(SgxCostModel),
}

impl ExecutionMode {
    /// Whether this mode runs inside enclaves.
    #[must_use]
    pub fn is_sgx(&self) -> bool {
        matches!(self, ExecutionMode::Sgx(_))
    }
}

/// How payloads are laid out on the wire (the sparse-delta codec knob).
///
/// `Dense` is the paper's byte-accounting baseline: full triplet batches
/// for raw sharing, the whole serialized model for model sharing.
/// `Sparse` routes both sharing modes through the compact encodings:
/// raw batches are delta/nibble-packed (`rex_net::compress`), models go
/// out as **sparse deltas** — only the rows that changed since the
/// fleet's shared initialization, falling back to the dense form once
/// the changed-row density crosses [`SPARSE_MAX_DENSITY`]. Model deltas
/// reconstruct bit-exactly, so sparse model sharing follows the *same*
/// learning trajectory as dense mode with fewer wire bytes; sparse raw
/// batches canonicalize order (batches are sets), which resamples the
/// store growth order — still deterministic, just a different stream.
///
/// The whole fleet must agree on the codec (receivers of a sparse
/// payload need the shared reference model to decode deltas against).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCodec {
    /// Full payloads, byte-for-byte as the paper accounts them.
    Dense,
    /// Compact payloads: packed raw batches + sparse model deltas.
    Sparse,
}

/// Changed-row density above which a sparse model delta falls back to
/// the dense encoding: a delta row costs slightly more than a dense row
/// (it carries its index), so past ~0.9 the delta stops paying for
/// itself.
pub const SPARSE_MAX_DENSITY: f64 = 0.9;

impl WireCodec {
    /// Whether this is the sparse codec.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        *self == WireCodec::Sparse
    }
}

/// Per-node protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// What to share.
    pub sharing: SharingMode,
    /// Whom to share with.
    pub algorithm: GossipAlgorithm,
    /// Raw data points sampled per epoch when sharing data (paper: 300 for
    /// MF, 40 for DNN). Treated as a hyperparameter (§III-E).
    pub points_per_epoch: usize,
    /// SGD steps (single samples for MF, minibatches for DNN) per epoch —
    /// fixed so epoch duration stays constant as the store grows (§III-E).
    pub steps_per_epoch: usize,
    /// Base RNG seed; node `i` uses `seed + i`.
    pub seed: u64,
    /// Wire layout of the shared payloads.
    pub codec: WireCodec,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            sharing: SharingMode::RawData,
            algorithm: GossipAlgorithm::DPsgd,
            points_per_epoch: 300,
            steps_per_epoch: 300,
            seed: 7,
            codec: WireCodec::Dense,
        }
    }
}

impl ProtocolConfig {
    /// Series label, e.g. "REX, D-PSGD".
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}, {}", self.sharing.label(), self.algorithm.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(SharingMode::RawData.label(), "REX");
        assert_eq!(SharingMode::Model.label(), "MS");
        assert_eq!(GossipAlgorithm::Rmw.label(), "RMW");
        assert_eq!(
            ProtocolConfig {
                sharing: SharingMode::Model,
                algorithm: GossipAlgorithm::Rmw,
                ..Default::default()
            }
            .label(),
            "MS, RMW"
        );
    }

    #[test]
    fn execution_mode_flags() {
        assert!(!ExecutionMode::Native.is_sgx());
        assert!(ExecutionMode::Sgx(SgxCostModel::default()).is_sgx());
    }

    #[test]
    fn codec_flags_and_default() {
        assert!(!WireCodec::Dense.is_sparse());
        assert!(WireCodec::Sparse.is_sparse());
        assert_eq!(ProtocolConfig::default().codec, WireCodec::Dense);
    }
}
