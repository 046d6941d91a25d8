//! The [`Model`] trait: the contract between recommenders and the REX
//! protocol layer (`rex-core`).

use crate::bytesio::{ByteCount, ByteSink, Fnv1a64};
use rand::rngs::StdRng;
use rex_data::Rating;
use std::borrow::Cow;

/// Error returned when deserializing a model from wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelCodecError {
    /// Buffer too short or trailing garbage.
    Malformed(String),
    /// Header fields disagree with the receiving node's configuration.
    Incompatible(String),
}

impl std::fmt::Display for ModelCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelCodecError::Malformed(m) => write!(f, "malformed model bytes: {m}"),
            ModelCodecError::Incompatible(m) => write!(f, "incompatible model: {m}"),
        }
    }
}

impl std::error::Error for ModelCodecError {}

impl From<crate::bytesio::ShortBuffer> for ModelCodecError {
    fn from(e: crate::bytesio::ShortBuffer) -> Self {
        ModelCodecError::Malformed(e.to_string())
    }
}

/// Another model as a merge reads it ([`Model::view`]): its wire bytes,
/// validated once against the receiving model's shape, or a model
/// already decoded. A view of wire bytes borrows them, so a receiver
/// merges from the buffer a share arrived in.
pub struct ModelView<'a, M> {
    source: ViewSource<'a, M>,
}

pub(crate) enum ViewSource<'a, M> {
    /// Wire bytes of a model of the receiver's shape, checked by the
    /// receiver's [`Model::view`], and that model's logical size.
    Wire {
        bytes: &'a [u8],
        memory_bytes: usize,
    },
    /// A decoded model.
    Decoded(M),
}

impl<'a, M: Model> ModelView<'a, M> {
    /// A view of a decoded model (one rebuilt from a sparse delta, or the
    /// default [`Model::view`]'s).
    #[must_use]
    pub fn decoded(model: M) -> Self {
        ModelView {
            source: ViewSource::Decoded(model),
        }
    }

    /// A view of wire bytes the model type has validated.
    pub(crate) fn wire(bytes: &'a [u8], memory_bytes: usize) -> Self {
        ModelView {
            source: ViewSource::Wire {
                bytes,
                memory_bytes,
            },
        }
    }

    pub(crate) fn source(&self) -> &ViewSource<'a, M> {
        &self.source
    }

    /// The viewed model's [`Model::memory_bytes`]: what a decoded copy
    /// would hold, whether or not one was built.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        match &self.source {
            ViewSource::Wire { memory_bytes, .. } => *memory_bytes,
            ViewSource::Decoded(m) => m.memory_bytes(),
        }
    }

    /// The viewed model, decoded from its bytes when it is not already.
    ///
    /// # Panics
    /// When the bytes of a wire view do not decode, which a view made by
    /// its model type's [`Model::view`] rules out.
    #[must_use]
    pub(crate) fn to_model(&self) -> Cow<'_, M> {
        match &self.source {
            ViewSource::Wire { bytes, .. } => {
                Cow::Owned(M::from_bytes(bytes).expect("a view's bytes were validated"))
            }
            ViewSource::Decoded(m) => Cow::Borrowed(m),
        }
    }
}

/// A recommender model that can be trained, merged and serialized.
///
/// Merging follows the paper's two schemes (§III-C): RMW averages the local
/// model with a single received one; D-PSGD computes a Metropolis–Hastings
/// weighted average over all neighbours plus self. Both are expressed
/// through [`Model::merge`], which takes explicit `(weight, model)`
/// contributions plus the self-weight.
pub trait Model: Clone + Send + Sync + 'static {
    /// Runs `steps` single-sample SGD (or minibatch) steps over `data`,
    /// sampling uniformly with the caller's RNG. A fixed step count per
    /// epoch keeps epoch duration constant as the raw-data store grows
    /// (paper §III-E).
    fn train_steps(&mut self, data: &[Rating], steps: usize, rng: &mut StdRng);

    /// Batched variant of [`Model::train_steps`] for **user-sharded**
    /// nodes hosting a contiguous block of user rows: draws the same
    /// `steps` uniform sample indices from the caller's RNG (identical
    /// RNG consumption, so a node's trajectory stays a pure function of
    /// its seed), then applies them **grouped by user row in ascending
    /// order** — a shard's updates sweep contiguous embedding rows
    /// instead of hopping across the table. Within one user's group the
    /// draw order is preserved.
    ///
    /// Grouping reorders float updates across users, so this is *not*
    /// bit-identical to [`Model::train_steps`] on multi-user data; the
    /// protocol layer only routes through it when a shard hosts more
    /// than one user (`users_per_node = 1` keeps the legacy path and its
    /// bit-exact trajectories). On single-user data the grouping is a
    /// no-op, making the two paths bit-identical by construction.
    ///
    /// The default falls back to [`Model::train_steps`] — models without
    /// a row-block structure (e.g. dense DNNs) need no override.
    fn train_steps_batched(&mut self, data: &[Rating], steps: usize, rng: &mut StdRng) {
        self.train_steps(data, steps, rng);
    }

    /// The model's cell space, `(users, items)`: the rating matrix its
    /// tables are sized for. The protocol layer builds its store for this
    /// space, so the store keys each cell compactly and refuses any
    /// outside it (see [`Model::covers`]).
    fn cells(&self) -> (u32, u32);

    /// Whether `(user, item)` is a cell of this model's shape — a rating
    /// there can be trained on. Ratings come off the wire with whatever
    /// coordinates the sender wrote; the protocol layer keeps only those
    /// its model covers, because [`Model::train_steps`] indexes its tables
    /// with them unchecked by anything but the slice bounds (a panic).
    fn covers(&self, user: u32, item: u32) -> bool {
        let (users, items) = self.cells();
        user < users && item < items
    }

    /// Whether `other` has this model's shape — dimensions and every
    /// hyper-parameter that sizes a table — so [`Model::merge`] can take
    /// it as a contribution. A model decoded off the wire has whatever
    /// shape the sender wrote; the protocol layer merges only those of
    /// its own shape, because `merge` asserts it.
    fn same_shape(&self, other: &Self) -> bool;

    /// Predicts the rating of `user` for `item`, clamped to the valid
    /// rating range. Falls back to bias terms / global mean for users or
    /// items this model has never seen.
    fn predict(&self, user: u32, item: u32) -> f32;

    /// `Σ (predict(r.user, r.item) − r.value)²` over `test`, each term
    /// squared in f64 and added in slice order — the sum
    /// [`crate::metrics::rmse`] takes the root mean of. Overrides keep
    /// those semantics to the bit and only evaluate faster (MF runs the
    /// whole slice as one kernel sweep).
    fn squared_error(&self, test: &[Rating]) -> f64 {
        let mut sum = 0.0f64;
        for r in test {
            let err = f64::from(self.predict(r.user, r.item)) - f64::from(r.value);
            sum += err * err;
        }
        sum
    }

    /// Merges neighbour `contributions` (weight, model) with `self_weight`
    /// for the local parameters. Weights must sum to 1 across
    /// `self_weight + Σ contributions`. Rows (user/item embeddings) that a
    /// contributor has never seen are excluded from that row's average,
    /// with remaining weights renormalized (paper §III-C2: "when a node has
    /// no embedding for a given user or item, we consider only those of its
    /// neighbors").
    fn merge(&mut self, contributions: &[(f64, &Self)], self_weight: f64);

    /// Validates `bytes` as the wire encoding of a model this one can
    /// merge — header, shape and exact length, checked once — and returns
    /// the view [`Model::merge_views`] reads it through. Bytes that fail
    /// any check are refused, as [`Model::from_bytes`] refuses them, or
    /// as a model of another shape ([`Model::same_shape`]). The default
    /// decodes the model ([`Model::from_bytes`]).
    fn view<'a>(&self, bytes: &'a [u8]) -> Result<ModelView<'a, Self>, ModelCodecError> {
        let model = Self::from_bytes(bytes)?;
        if !self.same_shape(&model) {
            return Err(ModelCodecError::Incompatible(
                "a model of another shape".into(),
            ));
        }
        Ok(ModelView::decoded(model))
    }

    /// [`Model::merge`] over views ([`Model::view`]): the same weights,
    /// the same result bit for bit. The default decodes each view that
    /// is not decoded already and calls [`Model::merge`].
    fn merge_views(&mut self, contributions: &[(f64, &ModelView<'_, Self>)], self_weight: f64) {
        let models: Vec<Cow<'_, Self>> = contributions.iter().map(|(_, v)| v.to_model()).collect();
        let weighted: Vec<(f64, &Self)> = contributions
            .iter()
            .zip(&models)
            .map(|((w, _), m)| (*w, m.as_ref()))
            .collect();
        self.merge(&weighted, self_weight);
    }

    /// Total number of learnable parameters.
    fn param_count(&self) -> usize;

    /// Serialized size in bytes (what model sharing puts on the wire).
    fn wire_size(&self) -> usize {
        let mut count = ByteCount::default();
        self.write_bytes(&mut count);
        count.0
    }

    /// Streams the wire encoding into `sink` — the one serialiser.
    /// [`Model::to_bytes`] collects it into a `Vec`; digests
    /// (commitments, snapshot digests, fingerprints) hash it as it is
    /// produced, without materialising the model.
    fn write_bytes(&self, sink: &mut impl ByteSink);

    /// Streams a **change record** into `sink` — everything written to
    /// this model since the previous record, enough to rebuild the model
    /// from its state at that record — and starts the next one. This is
    /// what one commitment link hashes. Returns how many rows the record
    /// carries, or `None` for the full form: exactly the
    /// [`Model::write_bytes`] stream, which is all the default (and any
    /// model that keeps no write log) ever emits. A model's first record
    /// is the full form, and a clone carries its source's log.
    fn write_changes(&mut self, sink: &mut impl ByteSink) -> Option<usize> {
        self.write_bytes(sink);
        None
    }

    /// Serializes for the wire: [`Model::write_bytes`] into a `Vec`.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_size());
        self.write_bytes(&mut buf);
        buf
    }

    /// Deserializes from wire bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, ModelCodecError>
    where
        Self: Sized;

    /// Resident memory estimate in bytes: parameters plus optimizer state
    /// plus masks. Used by the EPC accounting in `rex-tee`.
    fn memory_bytes(&self) -> usize;

    /// Content fingerprint of this model *as a sparse-delta reference*:
    /// two models with the same fingerprint must be interchangeable as
    /// the `reference` of [`Model::delta_bytes`] / [`Model::apply_delta`],
    /// up to fields the delta carries explicitly. Implementations that
    /// exclude per-node fields (e.g. MF's local global mean) let fleets
    /// whose references differ only in those fields exchange deltas.
    fn ref_fingerprint(&self) -> u64 {
        let mut hash = Fnv1a64::new();
        self.write_bytes(&mut hash);
        hash.finish()
    }

    /// Serializes this model as a **sparse delta** against `reference`:
    /// only the rows whose parameters differ, keyed by row index — the
    /// REX wire optimization for model sharing, where early-epoch models
    /// diverge from the fleet's shared initialization in few rows.
    ///
    /// Returns `None` when the changed-row density exceeds `max_density`
    /// (the dense encoding is then no smaller, so callers fall back to
    /// [`Model::to_bytes`]) or when the model has no sparse form. The
    /// default implementation never produces a delta. `ref_fingerprint`
    /// is the caller-cached [`Model::ref_fingerprint`] of `reference`;
    /// it is embedded in the encoding so a decoder with a mismatched
    /// reference rejects instead of silently corrupting.
    fn delta_bytes(
        &self,
        _reference: &Self,
        _ref_fingerprint: u64,
        _max_density: f64,
    ) -> Option<Vec<u8>> {
        None
    }

    /// Reconstructs the sender's full model from a sparse delta produced
    /// by [`Model::delta_bytes`]: clones `reference` and overwrites the
    /// carried rows, bit-exactly. Fails when the embedded fingerprint
    /// disagrees with `ref_fingerprint` (the decode reference is not the
    /// encode reference) or the bytes are malformed.
    fn apply_delta(
        _reference: &Self,
        _ref_fingerprint: u64,
        _bytes: &[u8],
    ) -> Result<Self, ModelCodecError>
    where
        Self: Sized,
    {
        Err(ModelCodecError::Incompatible(
            "model has no sparse-delta form".into(),
        ))
    }
}
