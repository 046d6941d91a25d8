//! Online top-k serving over a node's live MF factors.
//!
//! The paper's recommenders exist to *answer queries*: given a user, rank
//! the catalogue by the biased-MF prediction and return the best `k`
//! items. This module is the read side of that contract, built to stay
//! bit-deterministic while the write side (training) keeps mutating the
//! factor tables:
//!
//! * [`score_one`] — the *unclamped* biased-MF score, replicating
//!   [`rex_ml::Model::predict`]'s float op order exactly (so
//!   `score_one(..).clamp(0.5, 5.0)` is bit-identical to `predict`).
//!   Ranking uses the unclamped value: clamping collapses everything
//!   above 5.0 into one tie and destroys the ordering.
//! * [`Scorer`] — the production query path: a blocked scan over the
//!   item table with per-block score upper bounds (cached item norms,
//!   keyed on [`rex_ml::MfModel::factor_version`] so any factor mutation
//!   invalidates them), a bounded min-heap, and per-shard candidate
//!   pruning via a sorted exclusion list. Exactly equal, bit for bit
//!   and tie for tie, to [`naive_top_k`].
//! * [`naive_top_k`] — the brute-force oracle: full scan + stable
//!   argsort. Slow, obviously correct, and the reference every Scorer
//!   optimisation is tested against.
//! * [`QueryStream`] — a seeded splitmix64 query generator, so serve
//!   workloads replay bit-for-bit like everything else in the repo.
//! * [`SnapshotQueue`] — the epoch-consistent read path: training
//!   publishes an immutable [`ModelSnapshot`] (an `Arc` of the model
//!   plus, on a verifying queue, a wire-bytes digest) after each epoch;
//!   serve threads consume
//!   *every* epoch in order, so the served sequence is a pure function
//!   of the training seed — never a race-dependent "latest".
//!
//! # Determinism contract
//!
//! For a fixed model and exclusion list, `Scorer::top_k` returns the
//! same `Vec<ScoredItem>` as `naive_top_k`: items ordered by unclamped
//! score descending ([`f32::total_cmp`]), ties broken by ascending item
//! id. Block-level pruning bounds are computed in `f64` with an absolute
//! slack so `f32` rounding in the cached norms can never prune a true
//! top-k item; pruning only ever skips work, never changes answers.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use rex_ml::bytesio::{ByteSink, Fnv1a64};
use rex_ml::kernel::{self, Lanes, Sweep};
use rex_ml::{MfModel, Model};

/// Items per pruning block in [`Scorer`]. 64 rows × k=10 f32 factors is
/// 2.5 KiB — small enough to stay cache-resident, large enough that the
/// per-block bound check amortises.
pub const DEFAULT_BLOCK: usize = 64;

/// Absolute slack added to every block's `f64` upper bound before the
/// prune comparison. The cached per-block stats (`max ‖y_i‖`, `max c_i`)
/// are exact in `f64`, but the Cauchy–Schwarz bound they feed composes
/// `f32` inputs whose products round differently than the scan's own
/// `f32` accumulation; 1e-3 dwarfs any such rounding for rating-scale
/// magnitudes while still pruning almost every cold block.
const BOUND_SLACK: f64 = 1e-3;

/// One top-k request: "rank the catalogue for `user`, return `k` items".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKQuery {
    /// Global user id (row in the factor table, when present).
    pub user: u32,
    /// Result-set size. Capped by the number of admissible items.
    pub k: usize,
}

/// One ranked result: an item and its *unclamped* biased-MF score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredItem {
    /// Item id.
    pub item: u32,
    /// Unclamped score from [`score_one`].
    pub score: f32,
}

/// The unclamped biased-MF score of (`user`, `item`).
///
/// Bit-compatible with [`rex_ml::Model::predict`]: identical term order
/// and gating, minus the final clamp — `score_one(m, u, i).clamp(0.5,
/// 5.0)` equals `m.predict(u, i)` bit for bit. Out-of-range users/items
/// fall back to the global mean like `predict` does.
#[must_use]
pub fn score_one(model: &MfModel, user: u32, item: u32) -> f32 {
    score_by(model, user, item, kernel::dot)
}

/// [`score_one`] with the dot product supplied by the caller: the element
/// entry passes [`kernel::dot`], the scan sweep its level's.
#[inline(always)]
fn score_by(model: &MfModel, user: u32, item: u32, dot: impl FnOnce(&[f32], &[f32]) -> f32) -> f32 {
    let mut score = model.global_mean();
    let user_ok = user < model.num_users() && model.has_user(user);
    let item_ok = item < model.num_items() && model.has_item(item);
    if user_ok {
        score += model.user_bias(user);
    }
    if item_ok {
        let (factors, bias) = model.item_row(item);
        score += bias;
        if user_ok {
            score += dot(model.user_factors(user), factors);
        }
    }
    score
}

/// Total order on results: higher score first, ties by ascending item
/// id. `f32::total_cmp` keeps the order total (and deterministic) even
/// for bit-patterns float `>` would conflate.
fn rank_cmp(a: &ScoredItem, b: &ScoredItem) -> std::cmp::Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| a.item.cmp(&b.item))
}

/// Whether `a` ranks strictly worse than `b` (lower score, or equal
/// score and larger item id). The min-heap root is the *worst* of the
/// current top-k under this relation.
fn ranks_worse(a: &ScoredItem, b: &ScoredItem) -> bool {
    rank_cmp(a, b) == std::cmp::Ordering::Greater
}

/// Brute-force top-k oracle: score every admissible item with
/// [`score_one`], sort by the ranking order, truncate to `k`.
///
/// `exclude` must be sorted ascending (binary-searched per item); it is
/// the per-shard candidate-pruning list — typically the items the user
/// has already rated.
#[must_use]
pub fn naive_top_k(model: &MfModel, user: u32, k: usize, exclude: &[u32]) -> Vec<ScoredItem> {
    debug_assert!(
        exclude.windows(2).all(|w| w[0] < w[1]),
        "exclude sorted+dedup"
    );
    let mut all: Vec<ScoredItem> = (0..model.num_items())
        .filter(|item| exclude.binary_search(item).is_err())
        .map(|item| ScoredItem {
            item,
            score: score_one(model, user, item),
        })
        .collect();
    all.sort_by(rank_cmp);
    all.truncate(k);
    all
}

/// Per-block pruning statistics over the item table, all in `f64` so the
/// bound arithmetic never loses to the `f32` scan it guards.
#[derive(Debug, Clone, Copy)]
struct BlockStats {
    /// max over *seen* items in the block of `c_i + s·‖y_i‖` inputs:
    /// the largest item bias…
    max_bias: f64,
    /// …and the largest factor-row norm.
    max_norm: f64,
    /// Whether the block holds any seen item at all.
    any_seen: bool,
    /// Whether the block holds any unseen item (those score exactly the
    /// user-side base, so they bound differently).
    any_unseen: bool,
}

/// Blocked, bound-pruned top-k scorer over a live [`MfModel`].
///
/// Holds per-block item-norm/bias caches keyed on
/// [`MfModel::factor_version`]: any mutation of the factor tables (SGD,
/// merge, delta apply, codec round-trip) re-stamps the model and the
/// next query transparently rebuilds the cache. Queries against an
/// unchanged model reuse it.
///
/// The scan visits item blocks in ascending order, keeping the current
/// top-k in a bounded min-heap whose root is the worst kept result.
/// Once the heap is full, a block whose upper bound (computed in `f64`
/// plus a small conservative slack) is *strictly* below the root's score is
/// skipped whole — strictly, because an equal-scoring smaller-id item
/// inside the block would displace the root under the tie order.
#[derive(Debug)]
pub struct Scorer {
    block: usize,
    cached_version: u64,
    stats: Vec<BlockStats>,
}

impl Default for Scorer {
    fn default() -> Self {
        Self::new(DEFAULT_BLOCK)
    }
}

impl Scorer {
    /// A scorer with `block` items per pruning block (≥ 1).
    #[must_use]
    pub fn new(block: usize) -> Self {
        assert!(block >= 1, "block size must be >= 1");
        Self {
            block,
            cached_version: 0,
            stats: Vec::new(),
        }
    }

    /// Rebuilds the per-block cache for `model` if its factor version
    /// differs from the cached one.
    fn refresh(&mut self, model: &MfModel) {
        if self.cached_version == model.factor_version() && !self.stats.is_empty() {
            return;
        }
        self.stats.clear();
        self.stats
            .reserve((model.num_items() as usize).div_ceil(self.block));
        kernel::sweep(StatsSweep {
            model,
            block: self.block,
            stats: &mut self.stats,
        });
        self.cached_version = model.factor_version();
    }

    /// Answers `query` against `model`, excluding the sorted item list
    /// `exclude` (per-shard candidate pruning; pass `&[]` for none).
    ///
    /// Returns at most `query.k` items ordered best-first. Bit-identical
    /// to [`naive_top_k`] on the same inputs.
    pub fn top_k(
        &mut self,
        model: &MfModel,
        query: &TopKQuery,
        exclude: &[u32],
    ) -> Vec<ScoredItem> {
        debug_assert!(
            exclude.windows(2).all(|w| w[0] < w[1]),
            "exclude sorted+dedup"
        );
        if query.k == 0 {
            return Vec::new();
        }
        self.refresh(model);
        let mut heap = kernel::sweep(ScanSweep {
            model,
            query,
            exclude,
            block: self.block,
            stats: &self.stats,
        });
        heap.sort_by(rank_cmp);
        heap
    }
}

/// The norm-cache rebuild as one kernel sweep: a [`BlockStats`] per
/// `block` items, pushed onto `stats` in block order.
struct StatsSweep<'a> {
    model: &'a MfModel,
    block: usize,
    stats: &'a mut Vec<BlockStats>,
}

impl Sweep for StatsSweep<'_> {
    type Output = ();
    #[inline(always)]
    fn run<L: Lanes>(self, lanes: L) {
        let model = self.model;
        let n = model.num_items() as usize;
        let mut lo = 0;
        while lo < n {
            let hi = (lo + self.block).min(n);
            let mut s = BlockStats {
                max_bias: f64::NEG_INFINITY,
                max_norm: 0.0,
                any_seen: false,
                any_unseen: false,
            };
            for item in lo as u32..hi as u32 {
                if model.has_item(item) {
                    s.any_seen = true;
                    let (factors, bias) = model.item_row(item);
                    s.max_bias = s.max_bias.max(f64::from(bias));
                    let norm = lanes.norm_sq(factors).sqrt();
                    s.max_norm = s.max_norm.max(norm);
                } else {
                    s.any_unseen = true;
                }
            }
            self.stats.push(s);
            lo = hi;
        }
    }
}

/// The block scan as one kernel sweep: visits the blocks `stats`
/// describes in order and returns the bounded min-heap of the best
/// `query.k` admissible items (root = worst kept), unsorted.
struct ScanSweep<'a> {
    model: &'a MfModel,
    query: &'a TopKQuery,
    exclude: &'a [u32],
    block: usize,
    stats: &'a [BlockStats],
}

impl Sweep for ScanSweep<'_> {
    type Output = Vec<ScoredItem>;
    #[inline(always)]
    fn run<L: Lanes>(self, lanes: L) -> Vec<ScoredItem> {
        let (model, query) = (self.model, self.query);
        let user = query.user;
        let user_ok = (user as usize) < model.num_users() as usize && model.has_user(user);
        // User-side base term shared by every item: mean (+ user bias).
        let base = f64::from(model.global_mean())
            + if user_ok {
                f64::from(model.user_bias(user))
            } else {
                0.0
            };
        // ‖x_u‖ caps the dot-product contribution via Cauchy–Schwarz.
        let user_norm = if user_ok {
            lanes.norm_sq(model.user_factors(user)).sqrt()
        } else {
            0.0
        };

        let mut heap: Vec<ScoredItem> = Vec::with_capacity(query.k);
        let n = model.num_items() as usize;
        let mut lo = 0;
        for stats in self.stats {
            let hi = (lo + self.block).min(n);
            if heap.len() == query.k {
                // Block upper bound: seen items can reach base + max c +
                // ‖x_u‖·max ‖y_i‖; unseen items score exactly `base`.
                let mut bound = f64::NEG_INFINITY;
                if stats.any_seen {
                    let dot_cap = if user_ok {
                        user_norm * stats.max_norm
                    } else {
                        0.0
                    };
                    bound = base + stats.max_bias + dot_cap;
                }
                if stats.any_unseen {
                    bound = bound.max(base);
                }
                // Strict: an equal bound could still hide a tie that
                // wins on item id.
                if bound + BOUND_SLACK < f64::from(heap[0].score) {
                    lo = hi;
                    continue;
                }
            }
            for item in lo as u32..hi as u32 {
                if self.exclude.binary_search(&item).is_ok() {
                    continue;
                }
                let cand = ScoredItem {
                    item,
                    score: score_by(model, user, item, |x, y| lanes.dot(x, y)),
                };
                if heap.len() < query.k {
                    heap.push(cand);
                    let last = heap.len() - 1;
                    sift_up(&mut heap, last);
                } else if ranks_worse(&heap[0], &cand) {
                    heap[0] = cand;
                    sift_down(&mut heap, 0);
                }
            }
            lo = hi;
        }
        heap
    }
}

fn sift_up(heap: &mut [ScoredItem], mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if ranks_worse(&heap[i], &heap[parent]) {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn sift_down(heap: &mut [ScoredItem], mut i: usize) {
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut worst = i;
        if l < heap.len() && ranks_worse(&heap[l], &heap[worst]) {
            worst = l;
        }
        if r < heap.len() && ranks_worse(&heap[r], &heap[worst]) {
            worst = r;
        }
        if worst == i {
            break;
        }
        heap.swap(i, worst);
        i = worst;
    }
}

/// Seeded deterministic query generator (splitmix64 over the seed):
/// an infinite stream of [`TopKQuery`]s for reproducible serve load.
#[derive(Debug, Clone)]
pub struct QueryStream {
    state: u64,
    num_users: u32,
    k: usize,
}

impl QueryStream {
    /// A stream drawing users uniformly from `0..num_users`, all with
    /// result size `k`.
    #[must_use]
    pub fn new(seed: u64, num_users: u32, k: usize) -> Self {
        assert!(num_users > 0, "query stream needs at least one user");
        Self {
            state: seed,
            num_users,
            k,
        }
    }

    /// The next query in the stream.
    pub fn next_query(&mut self) -> TopKQuery {
        let r = splitmix64(&mut self.state);
        TopKQuery {
            user: (r % u64::from(self.num_users)) as u32,
            k: self.k,
        }
    }
}

/// splitmix64 step — the standard 64-bit mix, self-contained so the
/// query stream's byte trajectory never depends on the RNG crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An immutable, epoch-pinned view of a model for serving: the training
/// loop publishes one per epoch; serve threads score against it without
/// ever touching the trainer's live (mutating) instance.
#[derive(Debug, Clone)]
pub struct ModelSnapshot<M> {
    /// Epoch the snapshot was taken *after* (0-based, as executed).
    pub epoch: usize,
    /// The frozen model. `Arc`-shared: the trainer clones the model once
    /// at publish time, so no later SGD step can reach this instance.
    pub model: Arc<M>,
    /// FNV-1a digest of the model's wire bytes at publish time
    /// ([`snapshot_digest`]), or 0 when nobody will check it: a consumer
    /// of a [verifying](SnapshotQueue::verifies) queue recomputes this
    /// before use — any mismatch would prove a torn read (shared mutable
    /// row), which the `Arc`-of-clone design makes structurally
    /// impossible — and [`SnapshotQueue::publish_model`] hashes the
    /// model only for such a queue.
    pub digest: u64,
}

/// The wire-bytes digest used in [`ModelSnapshot::digest`].
#[must_use]
pub fn snapshot_digest<M: Model>(model: &M) -> u64 {
    let mut hash = Fnv1a64::new();
    model.write_bytes(&mut hash);
    hash.finish()
}

/// An unbounded MPSC queue of [`ModelSnapshot`]s with blocking pop.
///
/// Unbounded on purpose, twice over: a bounded queue could deadlock the
/// trainer against the transport's epoch barriers, and a latest-only
/// cell would make the *set* of epochs a serve thread observes depend
/// on thread scheduling — the consumer must see every published epoch
/// for the served digest trajectory to be deterministic.
#[derive(Debug)]
pub struct SnapshotQueue<M> {
    inner: Mutex<QueueState<M>>,
    cv: Condvar,
    /// Whether the consumer re-digests every snapshot it pops.
    verifies: bool,
}

#[derive(Debug)]
struct QueueState<M> {
    queue: VecDeque<ModelSnapshot<M>>,
    closed: bool,
}

impl<M> Default for SnapshotQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> SnapshotQueue<M> {
    /// An empty, open queue whose consumer takes snapshots as published.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(QueueState {
                queue: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            verifies: false,
        }
    }

    /// An empty, open queue whose consumer re-digests every snapshot:
    /// [`SnapshotQueue::publish_model`] pays for the digest it will check.
    #[must_use]
    pub fn verified() -> Self {
        Self {
            verifies: true,
            ..Self::new()
        }
    }

    /// The queue state, recovered when a thread panicked holding the
    /// lock: every critical section is one push, pop or flag write, so
    /// an abandoned guard still leaves a consistent queue, and a client
    /// thread's panic must not take the trainer down with it.
    fn state(&self) -> MutexGuard<'_, QueueState<M>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether snapshots on this queue carry a digest the consumer must
    /// recompute and compare. The one posture both ends read.
    #[must_use]
    pub fn verifies(&self) -> bool {
        self.verifies
    }

    /// Publishes a snapshot. Publishing to a closed queue is a no-op
    /// (the consumer has already detached).
    pub fn publish(&self, snap: ModelSnapshot<M>) {
        let mut state = self.state();
        if !state.closed {
            state.queue.push_back(snap);
            self.cv.notify_one();
        }
    }

    /// Publishes `model` as the snapshot taken after `epoch`, digesting
    /// it only when this queue [verifies](SnapshotQueue::verifies)
    /// (`digest` is 0 otherwise): the digest is a byte-serial pass over
    /// the whole model, per epoch, on the trainer's critical path.
    pub fn publish_model(&self, epoch: usize, model: Arc<M>)
    where
        M: Model,
    {
        let digest = if self.verifies {
            snapshot_digest(model.as_ref())
        } else {
            0
        };
        self.publish(ModelSnapshot {
            epoch,
            model,
            digest,
        });
    }

    /// Closes the queue: consumers drain what is buffered, then see
    /// end-of-stream. Idempotent.
    pub fn close(&self) {
        let mut state = self.state();
        state.closed = true;
        self.cv.notify_all();
    }

    /// Pops the oldest snapshot, blocking up to `timeout`.
    ///
    /// * `Ok(Some(snap))` — a snapshot, in publish order.
    /// * `Ok(None)` — queue closed and fully drained: end of stream.
    /// * `Err(_)` — nothing arrived within `timeout` (the queue stays
    ///   usable; callers treat this as a stuck-trainer diagnostic).
    pub fn pop_wait(&self, timeout: Duration) -> Result<Option<ModelSnapshot<M>>, String> {
        let mut state = self.state();
        loop {
            if let Some(snap) = state.queue.pop_front() {
                return Ok(Some(snap));
            }
            if state.closed {
                return Ok(None);
            }
            let (next, res) = self
                .cv
                .wait_timeout(state, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if res.timed_out() && state.queue.is_empty() && !state.closed {
                return Err(format!(
                    "snapshot queue: nothing published within {timeout:?}"
                ));
            }
        }
    }

    /// Snapshots currently buffered (unconsumed).
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.state().queue.len()
    }
}

/// Seed value for a serve-digest fold ([`fold_topk`]): the FNV-1a
/// offset basis, i.e. the digest of the empty answer stream.
pub const SERVE_DIGEST_SEED: u64 = Fnv1a64::OFFSET;

/// Folds one answered query into a running serve digest: epoch, query,
/// and every (item, score-bits) pair, all little-endian. Two serve
/// threads that answered the same queries against the same snapshots
/// end with the same digest — the bit-exactness oracle for the whole
/// serve path.
#[must_use]
pub fn fold_topk(digest: u64, epoch: usize, query: &TopKQuery, results: &[ScoredItem]) -> u64 {
    let mut hash = Fnv1a64::resume(digest);
    hash.put(&(epoch as u64).to_le_bytes());
    hash.put(&query.user.to_le_bytes());
    hash.put(&(query.k as u64).to_le_bytes());
    for r in results {
        hash.put(&r.item.to_le_bytes());
        hash.put(&r.score.to_bits().to_le_bytes());
    }
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rex_data::Rating;
    use rex_ml::MfHyperParams;

    fn trained_model(seed: u64, users: u32, items: u32, steps: usize) -> MfModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<Rating> = (0..users * 4)
            .map(|j| {
                let r = splitmix64(&mut { j as u64 ^ (seed << 8) });
                Rating {
                    user: j % users,
                    item: (r % u64::from(items)) as u32,
                    value: 0.5 + (r >> 32 & 7) as f32 * 0.5,
                }
            })
            .collect();
        let mut m = MfModel::new(users, items, MfHyperParams::default(), 3.1, seed);
        m.train_steps(&data, steps, &mut rng);
        m
    }

    #[test]
    fn score_one_clamped_matches_predict_bitwise() {
        let m = trained_model(7, 12, 40, 300);
        for user in 0..12 {
            for item in 0..40 {
                assert_eq!(
                    score_one(&m, user, item).clamp(0.5, 5.0).to_bits(),
                    m.predict(user, item).to_bits(),
                    "user {user} item {item}"
                );
            }
        }
    }

    #[test]
    fn scorer_matches_oracle_on_trained_models() {
        let mut scorer = Scorer::new(8);
        for seed in 0..6u64 {
            let m = trained_model(seed, 10, 97, 400);
            for user in 0..10 {
                for k in [1usize, 5, 97, 200] {
                    let q = TopKQuery { user, k };
                    assert_eq!(
                        scorer.top_k(&m, &q, &[]),
                        naive_top_k(&m, user, k, &[]),
                        "seed {seed} user {user} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn scorer_honours_exclusions() {
        let m = trained_model(3, 8, 50, 300);
        let mut scorer = Scorer::new(16);
        let exclude: Vec<u32> = vec![0, 7, 13, 14, 49];
        let got = scorer.top_k(&m, &TopKQuery { user: 2, k: 50 }, &exclude);
        assert_eq!(got.len(), 50 - exclude.len());
        assert!(got.iter().all(|s| exclude.binary_search(&s.item).is_err()));
        assert_eq!(got, naive_top_k(&m, 2, 50, &exclude));
    }

    #[test]
    fn scorer_cache_invalidates_on_training() {
        let mut m = trained_model(11, 6, 64, 200);
        let mut scorer = Scorer::new(DEFAULT_BLOCK);
        let q = TopKQuery { user: 1, k: 10 };
        assert_eq!(scorer.top_k(&m, &q, &[]), naive_top_k(&m, 1, 10, &[]));
        // Mutate the factors; the stale cache must not survive.
        let data = vec![
            Rating {
                user: 1,
                item: 63,
                value: 5.0
            };
            1
        ];
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            m.train_steps(&data, 4, &mut rng);
            assert_eq!(scorer.top_k(&m, &q, &[]), naive_top_k(&m, 1, 10, &[]));
        }
    }

    #[test]
    fn scorer_breaks_ties_by_item_id() {
        // A fresh model has no seen users/items: every score is the
        // global mean, so top-k is the k smallest item ids.
        let m = MfModel::new(4, 30, MfHyperParams::default(), 3.0, 1);
        let mut scorer = Scorer::default();
        let got = scorer.top_k(&m, &TopKQuery { user: 0, k: 5 }, &[]);
        assert_eq!(
            got.iter().map(|s| s.item).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(got, naive_top_k(&m, 0, 5, &[]));
    }

    #[test]
    fn query_stream_is_seeded_and_deterministic() {
        let mut a = QueryStream::new(0xABCD, 100, 10);
        let mut b = QueryStream::new(0xABCD, 100, 10);
        let qa: Vec<_> = (0..64).map(|_| a.next_query()).collect();
        let qb: Vec<_> = (0..64).map(|_| b.next_query()).collect();
        assert_eq!(qa, qb);
        assert!(qa.iter().all(|q| q.user < 100 && q.k == 10));
        let mut c = QueryStream::new(0xABCE, 100, 10);
        let qc: Vec<_> = (0..64).map(|_| c.next_query()).collect();
        assert_ne!(qa, qc, "different seeds must diverge");
    }

    #[test]
    fn snapshot_queue_delivers_every_epoch_in_order() {
        let q: SnapshotQueue<MfModel> = SnapshotQueue::new();
        let m = Arc::new(trained_model(1, 4, 16, 50));
        for epoch in 0..5 {
            q.publish(ModelSnapshot {
                epoch,
                model: Arc::clone(&m),
                digest: epoch as u64,
            });
        }
        q.close();
        let mut seen = Vec::new();
        while let Some(s) = q.pop_wait(Duration::from_secs(1)).unwrap() {
            seen.push(s.epoch);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // Publish-after-close is dropped; the stream stays ended.
        q.publish(ModelSnapshot {
            epoch: 9,
            model: m,
            digest: 9,
        });
        assert!(q.pop_wait(Duration::from_millis(10)).unwrap().is_none());
    }

    #[test]
    fn a_lock_poisoned_by_a_panicked_thread_does_not_stop_the_queue() {
        let q: SnapshotQueue<MfModel> = SnapshotQueue::new();
        let m = Arc::new(trained_model(1, 4, 16, 50));
        q.publish_model(0, Arc::clone(&m));
        std::thread::scope(|scope| {
            let panicked = scope.spawn(|| {
                let _guard = q.inner.lock().unwrap();
                panic!("client thread dies holding the queue lock");
            });
            assert!(panicked.join().is_err());
        });
        assert!(q.inner.is_poisoned());
        q.publish_model(1, Arc::clone(&m));
        assert_eq!(q.backlog(), 2);
        let epoch =
            |q: &SnapshotQueue<MfModel>| q.pop_wait(Duration::ZERO).unwrap().map(|s| s.epoch);
        assert_eq!(epoch(&q), Some(0));
        assert_eq!(epoch(&q), Some(1));
        assert!(
            q.pop_wait(Duration::from_millis(10)).is_err(),
            "empty, still open"
        );
        q.close();
        assert_eq!(epoch(&q), None);
    }

    #[test]
    fn snapshot_queue_times_out_when_idle() {
        let q: SnapshotQueue<MfModel> = SnapshotQueue::new();
        assert!(q.pop_wait(Duration::from_millis(20)).is_err());
    }

    #[test]
    fn publish_model_digests_only_on_a_verifying_queue() {
        let m = Arc::new(trained_model(2, 4, 16, 50));
        let plain: SnapshotQueue<MfModel> = SnapshotQueue::new();
        let verified: SnapshotQueue<MfModel> = SnapshotQueue::verified();
        assert!(!plain.verifies() && verified.verifies());
        plain.publish_model(3, Arc::clone(&m));
        verified.publish_model(3, Arc::clone(&m));
        let pop = |q: &SnapshotQueue<MfModel>| q.pop_wait(Duration::ZERO).unwrap().unwrap();
        let (p, v) = (pop(&plain), pop(&verified));
        assert_eq!((p.epoch, p.digest), (3, 0));
        assert_eq!((v.epoch, v.digest), (3, snapshot_digest(m.as_ref())));
        assert!(Arc::ptr_eq(&v.model, &m));
    }

    #[test]
    fn snapshot_digest_matches_wire_bytes() {
        let m = trained_model(2, 4, 16, 50);
        assert_eq!(snapshot_digest(&m), rex_ml::bytesio::fnv1a64(&m.to_bytes()));
    }

    #[test]
    fn fold_topk_is_order_and_content_sensitive() {
        let q = TopKQuery { user: 3, k: 2 };
        let a = [
            ScoredItem {
                item: 1,
                score: 4.0,
            },
            ScoredItem {
                item: 2,
                score: 3.5,
            },
        ];
        let b = [
            ScoredItem {
                item: 2,
                score: 3.5,
            },
            ScoredItem {
                item: 1,
                score: 4.0,
            },
        ];
        let da = fold_topk(SERVE_DIGEST_SEED, 0, &q, &a);
        let db = fold_topk(SERVE_DIGEST_SEED, 0, &q, &b);
        assert_ne!(da, db);
        assert_eq!(da, fold_topk(SERVE_DIGEST_SEED, 0, &q, &a));
        assert_ne!(da, fold_topk(SERVE_DIGEST_SEED, 1, &q, &a));
    }
}
