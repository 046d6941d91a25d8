//! The local raw-data store.
//!
//! Grows as neighbours gossip triplets; duplicates are dropped on append
//! (paper §III-B merge: "all non-duplicate data items are appended to the
//! local training data store"; §IV-C: "new data items are simply dumped
//! into the local store" after a duplicate check). Sampling for the share
//! step is stateless — the same point may be sent twice across epochs
//! (§III-E).
//!
//! # User shards
//!
//! A store may be **sharded**: keyed by a contiguous [`UserBlock`] of
//! user rows, it maintains a row index (per-row posting lists into the
//! flat rating vector, plus an overflow list for gossiped ratings whose
//! user falls outside the block). The flat arrival-order vector stays
//! the canonical representation — training and sampling read it exactly
//! as an unsharded store would, so a node's learning trajectory never
//! depends on the index. Blocks of width ≤ 1 skip the index entirely:
//! a `users_per_node = 1` deployment is *representationally* identical
//! to the legacy per-user store, byte accounting included.
//!
//! # Cell keys
//!
//! The duplicate check keeps one key per stored cell, and on a fleet the
//! key sets are most of what the stores hold beside their ratings. A
//! store built for a model's cell space ([`RawDataStore::for_space`],
//! what a node builds from `Model::cells`) refuses every rating outside
//! `users × items` and keys the rest by the packed cell
//! `user · items + item`. Inside the space that map is one-to-one (it is
//! the cell's row-major index, below `users · items`), so when the space
//! holds at most 2^32 cells every key fits a `u32` and no two cells
//! share one: the paper's 610 × 9 000 space needs 23 bits. A larger
//! space, or a store built without one ([`RawDataStore::new`],
//! [`RawDataStore::with_initial`], [`RawDataStore::with_shard`]: tests,
//! tools and probes that hold whatever they are given), keys
//! `user << 32 | item` in a `u64`, which is one-to-one on every cell.
//! Which form a store takes changes only its key set's size: the
//! verdicts, the arrival-order vector, [`RawDataStore::sample`] and
//! [`RawDataStore::memory_bytes`] are the same for every form.
//!
//! # The duplicate check's hash
//!
//! The key set is a std `HashSet` of packed cells hashed through
//! `CellHash`: the one packed integer, one multiply by a per-store odd
//! key, one xor-shift fold (the product's high half onto its low half,
//! because the table takes its bucket from the low bits and its control
//! byte from the top seven, and a multiply alone leaves the low bits a
//! function of the cell's low bits). A merge on a raw-sharing node is
//! ~1 750 probes into memory the rest of the fleet has evicted; std's
//! SipHash spends a ~100-instruction dependent chain on each key, which
//! keeps the out-of-order window from holding more than two or three
//! probes, so their cache misses queue. At three instructions per key
//! the window holds many probes and the misses overlap.
//!
//! This is **not** a cryptographic hash, and it replaces SipHash rather
//! than sitting beside it. Keys arrive from attested peers of the same
//! fleet, but the multiplier is still secret per store (drawn from
//! `RandomState`'s process randomness when the store is made), so a peer
//! that wanted to aim collisions at a node would have to guess a 63-bit
//! key it can never observe: the set is only ever inserted into and
//! reserved, never iterated, so neither the key nor the table order
//! reaches a dedup verdict, the arrival-order vector, [`RawDataStore::sample`],
//! [`RawDataStore::memory_bytes`] (which models a 24 B entry, as before)
//! or any fixture byte.

// Every deployed node merges foreign triplets here: a hostile share is
// dropped by the intake filter, never a panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use rand::rngs::StdRng;
use rand::seq::index::{sample as index_sample, IndexVec};
use rex_data::{Rating, UserBlock};
use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::{BuildHasher, Hasher};
use std::mem::size_of;

/// The key set's `BuildHasher`: a per-store odd multiplier (see the
/// module docs, "The duplicate check's hash").
#[derive(Debug, Clone)]
struct CellHash(u64);

impl Default for CellHash {
    fn default() -> Self {
        CellHash(RandomState::new().hash_one(0u8) | 1)
    }
}

impl BuildHasher for CellHash {
    type Hasher = CellHasher;

    fn build_hasher(&self) -> CellHasher {
        CellHasher {
            key: self.0,
            cell: 0,
        }
    }
}

/// Hashes one packed cell: what `u32::hash` (one `write_u32`) or
/// `u64::hash` (one `write_u64`) feeds it.
struct CellHasher {
    key: u64,
    cell: u64,
}

impl Hasher for CellHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the key set hashes packed cells only");
    }

    #[inline]
    fn write_u32(&mut self, half: u32) {
        self.cell = (self.cell << 32) | u64::from(half);
    }

    #[inline]
    fn write_u64(&mut self, cell: u64) {
        self.cell = cell;
    }

    #[inline]
    fn finish(&self) -> u64 {
        let product = self.cell.wrapping_mul(self.key);
        product ^ (product >> 32)
    }
}

/// The duplicate check's key set, in the form the store's cell space
/// allows (see the module docs, "Cell keys").
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
enum CellKeys {
    /// A space of at most 2^32 cells, each keyed `user · items + item`.
    Packed {
        users: u32,
        items: u32,
        set: HashSet<u32, CellHash>,
    },
    /// A larger space (cells outside it refused) or none, each cell keyed
    /// `user << 32 | item`.
    Wide {
        space: Option<(u32, u32)>,
        set: HashSet<u64, CellHash>,
    },
}

impl Default for CellKeys {
    fn default() -> Self {
        CellKeys::new(None, 0, CellHash::default())
    }
}

impl CellKeys {
    /// An empty key set for `space` (`(users, items)`), with room for
    /// `capacity` keys.
    fn new(space: Option<(u32, u32)>, capacity: usize, hash: CellHash) -> Self {
        match space {
            Some((users, items)) if u64::from(users) * u64::from(items) <= 1 << 32 => {
                CellKeys::Packed {
                    users,
                    items,
                    set: HashSet::with_capacity_and_hasher(capacity, hash),
                }
            }
            space => CellKeys::Wide {
                space,
                set: HashSet::with_capacity_and_hasher(capacity, hash),
            },
        }
    }

    /// The dedup verdict: whether `r`'s cell is inside the space and not
    /// yet stored. A cell outside the space is never keyed.
    #[inline]
    fn insert(&mut self, r: &Rating) -> bool {
        match self {
            CellKeys::Packed { users, items, set } => {
                // Inside the space the packed cell is below
                // `users · items` ≤ 2^32: the arithmetic never wraps.
                r.user < *users
                    && r.item < *items
                    && set.insert(r.user.wrapping_mul(*items).wrapping_add(r.item))
            }
            CellKeys::Wide { space, set } => {
                space.is_none_or(|(users, items)| r.user < users && r.item < items)
                    && set.insert((u64::from(r.user) << 32) | u64::from(r.item))
            }
        }
    }

    fn reserve(&mut self, additional: usize) {
        match self {
            CellKeys::Packed { set, .. } => set.reserve(additional),
            CellKeys::Wide { set, .. } => set.reserve(additional),
        }
    }

    /// The heap the set holds: its buckets and their control bytes.
    fn resident_bytes(&self) -> usize {
        match self {
            CellKeys::Packed { set, .. } => table_bytes(set),
            CellKeys::Wide { set, .. } => table_bytes(set),
        }
    }
}

/// The heap of a std hash table of `K` as it lays one out: its bucket
/// count from its capacity (a power of two, at most 7/8 full from 8
/// buckets on, one bucket short below), one `K` and one control byte per
/// bucket, plus one 16-byte control group.
fn table_bytes<K>(set: &HashSet<K, CellHash>) -> usize {
    let buckets = match set.capacity() {
        0 => return 0,
        capacity @ 1..=7 => capacity + 1,
        capacity => capacity / 7 * 8,
    };
    buckets * (size_of::<K>() + 1) + 16
}

/// Row index over a sharded store (built only for blocks wider than one
/// user — see the module docs for the width-1 determinism contract).
#[derive(Debug, Clone)]
struct ShardIndex {
    block: UserBlock,
    /// `rows[local_row]` lists rating-vector indices for that user row,
    /// in arrival order.
    rows: Vec<Vec<u32>>,
    /// Rating-vector indices of gossiped ratings outside the block.
    alien: Vec<u32>,
}

impl ShardIndex {
    /// The index for `block`, when it is wider than one user.
    fn for_block(block: UserBlock) -> Option<Self> {
        (block.width() > 1).then(|| ShardIndex {
            block,
            rows: vec![Vec::new(); block.width() as usize],
            alien: Vec::new(),
        })
    }

    fn note(&mut self, rating_idx: u32, user: u32) {
        let row = self.block.local_row(user);
        match row.and_then(|row| self.rows.get_mut(row as usize)) {
            Some(row) => row.push(rating_idx),
            None => self.alien.push(rating_idx),
        }
    }

    /// The row lists and the overflow list, with their headers.
    fn resident_bytes(&self) -> usize {
        let row_heap: usize = self.rows.iter().map(Vec::capacity).sum();
        self.rows.capacity() * size_of::<Vec<u32>>()
            + (row_heap + self.alien.capacity()) * size_of::<u32>()
    }
}

/// Deduplicating store of rating triplets.
#[derive(Debug, Clone, Default)]
pub struct RawDataStore {
    ratings: Vec<Rating>,
    keys: CellKeys,
    shard: Option<ShardIndex>,
}

impl RawDataStore {
    /// Empty store, built without a cell space.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Store seeded with the node's initial local data, built without a
    /// cell space: it keeps any cell it is given.
    #[must_use]
    pub fn with_initial(initial: Vec<Rating>) -> Self {
        Self::seeded(initial, None, None)
    }

    /// Sharded store keyed by a contiguous user-row block, seeded with
    /// the shard's initial data, built without a cell space. Blocks of
    /// width ≤ 1 build no index — the resulting store is
    /// indistinguishable from [`RawDataStore::with_initial`]'s, memory
    /// accounting included.
    #[must_use]
    pub fn with_shard(block: UserBlock, initial: Vec<Rating>) -> Self {
        Self::seeded(initial, None, ShardIndex::for_block(block))
    }

    /// Store for a model's cell space `(users, items)` (`Model::cells`),
    /// sharded by `block` if one is given (as [`RawDataStore::with_shard`]
    /// builds it), seeded with `initial`. It refuses every rating outside
    /// the space, `initial`'s included, and keys the rest in 32 bits when
    /// the space holds at most 2^32 cells (see the module docs, "Cell
    /// keys").
    #[must_use]
    pub fn for_space(space: (u32, u32), block: Option<UserBlock>, initial: Vec<Rating>) -> Self {
        Self::seeded(initial, Some(space), block.and_then(ShardIndex::for_block))
    }

    /// The store [`RawDataStore::append_batch`] builds from `initial` on
    /// an empty one, deduplicated in the vector it is given instead of
    /// copied out of it.
    fn seeded(
        mut ratings: Vec<Rating>,
        space: Option<(u32, u32)>,
        mut shard: Option<ShardIndex>,
    ) -> Self {
        let mut keys = CellKeys::new(space, ratings.len(), CellHash::default());
        ratings.retain(|r| keys.insert(r));
        if let Some(shard) = shard.as_mut() {
            for (i, r) in ratings.iter().enumerate() {
                shard.note(i as u32, r.user);
            }
        }
        RawDataStore {
            ratings,
            keys,
            shard,
        }
    }

    /// The user-row block this store is sharded by, if any (width > 1).
    #[must_use]
    pub fn shard_block(&self) -> Option<UserBlock> {
        self.shard.as_ref().map(|s| s.block)
    }

    /// Appends non-duplicate items inside the store's space; returns how
    /// many were new.
    pub fn append_batch(&mut self, batch: &[Rating]) -> usize {
        self.append(batch.len(), batch.iter().copied())
    }

    /// Appends a gossiped share's ratings through the merge's intake
    /// filter — a cell inside the store's space and a finite value — and
    /// the duplicate check; returns how many were new. A parsable share
    /// can still carry either kind of rating, and training would index
    /// the model's tables with the first and poison them with the
    /// second: both are dropped like any other undecodable input (an
    /// honest share loses nothing).
    pub fn append_share(&mut self, share: impl ExactSizeIterator<Item = Rating>) -> usize {
        self.append(share.len(), share.filter(|r| r.value.is_finite()))
    }

    /// Appends `batch`, of at most `len` ratings.
    fn append(&mut self, len: usize, batch: impl Iterator<Item = Rating>) -> usize {
        // Reserve up front: this is the gossip hot path, and growth-by-
        // doubling mid-batch re-hashes the whole key set.
        self.ratings.reserve(len);
        self.keys.reserve(len);
        let mut added = 0;
        for r in batch {
            if self.keys.insert(&r) {
                if let Some(shard) = self.shard.as_mut() {
                    shard.note(self.ratings.len() as u32, r.user);
                }
                self.ratings.push(r);
                added += 1;
            }
        }
        added
    }

    /// All stored ratings.
    #[must_use]
    pub fn ratings(&self) -> &[Rating] {
        &self.ratings
    }

    /// A sharded store's ratings for one hosted user, in arrival order.
    /// `None` when the store is unsharded or `user` is outside the block.
    #[must_use]
    pub fn row_ratings(&self, user: u32) -> Option<Vec<Rating>> {
        let shard = self.shard.as_ref()?;
        let row = shard.rows.get(shard.block.local_row(user)? as usize)?;
        Some(
            row.iter()
                .filter_map(|&i| self.ratings.get(i as usize).copied())
                .collect(),
        )
    }

    /// How many stored ratings belong to the shard's own user rows.
    /// Equals [`RawDataStore::len`] for unsharded stores.
    #[must_use]
    pub fn in_block_len(&self) -> usize {
        match &self.shard {
            Some(shard) => self.ratings.len() - shard.alien.len(),
            None => self.ratings.len(),
        }
    }

    /// How many stored ratings were gossiped in from outside the shard's
    /// block (0 for unsharded stores).
    #[must_use]
    pub fn alien_len(&self) -> usize {
        self.shard.as_ref().map_or(0, |s| s.alien.len())
    }

    /// Number of stored (distinct) ratings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ratings.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }

    /// Draws `k` distinct stored points uniformly (all of them if the store
    /// holds fewer). Stateless across calls.
    #[must_use]
    pub fn sample(&self, k: usize, rng: &mut StdRng) -> Vec<Rating> {
        match self.sample_indices(k, rng) {
            Some(picks) => picks
                .into_iter()
                .filter_map(|i| self.ratings.get(i).copied())
                .collect(),
            None => self.ratings.clone(),
        }
    }

    /// Advances `rng` exactly as [`RawDataStore::sample`] would, without
    /// gathering the points: the draw a share nobody receives still
    /// makes, since the RNG stream is the node's trajectory.
    pub fn skip_sample(&self, k: usize, rng: &mut StdRng) {
        let _ = self.sample_indices(k, rng);
    }

    /// The indices [`RawDataStore::sample`] draws, or `None` when it
    /// takes every point (`k` at least the store's size, or an empty
    /// store) and draws nothing.
    fn sample_indices(&self, k: usize, rng: &mut StdRng) -> Option<IndexVec> {
        (k < self.ratings.len()).then(|| index_sample(rng, self.ratings.len(), k))
    }

    /// The distinct items `user` has rated in this store, sorted
    /// ascending — the serve path's per-shard candidate-pruning list
    /// (items already rated are excluded from top-k answers). Uses the
    /// shard row index when `user` is a hosted row; falls back to a
    /// linear scan otherwise (unsharded stores, or out-of-block users).
    #[must_use]
    pub fn rated_items(&self, user: u32) -> Vec<u32> {
        let mut items: Vec<u32> = match self.row_ratings(user) {
            Some(row) => row.iter().map(|r| r.item).collect(),
            None => self
                .ratings
                .iter()
                .filter(|r| r.user == user)
                .map(|r| r.item)
                .collect(),
        };
        items.sort_unstable();
        items.dedup();
        items
    }

    /// Resident bytes of the shard row index alone (0 when unsharded):
    /// one `u32` per indexed entry plus per-row list headers. Reported
    /// as its own EPC region so sharded deployments can read the cost of
    /// hosting many users directly.
    #[must_use]
    pub fn index_bytes(&self) -> usize {
        match &self.shard {
            Some(shard) => {
                let entries = self.ratings.len(); // every rating indexed once
                entries * 4 + shard.rows.len() * 24
            }
            None => 0,
        }
    }

    /// Resident bytes: triplets plus the dedup index (12 B payload + ~24 B
    /// hash-set entry per item), plus the shard row index when sharded.
    /// This is the modelled figure the enclave's EPC charges read; it
    /// does not depend on the key form (see
    /// [`RawDataStore::resident_bytes`] for the heap the store holds).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.ratings.len() * (Rating::WIRE_SIZE + 24) + self.index_bytes()
    }

    /// The heap the store holds: the rating vector's capacity, the key
    /// set's buckets and the shard index's lists. What a process hosting
    /// the store pays, beside the modelled [`RawDataStore::memory_bytes`].
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.ratings.capacity() * size_of::<Rating>()
            + self.keys.resident_bytes()
            + self.shard.as_ref().map_or(0, ShardIndex::resident_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn r(user: u32, item: u32, value: f32) -> Rating {
        Rating { user, item, value }
    }

    #[test]
    fn dedup_on_append() {
        let mut s = RawDataStore::new();
        assert_eq!(s.append_batch(&[r(0, 0, 3.0), r(0, 1, 4.0)]), 2);
        // Same cell, even with a different value, is a duplicate.
        assert_eq!(s.append_batch(&[r(0, 0, 5.0), r(1, 0, 2.0)]), 1);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn append_is_idempotent() {
        let batch: Vec<Rating> = (0..50).map(|i| r(i, i, 1.0)).collect();
        let mut s = RawDataStore::with_initial(batch.clone());
        assert_eq!(s.append_batch(&batch), 0);
        assert_eq!(s.len(), 50);
    }

    #[test]
    fn rated_items_sorted_deduped_on_both_paths() {
        // Unsharded: linear-scan path.
        let s = RawDataStore::with_initial(vec![
            r(1, 9, 3.0),
            r(1, 2, 4.0),
            r(0, 5, 2.0),
            r(1, 2, 5.0), // duplicate cell, dropped by the store itself
        ]);
        assert_eq!(s.rated_items(1), vec![2, 9]);
        assert_eq!(s.rated_items(0), vec![5]);
        assert_eq!(s.rated_items(7), Vec::<u32>::new());

        // Sharded: the row-index path must agree with a linear scan,
        // and out-of-block users still fall back to the scan.
        let block = UserBlock { start: 4, end: 8 };
        let mut sh = RawDataStore::with_shard(block, vec![r(5, 3, 1.0), r(5, 1, 2.0)]);
        sh.append_batch(&[r(5, 3, 4.0), r(6, 0, 3.0), r(2, 8, 1.5)]);
        assert_eq!(sh.rated_items(5), vec![1, 3]);
        assert_eq!(sh.rated_items(6), vec![0]);
        assert_eq!(sh.rated_items(2), vec![8], "alien user uses linear scan");
    }

    #[test]
    fn sample_is_distinct_within_batch() {
        let s = RawDataStore::with_initial((0..100).map(|i| r(i, i, 1.0)).collect());
        let mut rng = StdRng::seed_from_u64(1);
        let batch = s.sample(30, &mut rng);
        assert_eq!(batch.len(), 30);
        let keys: HashSet<_> = batch.iter().map(Rating::key).collect();
        assert_eq!(keys.len(), 30);
    }

    #[test]
    fn sample_caps_at_store_size() {
        let s = RawDataStore::with_initial((0..10).map(|i| r(i, i, 1.0)).collect());
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(s.sample(300, &mut rng).len(), 10);
        assert!(RawDataStore::new().sample(5, &mut rng).is_empty());
    }

    /// A skipped sample leaves the RNG where a built one does: over a
    /// draw that samples, one that takes everything, and an empty store.
    #[test]
    fn a_skipped_sample_draws_what_a_built_one_does() {
        let s = RawDataStore::with_initial((0..100).map(|i| r(i, i, 1.0)).collect());
        let empty = RawDataStore::new();
        for (store, k) in [(&s, 30), (&s, 100), (&s, 300), (&empty, 5)] {
            let (mut built, mut skipped) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            let batch = store.sample(k, &mut built);
            assert_eq!(batch.len(), k.min(store.len()));
            store.skip_sample(k, &mut skipped);
            assert_eq!(built.gen::<u64>(), skipped.gen::<u64>(), "k = {k}");
        }
    }

    #[test]
    fn stateless_sampling_can_repeat_across_calls() {
        // §III-E: "nodes may send the same data points more than once".
        let s = RawDataStore::with_initial((0..5).map(|i| r(i, i, 1.0)).collect());
        let mut rng = StdRng::seed_from_u64(3);
        let a: HashSet<_> = s.sample(3, &mut rng).iter().map(Rating::key).collect();
        let b: HashSet<_> = s.sample(3, &mut rng).iter().map(Rating::key).collect();
        assert!(!a.is_disjoint(&b) || a == b || !a.is_empty());
    }

    #[test]
    fn memory_grows_with_items() {
        let mut s = RawDataStore::new();
        let m0 = s.memory_bytes();
        s.append_batch(&(0..100).map(|i| r(i, i, 1.0)).collect::<Vec<_>>());
        assert!(s.memory_bytes() > m0);
    }

    #[test]
    fn sharded_store_indexes_rows_and_aliens() {
        let block = UserBlock { start: 4, end: 8 };
        let initial: Vec<Rating> = (4..8)
            .flat_map(|u| (0..3).map(move |i| r(u, i, 2.0)))
            .collect();
        let mut s = RawDataStore::with_shard(block, initial);
        assert_eq!(s.shard_block(), Some(block));
        assert_eq!(s.in_block_len(), 12);
        assert_eq!(s.alien_len(), 0);
        assert_eq!(s.row_ratings(5).unwrap().len(), 3);
        assert_eq!(s.row_ratings(9), None, "outside the block");
        // Gossiped ratings from other shards land in the overflow list
        // but still train (flat vector) and count in memory.
        s.append_batch(&[r(0, 0, 1.0), r(6, 9, 4.0)]);
        assert_eq!(s.alien_len(), 1);
        assert_eq!(s.in_block_len(), 13);
        assert_eq!(s.row_ratings(6).unwrap().len(), 4);
        assert!(s.index_bytes() > 0);
    }

    #[test]
    fn row_ratings_preserve_arrival_order() {
        let block = UserBlock { start: 0, end: 2 };
        let mut s = RawDataStore::with_shard(block, vec![r(0, 5, 1.0)]);
        s.append_batch(&[r(0, 2, 2.0), r(1, 0, 3.0), r(0, 9, 4.0)]);
        let row0: Vec<u32> = s.row_ratings(0).unwrap().iter().map(|x| x.item).collect();
        assert_eq!(row0, vec![5, 2, 9]);
    }

    /// The four key forms a store can take: built without a space, for a
    /// space of 32-bit keys (the paper's), for one of exactly 2^32 cells
    /// (whose last cell packs to `u32::MAX`), and for one of 2^32 + 1
    /// (= 641 × 6 700 417) cells, which must take 64-bit keys. With
    /// whether the form packs its keys in 32 bits.
    const SPACES: [(Option<(u32, u32)>, bool); 4] = [
        (None, false),
        (Some((610, 9_000)), true),
        (Some((1 << 16, 1 << 16)), true),
        (Some((641, 6_700_417)), false),
    ];

    /// The store a constructor builds for `space` and `block` from
    /// `initial`: [`RawDataStore::for_space`] with a space, the
    /// space-less constructors without.
    fn store_for(
        space: Option<(u32, u32)>,
        block: Option<UserBlock>,
        initial: Vec<Rating>,
    ) -> RawDataStore {
        match (space, block) {
            (Some(space), block) => RawDataStore::for_space(space, block, initial),
            (None, Some(block)) => RawDataStore::with_shard(block, initial),
            (None, None) => RawDataStore::with_initial(initial),
        }
    }

    fn packs(store: &RawDataStore) -> bool {
        matches!(store.keys, CellKeys::Packed { .. })
    }

    /// The constructors deduplicate the vector they are given in place;
    /// the store must be the one `append_batch` builds from it on an
    /// empty store: ratings in order, key set, row index and memory. In
    /// every key form, and equal to the space-less store's.
    #[test]
    fn seeding_in_place_matches_appending_to_an_empty_store() {
        let initial = vec![
            r(2, 1, 1.0),
            r(3, 4, 2.0),
            r(2, 1, 5.0), // duplicate cell, later value
            r(9, 0, 3.0), // outside the block below
            r(3, 4, 2.0), // exact duplicate
            r(2, 7, 4.0),
        ];
        let block = UserBlock { start: 2, end: 4 };
        for (space, packed) in SPACES {
            for shard in [None, Some(block)] {
                let seeded = store_for(space, shard, initial.clone());
                let mut appended = store_for(space, shard, Vec::new());
                let reference = store_for(None, shard, initial.clone());
                assert_eq!(packs(&seeded), packed, "{space:?}");
                assert_eq!(appended.append_batch(&initial), 4);
                assert_eq!(seeded.ratings(), appended.ratings(), "{space:?} {shard:?}");
                assert_eq!(seeded.keys, appended.keys, "{space:?} {shard:?}");
                let index =
                    |s: &RawDataStore| s.shard.as_ref().map(|i| (i.rows.clone(), i.alien.clone()));
                assert_eq!(index(&seeded), index(&appended), "{space:?} {shard:?}");
                assert_eq!(seeded.memory_bytes(), appended.memory_bytes());
                assert_eq!(seeded.ratings(), reference.ratings(), "{space:?} {shard:?}");
                assert_eq!(index(&seeded), index(&reference), "{space:?} {shard:?}");
                assert_eq!(seeded.memory_bytes(), reference.memory_bytes());
            }
        }
    }

    /// `(0, items)` packs to the key `(1, 0)` does in a space `items`
    /// wide: a store built for the space refuses the first, which is
    /// outside it, so the two never meet in its key set.
    #[test]
    fn a_cell_outside_the_space_is_refused_not_keyed() {
        for (users, items) in [(610, 9_000), (1 << 16, 1 << 16), (641, 6_700_417)] {
            let (outside, inside) = (r(0, items, 4.0), r(1, 0, 3.0));
            let mut spaceless = RawDataStore::new();
            assert_eq!(spaceless.append_batch(&[outside, inside]), 2);
            let mut spaced = RawDataStore::for_space((users, items), None, Vec::new());
            assert_eq!(spaced.append_batch(&[outside, inside]), 1, "{items}");
            assert_eq!(spaced.ratings(), [inside]);
            assert_eq!(
                spaced.memory_bytes(),
                RawDataStore::with_initial(vec![inside]).memory_bytes()
            );
            // In either order, through every entry.
            let seeded = RawDataStore::for_space((users, items), None, vec![inside, outside]);
            assert_eq!(seeded.ratings(), [inside]);
            let mut share = RawDataStore::for_space((users, items), None, Vec::new());
            assert_eq!(
                share.append_share([outside, inside, outside].into_iter()),
                1
            );
            assert_eq!(share.len(), 1);
            // The user coordinate is bounded too.
            assert_eq!(share.append_batch(&[r(users, 0, 1.0)]), 0);
        }
    }

    #[test]
    fn the_intake_drops_non_finite_values_and_keeps_the_rest_in_order() {
        let share = [
            r(1, 1, f32::NAN),
            r(1, 2, 2.0),
            r(1, 1, 3.0), // the NaN before did not claim the cell
            r(2, 2, f32::INFINITY),
            r(2, 3, f32::NEG_INFINITY),
            r(1, 2, 4.0), // duplicate
        ];
        for (space, _) in SPACES {
            let mut store = store_for(space, None, Vec::new());
            assert_eq!(store.append_share(share.into_iter()), 2, "{space:?}");
            assert_eq!(store.ratings(), [r(1, 2, 2.0), r(1, 1, 3.0)]);
        }
    }

    #[test]
    fn resident_bytes_count_the_heap_and_packed_keys_take_less_of_it() {
        let cells: Vec<Rating> = (0..10_000).map(|n| r(n % 610, n / 610, 1.0)).collect();
        let wide = RawDataStore::with_initial(cells.clone());
        let packed = RawDataStore::for_space((610, 9_000), None, cells);
        assert!(packs(&packed) && !packs(&wide));
        assert_eq!(wide.memory_bytes(), packed.memory_bytes());
        for store in [&wide, &packed] {
            // At least the ratings and one key per stored cell.
            assert!(store.resident_bytes() >= store.len() * (12 + 4));
        }
        assert!(packed.resident_bytes() < wide.resident_bytes());
        assert_eq!(RawDataStore::new().resident_bytes(), 0);
        let sharded = RawDataStore::with_shard(UserBlock { start: 0, end: 4 }, vec![r(1, 1, 1.0)]);
        assert!(sharded.resident_bytes() >= 4 * size_of::<Vec<u32>>() + 12 + 4 + 4);
    }

    /// A store for `space` whose duplicate check hashes under `key`,
    /// sharded by `block` if given — what the constructors build, with
    /// the one thing they draw at random pinned.
    fn keyed_store(key: u64, space: Option<(u32, u32)>, block: Option<UserBlock>) -> RawDataStore {
        let mut store = store_for(space, block, Vec::new());
        store.keys = CellKeys::new(space, 0, CellHash(key | 1));
        store
    }

    /// Batches over a universe small enough that most draws repeat a
    /// cell (within a batch, across batches, under a different value),
    /// with the corner cells of `space` in it — the coordinate type's
    /// extremes when there is none.
    fn random_batches(rng: &mut StdRng, space: Option<(u32, u32)>) -> Vec<Vec<Rating>> {
        use rand::Rng;
        let (last_user, last_item) = space.map_or((u32::MAX, u32::MAX), |(u, i)| (u - 1, i - 1));
        let users = [0, 1, 2, 3, 4, 5, 6, 7, last_user];
        let items = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, last_item - 1, last_item];
        (0..rng.gen_range(1..8))
            .map(|_| {
                (0..rng.gen_range(0..40))
                    .map(|_| Rating {
                        user: users[rng.gen_range(0..users.len())],
                        item: items[rng.gen_range(0..items.len())],
                        value: rng.gen_range(1..11) as f32 * 0.5,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn store_follows_a_btreeset_reference_over_random_batches() {
        use std::collections::BTreeSet;
        for (space, packed) in SPACES {
            for case in 0..300u64 {
                let mut rng = StdRng::seed_from_u64(case);
                let block = (case % 2 == 1).then_some(UserBlock { start: 2, end: 6 });
                let batches = random_batches(&mut rng, space);
                // The first batch enters through the constructor; the
                // space-less store beside it takes the same batches.
                let mut store = store_for(space, block, batches[0].clone());
                let mut reference = store_for(None, block, batches[0].clone());
                assert_eq!(packs(&store), packed);
                let mut cells = BTreeSet::new();
                let mut arrived: Vec<Rating> = Vec::new();
                for (nth, batch) in batches.iter().enumerate() {
                    let fresh: Vec<Rating> = batch
                        .iter()
                        .filter(|r| cells.insert(r.key()))
                        .copied()
                        .collect();
                    if nth > 0 {
                        assert_eq!(store.append_batch(batch), fresh.len(), "case {case}");
                        reference.append_batch(batch);
                    }
                    arrived.extend(fresh);
                    assert_eq!(store.len(), arrived.len(), "case {case}");
                }
                assert_eq!(store.ratings(), arrived, "case {case}: arrival order");
                assert_eq!(store.ratings(), reference.ratings(), "case {case}");
                assert_eq!(store.len(), reference.len());
                assert_eq!(store.memory_bytes(), reference.memory_bytes());
                let (mut a, mut b) = (StdRng::seed_from_u64(case), StdRng::seed_from_u64(case));
                for k in [1, 5, store.len() / 2, store.len() + 3] {
                    assert_eq!(store.sample(k, &mut a), reference.sample(k, &mut b));
                }
                let hosted = |r: &&Rating| block.is_some_and(|b| b.contains(r.user));
                assert_eq!(
                    store.alien_len(),
                    block.map_or(0, |_| arrived.iter().filter(|r| !hosted(r)).count())
                );
                for user in [0, 2, 5, 6, u32::MAX] {
                    let row: Option<Vec<Rating>> = block
                        .filter(|b| b.contains(user))
                        .map(|_| arrived.iter().filter(|r| r.user == user).copied().collect());
                    assert_eq!(store.row_ratings(user), row, "case {case}: user {user}");
                }
            }
        }
    }

    #[test]
    fn the_hash_key_is_unobservable() {
        // Identity multiplier, a fixed odd constant, and whatever this
        // process draws: same batches in, same everything out, in every
        // key form.
        for ((space, _), block) in SPACES
            .into_iter()
            .flat_map(|s| [(s, None), (s, Some(UserBlock { start: 2, end: 6 }))])
        {
            let mut rng = StdRng::seed_from_u64(11);
            let batches = random_batches(&mut rng, space);
            let mut stores = [
                keyed_store(1, space, block),
                keyed_store(0x9e37_79b9_7f4a_7c15, space, block),
                keyed_store(CellHash::default().0, space, block),
            ];
            for store in &mut stores {
                for batch in &batches {
                    store.append_batch(batch);
                }
            }
            let [first, rest @ ..] = &stores;
            for other in rest {
                assert_eq!(other.ratings(), first.ratings());
                assert_eq!(other.memory_bytes(), first.memory_bytes());
                for user in [0, 3, 7, u32::MAX] {
                    assert_eq!(other.rated_items(user), first.rated_items(user));
                }
                let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
                for k in [1, 5, first.len() / 2, first.len(), first.len() + 3] {
                    assert_eq!(other.sample(k, &mut a), first.sample(k, &mut b));
                }
            }
        }
    }

    /// What std's table reads of a hash: the bucket from the low bits,
    /// the control byte from the top seven. On the structured cell sets a
    /// fleet produces — coordinates far below 2^32, so all the entropy
    /// sits in two narrow bit ranges of the packed cell — both must come
    /// out spread like a random function's, or probes walk long chains.
    #[test]
    fn structured_cells_spread_over_buckets_and_control_bytes() {
        const CELLS: u64 = 100_000;
        type Cell = fn(u64) -> (u32, u32);
        let grids: [(&str, Cell); 4] = [
            // The first 100 k cells of the 610 x 9 000 matrix, row-major.
            ("dense rows", |n| ((n / 9_000) as u32, (n % 9_000) as u32)),
            // Every 54th cell: all 610 users, a stride through the items.
            ("strided", |n| {
                ((n * 54 / 9_000) as u32, (n * 54 % 9_000) as u32)
            }),
            ("diagonal", |n| (n as u32, n as u32)),
            ("one user", |n| (0, n as u32)),
        ];
        // Buckets of the table that holds CELLS keys at 7/8 load.
        let buckets = (CELLS * 8 / 7).next_power_of_two();
        let random_fill = buckets as f64 * (1.0 - (-(CELLS as f64) / buckets as f64).exp());
        for key in [
            0x9e37_79b9_7f4a_7c15u64,
            0xbf58_476d_1ce4_e5b9,
            0x94d0_49bb_1331_11eb,
            0x2545_f491_4f6c_dd1d,
        ] {
            let hash = &CellHash(key | 1);
            // Each grid as both key forms hash it: packed `user · 9 000 +
            // item` in a `u32`, and `user << 32 | item` in a `u64`.
            let forms = grids.into_iter().flat_map(|(name, cell)| {
                let packed = move |n| {
                    let (user, item) = cell(n);
                    hash.hash_one(user * 9_000 + item)
                };
                let wide = move |n| {
                    let (user, item) = cell(n);
                    hash.hash_one((u64::from(user) << 32) | u64::from(item))
                };
                [
                    (name, Box::new(packed) as Box<dyn Fn(u64) -> u64>),
                    (name, Box::new(wide)),
                ]
            });
            for (name, hash_of) in forms {
                let mut bucket_used = vec![false; buckets as usize];
                let mut control = [0u32; 128];
                for n in 0..CELLS {
                    let h = hash_of(n);
                    bucket_used[(h & (buckets - 1)) as usize] = true;
                    control[(h >> 57) as usize] += 1;
                }
                let used = bucket_used.iter().filter(|&&b| b).count() as f64;
                assert!(
                    used >= 0.9 * random_fill,
                    "{name}, key {key:#x}: {used} buckets used, a random function fills \
                     {random_fill:.0}"
                );
                let even = CELLS as f64 / 128.0;
                let (min, max) = (control.iter().min().unwrap(), control.iter().max().unwrap());
                assert!(
                    f64::from(*min) >= 0.75 * even && f64::from(*max) <= 1.25 * even,
                    "{name}, key {key:#x}: control bytes hold {min}..{max} cells, even is {even:.0}"
                );
            }
        }
    }

    #[test]
    fn width_one_shard_is_representationally_legacy() {
        // The users_per_node = 1 contract: a width-1 block builds no
        // index, so the store is byte-for-byte the legacy one.
        let block = UserBlock { start: 3, end: 4 };
        let data: Vec<Rating> = (0..6).map(|i| r(3, i, 1.0)).collect();
        let sharded = RawDataStore::with_shard(block, data.clone());
        let legacy = RawDataStore::with_initial(data);
        assert_eq!(sharded.shard_block(), None);
        assert_eq!(sharded.index_bytes(), 0);
        assert_eq!(sharded.memory_bytes(), legacy.memory_bytes());
        assert_eq!(sharded.ratings(), legacy.ratings());
    }
}
