//! Copy-on-write row tables: the storage behind [`crate::MfModel`].
//!
//! A fleet's models all start as clones of one initialization, and a
//! node only ever writes the rows its own ratings (or a merge) reach —
//! on the paper's 610 × 9 000 fleet about 28 % of them by the end of a
//! run. So a [`RowStore`] keeps the initial rows once, in an immutable
//! base that every clone shares through an `Arc`, and gives each model
//! an overlay holding only the rows it has written. A row is copied out
//! of the base the first time it is written, and read from wherever it
//! lives through one accessor; cloning a model copies its overlay and
//! shares the base.
//!
//! A row is `k` factors and a bias. The overlay keeps them in two
//! vectors indexed by the row's slot, grown [`CHUNK_ROWS`] rows at a
//! time, so its slack stays under one chunk. Rows take slots in the
//! order they are first written, which is all a step that reaches a row
//! by its slot needs. A pass over the whole table ([`RowStore::runs`])
//! reads it in row order, as maximal runs of rows that lie side by
//! side.
//!
//! A model that will write most of its table anyway takes every row at
//! build instead, in row order ([`RowStore::own_all`]), and lets go of
//! the base. The fleet builder's one rule for which model does
//! (`rex_core`'s `build_mf_nodes`) is model sharing (its first merge
//! writes every row a neighbour has seen), or training ratings that reach
//! at least one row in four ([`crate::MfModel::ratings_reach_full_form`]).
//! That share is where the model's change
//! records switch to the full form, so from its first epochs on every
//! commitment link reads the whole table: kept in first-write order, each
//! such pass would gather one run per written row (~9 500 on a
//! 610 × 9 000 model trained on all its users), against one per table in
//! row order. Below it, as on a one-user node (about 1.4 % of the rows
//! reached), the table stays copy-on-write.

use std::sync::Arc;

/// Rows the overlay grows by at a time. At k = 10 a chunk is 5.6 KB:
/// small beside a fleet node's ~120 KB of written rows.
const CHUNK_ROWS: usize = 128;

/// The slot of a row that still reads from the base.
const IN_BASE: u32 = u32::MAX;

/// `v` where `mask` is all ones, +0.0 where it is zero: a select that
/// does not branch.
#[inline(always)]
pub(crate) fn masked(v: f32, mask: u32) -> f32 {
    f32::from_bits(v.to_bits() & mask)
}

/// One table of a model: `k` factors, a bias and a seen flag per user
/// or per item.
#[derive(Debug, Clone)]
pub(crate) struct RowStore {
    k: usize,
    /// The rows as drawn, shared by every clone: `k` factors per row,
    /// then a (zero) bias per row.
    base: Arc<[f32]>,
    /// Per row, its overlay slot, or [`IN_BASE`].
    slots: Vec<u32>,
    /// The owned rows' factors, `k` per slot.
    factors: Vec<f32>,
    /// The owned rows' biases, one per slot.
    biases: Vec<f32>,
    /// Whether the row carries information (§III-C2's partial merge).
    pub(crate) seen: Vec<bool>,
}

impl RowStore {
    /// A table of `rows` rows that all read from a new shared base: each
    /// row's `k` factors are `draw`n in row order, its bias is zero, and
    /// no row is seen.
    pub(crate) fn drawn(rows: usize, k: usize, mut draw: impl FnMut() -> f32) -> Self {
        // Collected from an exact-size iterator, so the base is written
        // in place: no interim vector of its size to allocate and free.
        let base = (0..rows * (k + 1)).map(|at| if at < rows * k { draw() } else { 0.0 });
        RowStore {
            k,
            base: base.collect(),
            slots: vec![IN_BASE; rows],
            factors: Vec::new(),
            biases: Vec::new(),
            seen: vec![false; rows],
        }
    }

    /// A table that owns every row, row `r` in slot `r`, over an empty
    /// base: `factors` holds `k` per row, `biases` one.
    pub(crate) fn owning(k: usize, seen: Vec<bool>, factors: Vec<f32>, biases: Vec<f32>) -> Self {
        let rows = seen.len();
        assert!(factors.len() == rows * k && biases.len() == rows);
        RowStore {
            k,
            base: Arc::from([]),
            slots: (0..rows as u32).collect(),
            factors,
            biases,
            seen,
        }
    }

    /// Rows in the table.
    pub(crate) fn rows(&self) -> usize {
        self.slots.len()
    }

    /// Rows this table holds in its overlay.
    #[cfg(test)]
    pub(crate) fn owned(&self) -> usize {
        self.biases.len()
    }

    /// Row `r`: its factors and its bias.
    #[inline(always)]
    pub(crate) fn row(&self, r: usize) -> (&[f32], f32) {
        match self.slots[r] {
            IN_BASE => (&self.base[r * self.k..][..self.k], self.base_biases()[r]),
            slot => {
                let (at, slot) = (slot as usize * self.k, slot as usize);
                // SAFETY: every slot `slots` holds was handed out below
                // `biases.len()` (`copy_out`, `own_all`, `owning`), slots
                // are never freed, and `factors` holds `k` floats per
                // slot, so both ranges are in bounds. The lookup every
                // whole-table sweep and prediction pays per row skips
                // its two bounds checks.
                unsafe {
                    (
                        self.factors.get_unchecked(at..at + self.k),
                        *self.biases.get_unchecked(slot),
                    )
                }
            }
        }
    }

    /// Row `id` as a prediction reads it: its factors, its bias
    /// [`masked`] by its seen flag, and that flag as a mask (all ones
    /// when seen, zero when not). `None` when the table has no row `id`.
    #[inline(always)]
    pub(crate) fn masked_row(&self, id: u32) -> Option<(&[f32], f32, u32)> {
        let r = id as usize;
        let mask = u32::from(*self.seen.get(r)?).wrapping_neg();
        let (factors, bias) = self.row(r);
        Some((factors, masked(bias, mask), mask))
    }

    fn base_biases(&self) -> &[f32] {
        &self.base[self.rows() * self.k..]
    }

    /// Row `r` for writing, copied out of the base first if this table
    /// does not own it yet.
    #[inline(always)]
    pub(crate) fn row_mut(&mut self, r: usize) -> (&mut [f32], &mut f32) {
        let slot = self.own(r);
        self.slot_mut(slot)
    }

    /// Makes row `r` this table's own and returns its slot: what the
    /// training sweep's read-ahead resolves before a step writes the row.
    #[inline(always)]
    pub(crate) fn own(&mut self, r: usize) -> usize {
        match self.slots[r] {
            IN_BASE => self.copy_out(r),
            slot => slot as usize,
        }
    }

    fn copy_out(&mut self, r: usize) -> usize {
        let slot = self.biases.len();
        if slot == self.biases.capacity() {
            self.biases.reserve_exact(CHUNK_ROWS);
            self.factors.reserve_exact(CHUNK_ROWS * self.k);
        }
        self.factors
            .extend_from_slice(&self.base[r * self.k..][..self.k]);
        self.biases.push(self.base_biases()[r]);
        self.slots[r] = slot as u32;
        slot
    }

    /// The owned row in `slot` ([`RowStore::own`]'s answer).
    #[inline(always)]
    pub(crate) fn slot(&self, slot: usize) -> (&[f32], f32) {
        (&self.factors[slot * self.k..][..self.k], self.biases[slot])
    }

    /// The owned row in `slot` ([`RowStore::own`]'s answer), for writing.
    #[inline(always)]
    pub(crate) fn slot_mut(&mut self, slot: usize) -> (&mut [f32], &mut f32) {
        (
            &mut self.factors[slot * self.k..][..self.k],
            &mut self.biases[slot],
        )
    }

    /// How many rows from `row` on, up to `end`, lie side by side with
    /// it — in the base, or in consecutive slots.
    // Always inlined, like `run`: on a table whose rows lie in scattered
    // slots `runs` yields a run per row, and a call per run made a
    // trained 610 × 9 000 model's `to_bytes` 2.4x slower.
    #[inline(always)]
    pub(crate) fn run_len(&self, row: usize, end: usize) -> usize {
        let first = self.slots[row];
        self.slots[row + 1..end]
            .iter()
            .enumerate()
            .take_while(|&(i, &slot)| match first {
                IN_BASE => slot == IN_BASE,
                _ => slot == first + 1 + i as u32,
            })
            .count()
            + 1
    }

    /// The factors (`k` per row) and biases of the `len` rows from `row`
    /// on, which lie side by side ([`RowStore::run_len`]).
    #[inline(always)]
    pub(crate) fn run(&self, row: usize, len: usize) -> (&[f32], &[f32]) {
        let (factors, biases, at) = match self.slots[row] {
            IN_BASE => (&self.base[..], self.base_biases(), row),
            slot => (&self.factors[..], &self.biases[..], slot as usize),
        };
        (
            &factors[at * self.k..][..len * self.k],
            &biases[at..at + len],
        )
    }

    /// [`RowStore::run`] for writing: the `len` rows from `row` on must
    /// be owned, in consecutive slots.
    pub(crate) fn run_mut(&mut self, row: usize, len: usize) -> (&mut [f32], &mut [f32]) {
        let at = self.slots[row] as usize;
        debug_assert!(self.slots[row] != IN_BASE && self.run_len(row, row + len) == len);
        (
            &mut self.factors[at * self.k..][..len * self.k],
            &mut self.biases[at..at + len],
        )
    }

    /// Every row in row order, as maximal runs of consecutive rows that
    /// lie side by side — in the base, or in consecutive slots: each
    /// run's factors (`k` per row) and biases.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (&[f32], &[f32])> + '_ {
        let mut start = 0;
        std::iter::from_fn(move || {
            if start == self.rows() {
                return None;
            }
            let len = self.run_len(start, self.rows());
            let run = self.run(start, len);
            start += len;
            Some(run)
        })
    }

    /// Takes every row, laid out in row order: the overlay is rebuilt
    /// to hold the whole table, row `r` in slot `r`, and the shared base
    /// is let go, since no row reads from it any more (the last table to
    /// let go frees it). Moves no value; slots from [`RowStore::own`] go
    /// stale.
    pub(crate) fn own_all(&mut self) {
        let (k, rows) = (self.k, self.rows());
        let mut factors = Vec::with_capacity(rows * k);
        let mut biases = Vec::with_capacity(rows);
        for r in 0..rows {
            let (row, bias) = self.row(r);
            factors.extend_from_slice(row);
            biases.push(bias);
        }
        self.slots = (0..rows as u32).collect();
        (self.factors, self.biases) = (factors, biases);
        self.base = Arc::from([]);
    }

    /// Bytes this table holds of its own: slots, overlay (slack
    /// included) and seen flags. The base is shared and not counted.
    pub(crate) fn resident_bytes(&self) -> usize {
        4 * (self.slots.len() + self.factors.capacity() + self.biases.capacity()) + self.seen.len()
    }

    /// Bytes of the shared base.
    pub(crate) fn base_bytes(&self) -> usize {
        self.base.len() * 4
    }

    /// Whether `other` reads from the same base allocation.
    #[cfg(test)]
    pub(crate) fn shares_base_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// The base's factors for row `r`.
    #[cfg(test)]
    pub(crate) fn base_factors(&self, r: usize) -> &[f32] {
        &self.base[r * self.k..][..self.k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(rows: usize, k: usize) -> RowStore {
        let mut next = 0.0;
        RowStore::drawn(rows, k, || {
            next += 1.0;
            next - 1.0
        })
    }

    /// The table, gathered through [`RowStore::runs`].
    fn gathered(s: &RowStore) -> (Vec<f32>, Vec<f32>) {
        let (mut factors, mut biases) = (Vec::new(), Vec::new());
        for (f, b) in s.runs() {
            factors.extend_from_slice(f);
            biases.extend_from_slice(b);
        }
        (factors, biases)
    }

    #[test]
    fn reads_come_from_the_base_until_a_row_is_written() {
        let mut s = store(300, 3);
        assert_eq!(s.rows(), 300);
        assert_eq!(s.row(7), (&[21.0, 22.0, 23.0][..], 0.0));
        let mut sibling = s.clone();
        *s.row_mut(7).1 = 1.5;
        assert_eq!(s.row(7), (&[21.0, 22.0, 23.0][..], 1.5));
        assert_eq!(sibling.row(7), (&[21.0, 22.0, 23.0][..], 0.0));
        assert_eq!(s.base_factors(7), sibling.row(7).0);
        assert_eq!((s.owned(), sibling.owned()), (1, 0));
        sibling.row_mut(7).0[0] = -1.0;
        assert_eq!(s.row(7).0[0], 21.0);
        assert!(s.shares_base_with(&sibling));
    }

    #[test]
    fn the_overlay_grows_a_chunk_at_a_time() {
        let mut s = store(CHUNK_ROWS * 2 + 5, 2);
        let chunk = CHUNK_ROWS * 3 * 4;
        let fixed = s.resident_bytes();
        s.row_mut(0);
        assert_eq!(s.resident_bytes(), fixed + chunk);
        for r in (0..s.rows()).rev() {
            *s.row_mut(r).1 = r as f32;
        }
        assert_eq!(s.owned(), s.rows());
        assert_eq!(s.resident_bytes(), fixed + 3 * chunk);
        // A clone holds the rows and none of the slack.
        assert_eq!(s.clone().resident_bytes(), fixed + s.rows() * 3 * 4);
        let before = gathered(&s);
        assert_eq!(
            before.1,
            (0..s.rows()).map(|r| r as f32).collect::<Vec<_>>()
        );
        // Taken in reverse, the rows lie in descending slots: one run each.
        assert_eq!(s.runs().count(), s.rows());
        for r in 0..s.rows() {
            assert_eq!(
                s.row(r),
                (&[(2 * r) as f32, (2 * r + 1) as f32][..], r as f32)
            );
        }
    }

    #[test]
    fn runs_cover_base_and_overlay_rows_in_row_order() {
        let mut s = store(10, 1);
        for r in [4, 5, 2, 9] {
            *s.row_mut(r).1 = 1.0;
        }
        let lens: Vec<usize> = s.runs().map(|(f, _)| f.len()).collect();
        assert_eq!(lens, [2, 1, 1, 2, 3, 1]);
        let (factors, biases) = gathered(&s);
        assert_eq!(factors, (0..10).map(|v| v as f32).collect::<Vec<_>>());
        assert_eq!(biases, [0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        s.own_all();
        assert_eq!((s.owned(), s.runs().count()), (10, 1));
        assert_eq!(gathered(&s), (factors, biases));
    }

    #[test]
    fn a_table_that_owns_every_row_lets_go_of_the_base() {
        let mut s = store(10, 2);
        for r in [7, 1, 4] {
            *s.row_mut(r).1 = r as f32;
        }
        let sibling = s.clone();
        assert!(s.shares_base_with(&sibling));
        let rows: Vec<(Vec<f32>, f32)> =
            (0..10).map(|r| (s.row(r).0.to_vec(), s.row(r).1)).collect();
        let before = gathered(&s);
        s.own_all();
        assert!(!s.shares_base_with(&sibling));
        assert_eq!((s.base_bytes(), sibling.base_bytes()), (0, 10 * 3 * 4));
        for (r, (factors, bias)) in rows.iter().enumerate() {
            assert_eq!(s.row(r), (&factors[..], *bias));
        }
        assert_eq!(s.runs().count(), 1);
        assert_eq!(gathered(&s), before);
        assert_eq!(gathered(&sibling), before);
    }

    #[test]
    fn an_owning_table_owns_every_row() {
        let factors = vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5];
        let s = RowStore::owning(2, vec![true, false, true], factors, vec![7.0, 8.0, 9.0]);
        assert_eq!((s.rows(), s.owned(), s.base_bytes()), (3, 3, 0));
        assert_eq!(s.row(2), (&[2.0, 2.5][..], 9.0));
        assert_eq!(s.seen, [true, false, true]);
        assert_eq!(s.runs().count(), 1);
    }
}
