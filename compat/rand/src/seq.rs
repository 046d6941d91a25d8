//! Sequence utilities: in-place shuffling and distinct-index sampling.

use crate::{Rng, RngCore};

/// Extension methods on slices (mirrors `rand::seq::SliceRandom`).
pub trait SliceRandom {
    /// Element type.
    type Item;

    /// Fisher–Yates shuffle in place.
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

    /// Uniformly random element, `None` on an empty slice.
    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.swap(i, j);
        }
    }

    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }
}

/// Distinct-index sampling (mirrors `rand::seq::index`).
pub mod index {
    use super::*;

    /// A set of distinct indices in draw order.
    #[derive(Debug, Clone)]
    pub struct IndexVec(Vec<usize>);

    impl IndexVec {
        /// Number of sampled indices.
        #[must_use]
        pub fn len(&self) -> usize {
            self.0.len()
        }

        /// Whether the sample is empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.0.is_empty()
        }

        /// Iterates over the indices.
        pub fn iter(&self) -> std::slice::Iter<'_, usize> {
            self.0.iter()
        }
    }

    impl IntoIterator for IndexVec {
        type Item = usize;
        type IntoIter = std::vec::IntoIter<usize>;

        fn into_iter(self) -> Self::IntoIter {
            self.0.into_iter()
        }
    }

    /// Samples `amount` distinct indices uniformly from `0..length`.
    ///
    /// # Panics
    /// If `amount > length`.
    pub fn sample<R: RngCore + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
        assert!(amount <= length, "cannot sample {amount} of {length}");
        if amount == 0 {
            return IndexVec(Vec::new());
        }
        if amount * 4 <= length {
            // Sparse: rejection sampling, O(amount) memory.
            let mut seen = IndexSet::with_capacity(amount);
            let mut out = Vec::with_capacity(amount);
            while out.len() < amount {
                let idx = rng.gen_range(0..length);
                if seen.insert(idx) {
                    out.push(idx);
                }
            }
            IndexVec(out)
        } else {
            // Dense: partial Fisher–Yates.
            let mut pool: Vec<usize> = (0..length).collect();
            for i in 0..amount {
                let j = rng.gen_range(i..length);
                pool.swap(i, j);
            }
            pool.truncate(amount);
            IndexVec(pool)
        }
    }

    /// A set of indices for the sparse path: open addressing over a
    /// power-of-two table at least twice the sample, a multiplicative
    /// (Fibonacci) hash and linear probing. Slots hold `index + 1`, so 0
    /// marks an empty slot.
    struct IndexSet {
        slots: Vec<usize>,
        shift: u32,
    }

    impl IndexSet {
        fn with_capacity(amount: usize) -> IndexSet {
            let size = (2 * amount).next_power_of_two().max(2);
            IndexSet {
                slots: vec![0; size],
                shift: u64::BITS - size.trailing_zeros(),
            }
        }

        /// Inserts `idx`; returns whether it was absent.
        fn insert(&mut self, idx: usize) -> bool {
            let mask = self.slots.len() - 1;
            let mut slot =
                ((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
            loop {
                match self.slots[slot] {
                    0 => {
                        self.slots[slot] = idx + 1;
                        return true;
                    }
                    held if held == idx + 1 => return false,
                    _ => slot = (slot + 1) & mask,
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::rngs::StdRng;
        use crate::SeedableRng;
        use std::collections::HashSet;

        /// `sample` as it stood with a SipHash set on the sparse path:
        /// the reference the open-addressed set must reproduce.
        fn reference_sample<R: RngCore + ?Sized>(
            rng: &mut R,
            length: usize,
            amount: usize,
        ) -> Vec<usize> {
            assert!(amount <= length, "cannot sample {amount} of {length}");
            if amount == 0 {
                return Vec::new();
            }
            if amount * 4 <= length {
                let mut seen = HashSet::with_capacity(amount);
                let mut out = Vec::with_capacity(amount);
                while out.len() < amount {
                    let idx = rng.gen_range(0..length);
                    if seen.insert(idx) {
                        out.push(idx);
                    }
                }
                out
            } else {
                let mut pool: Vec<usize> = (0..length).collect();
                for i in 0..amount {
                    let j = rng.gen_range(i..length);
                    pool.swap(i, j);
                }
                pool.truncate(amount);
                pool
            }
        }

        #[test]
        fn samples_equal_the_reference_on_both_paths() {
            // Sparse (`amount * 4 < length`), the boundary (`== length`,
            // still sparse), and partial Fisher–Yates (`>`), including
            // samples dense enough that the sparse path collides often.
            let shapes = [
                (1, 1),
                (4, 1),
                (8, 2),
                (9, 2),
                (7, 2),
                (100, 25),
                (100, 26),
                (100, 24),
                (1_200, 300),
                (1_199, 300),
                (70_000, 300),
                (1 << 20, 300),
                (300, 300),
                (50, 0),
                (17, 16),
            ];
            for seed in 0..200u64 {
                for (length, amount) in shapes {
                    let mut a = StdRng::seed_from_u64(seed);
                    let mut b = a.clone();
                    let got: Vec<usize> = sample(&mut a, length, amount).into_iter().collect();
                    let want = reference_sample(&mut b, length, amount);
                    assert_eq!(got, want, "seed {seed}, {amount} of {length}");
                    assert_eq!(a, b, "seed {seed}: the draws consumed differ");
                }
            }
        }

        #[test]
        fn samples_are_distinct_and_in_range() {
            let mut rng = StdRng::seed_from_u64(5);
            for (len, k) in [(10, 10), (100, 3), (50, 40), (7, 0)] {
                let s = sample(&mut rng, len, k);
                assert_eq!(s.len(), k);
                let set: HashSet<usize> = s.iter().copied().collect();
                assert_eq!(set.len(), k, "duplicates at len={len} k={k}");
                assert!(s.iter().all(|&i| i < len));
            }
        }
    }
}
