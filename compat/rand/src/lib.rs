//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *subset* of the rand 0.8 API its code actually uses:
//! [`RngCore`], [`SeedableRng`], the [`Rng`] extension trait
//! (`gen`/`gen_range`/`gen_bool`), [`rngs::StdRng`], slice shuffling and
//! distinct-index sampling under [`seq`].
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256** seeded through
//! SplitMix64 — not the ChaCha12 core of the real crate, so *sequences
//! differ from upstream rand*, but every consumer in this repo only relies
//! on determinism-for-a-seed and reasonable statistical quality, both of
//! which hold.

pub mod rngs;
pub mod seq;

/// Low-level uniform random source.
pub trait RngCore {
    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniformly random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// An RNG constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds the RNG from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the RNG from a `u64`, expanded with SplitMix64 (matching the
    /// convention of upstream rand's default implementation).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let x = splitmix64(&mut state);
            for (b, s) in chunk.iter_mut().zip(x.to_le_bytes()) {
                *b = s;
            }
        }
        Self::from_seed(seed)
    }
}

/// SplitMix64 step — used for seed expansion.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types that can be drawn uniformly from a range (the workspace's
/// `gen_range` argument types).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// `v mod span` for an integer range of `span` values, where `span` is
/// held modulo 2^64: every span of a type up to 64 bits wide fits,
/// except the full inclusive 64-bit range, which arrives as 0 — and
/// `v mod 2^64` is `v`.
#[inline]
fn reduce(v: u64, span: u64) -> u64 {
    if span == 0 {
        v
    } else {
        v % span
    }
}

// Casting through `u64` sign-extends, so `end - start` and `start + v`
// are exact modulo 2^64 for signed types too, and the final cast
// truncates to the type's width: the values 128-bit arithmetic gives.
macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(reduce(rng.next_u64(), span)) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty gen_range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                (start as u64).wrapping_add(reduce(rng.next_u64(), span)) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty, $unit:ident);*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let u = $unit(rng);
                let v = self.start + u * (self.end - self.start);
                // Guard against rounding to the exclusive upper bound.
                if v >= self.end {
                    <$t>::max(self.start, self.end - (self.end - self.start) * 1e-7)
                } else {
                    v
                }
            }
        }
    )*};
}

/// Uniform f64 in [0, 1) with 53 random bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform f32 in [0, 1) with 24 random bits.
fn unit_f32<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
    (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

float_sample_range!(f64, unit_f64; f32, unit_f32);

/// Types drawable from the "standard" distribution via [`Rng::gen`].
pub trait StandardSample: Sized {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f32(rng)
    }
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

impl StandardSample for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`] (mirrors upstream rand's `Rng`).
pub trait Rng: RngCore {
    /// Draws from the standard distribution of `T`.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_one(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p out of range");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: u32 = rng.gen_range(1..=10);
            assert!((1..=10).contains(&w));
            let f: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    /// `sample_one` before it reduced in 64 bits: the span and the
    /// draw widened to 128 bits.
    macro_rules! wide_draw {
        ($start:expr, $span:expr, $rng:expr, $t:ty) => {
            ($start as i128 + (($rng.next_u64() as u128) % $span) as i128) as $t
        };
    }

    macro_rules! int_draws_match_wide_formula {
        ($($t:ty),*) => {$(
            let (min, max) = (<$t>::MIN, <$t>::MAX);
            // Edge spans: 1, 2, 2^32 ± 1 (where the type is wide enough),
            // MAX, the full inclusive range, and negative starts.
            let mut ranges: Vec<(i128, i128)> = vec![
                (0, 1),
                (5, 7),
                (min as i128, min as i128 + 1),
                (max as i128 - 2, max as i128),
                (0, max as i128),
                (min as i128, max as i128),
                (min as i128 / 2, max as i128 / 3 + 1),
            ];
            if <$t>::BITS > 32 {
                for span in [(1i128 << 32) - 1, 1 << 32, (1 << 32) + 1] {
                    ranges.push((3, 3 + span));
                    ranges.push((min as i128 / 4, min as i128 / 4 + span));
                }
            }
            for (seed, &(start, end)) in ranges.iter().enumerate() {
                let (s, e) = (start as $t, end as $t);
                let mut got = StdRng::seed_from_u64(seed as u64);
                let mut want = got.clone();
                for _ in 0..1_000 {
                    let v: $t = got.gen_range(s..e);
                    let span = (end - start) as u128;
                    assert_eq!(v, wide_draw!(start, span, want, $t), "{s}..{e}");
                    assert!((s..e).contains(&v));
                }
                for _ in 0..1_000 {
                    let v: $t = got.gen_range(s..=e);
                    let span = (end - start) as u128 + 1;
                    assert_eq!(v, wide_draw!(start, span, want, $t), "{s}..={e}");
                }
                assert_eq!(got, want, "draws consumed differently on {s}..{e}");
            }
        )*};
    }

    #[test]
    fn integer_ranges_draw_what_the_128_bit_formula_drew() {
        int_draws_match_wide_formula!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
    }

    #[test]
    fn unit_floats_cover_the_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut below = 0;
        for _ in 0..10_000 {
            let f: f32 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            if f < 0.5 {
                below += 1;
            }
        }
        assert!((4_000..6_000).contains(&below), "badly skewed: {below}");
    }

    #[test]
    fn fill_bytes_fills_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = [0u8; 37];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
